"""Benchmark: tracing must be near-free when off, cheap when on.

``repro.obs`` instruments the engine's hottest path — every trial of every
``evaluate_many`` batch — so its cost discipline is part of the contract:

* **Disabled** (the default): each call site is one ``enabled`` attribute
  check and a shared no-op span.  Ceiling: the engine's whole per-trial cost
  over a bare ``timed_call`` is at most 3% of a realistic (~2 ms) trial.
* **Enabled**: per-trial span bookkeeping plus one JSONL line per event.
  Ceiling: what enabling tracing adds per trial is at most 15% of that trial.

The per-trial costs are measured directly, not as a ratio of two timings of
the realistic objective: that objective is an SVD that OpenBLAS may spread
over every core, so any other load on the machine moves such a ratio by more
than the overhead it is meant to show.  Here ``evaluate_many`` and a bare
``timed_call`` loop run the same ``N_CONFIGS`` configurations of a no-op
objective, in alternating turns (who goes first alternates too), best of
``N_REPEATS``; their difference over ``N_CONFIGS`` is the engine's cost per
trial.  The realistic trial time that the ceilings scale is the SVD loop's
best per-trial time in the same run.  The SVD ratios the gate used before are
still printed, without a gate.
"""

from __future__ import annotations

import time

import numpy as np

import repro.obs as obs
from repro.execution import EvaluationEngine
from repro.execution.engine import timed_call

N_CONFIGS = 3000
N_REPEATS = 7
N_TRIALS = 24
N_SVD_REPEATS = 5
DISABLED_OVERHEAD_CEILING = 0.03
ENABLED_OVERHEAD_CEILING = 0.15

_MATRIX = np.random.RandomState(0).rand(160, 160)


def _objective(config: dict) -> float:
    """~2 ms of deterministic numerical work, distinct per config."""
    return float(
        np.linalg.svd(_MATRIX + config["x"] * 1e-9, compute_uv=False)[0]
    )


def _noop(config: dict) -> float:
    return 0.0


def _configs(n: int) -> list[dict]:
    return [{"x": i} for i in range(n)]


def _time_raw_loop(objective, configs: list[dict]) -> float:
    started = time.perf_counter()
    for config in configs:
        timed_call(objective, config)
    return time.perf_counter() - started


def _time_evaluate_many(objective, configs: list[dict]) -> float:
    engine = EvaluationEngine(objective, backend="serial")
    started = time.perf_counter()
    engine.evaluate_many(configs)
    return time.perf_counter() - started


def _best_of(fn, *args, repeats: int) -> float:
    return min(fn(*args) for _ in range(repeats))


def _per_trial_cost() -> float:
    """Best-of ``evaluate_many`` minus best-of bare loop, per no-op trial."""
    configs = _configs(N_CONFIGS)
    raw, engine = [], []
    for turn in range(N_REPEATS):
        pair = (
            (raw, _time_raw_loop),
            (engine, _time_evaluate_many),
        )
        for times, fn in pair if turn % 2 == 0 else pair[::-1]:
            times.append(fn(_noop, configs))
    return (min(engine) - min(raw)) / N_CONFIGS


class TestObsOverhead:
    def test_disabled_and_enabled_overhead_floors(self, tmp_path, capsys):
        svd_configs = _configs(N_TRIALS)
        obs.disable()
        try:
            # Warm up numpy/the allocator so the first mode isn't penalised.
            _time_raw_loop(_objective, svd_configs)
            _per_trial_cost()

            t_raw = _best_of(_time_raw_loop, _objective, svd_configs, repeats=N_SVD_REPEATS)
            t_off = _best_of(
                _time_evaluate_many, _objective, svd_configs, repeats=N_SVD_REPEATS
            )
            cost_off = _per_trial_cost()

            obs.configure(tmp_path / "journal")
            assert obs.enabled()
            t_on = _best_of(
                _time_evaluate_many, _objective, svd_configs, repeats=N_SVD_REPEATS
            )
            cost_on = _per_trial_cost()
            events = obs.read_events(tmp_path / "journal")
        finally:
            obs.disable()

        trial_s = t_raw / N_TRIALS
        off_share = cost_off / trial_s
        extra_share = (cost_on - cost_off) / trial_s
        with capsys.disabled():
            print()
            print(f"SVD trial (bare timed_call)   {trial_s * 1e3:8.3f} ms")
            print(f"engine per trial, obs off     {cost_off * 1e6:8.2f} µs  ({off_share:.2%})")
            print(
                f"obs on adds per trial         {(cost_on - cost_off) * 1e6:8.2f} µs"
                f"  ({extra_share:.2%})"
            )
            print(
                f"SVD loop ratios (not gated)   off {t_off / t_raw:.3f}x raw, "
                f"on {t_on / t_off:.3f}x off"
            )

        # The enabled runs really traced: one batch span per evaluate_many
        # call and one trial event per config per call.
        spans = [e for e in events if e.get("type") == "span"]
        trials = [e for e in events if e.get("type") == "trial_finish"]
        assert len(spans) >= N_SVD_REPEATS + N_REPEATS
        assert len(trials) == N_TRIALS * N_SVD_REPEATS + N_CONFIGS * N_REPEATS

        assert off_share <= DISABLED_OVERHEAD_CEILING, (
            f"disabled tracing leaves the engine {cost_off * 1e6:.1f} µs a trial "
            f"over the raw loop, {off_share:.1%} of a {trial_s * 1e3:.2f} ms trial "
            f"(ceiling {DISABLED_OVERHEAD_CEILING:.0%})"
        )
        assert extra_share <= ENABLED_OVERHEAD_CEILING, (
            f"enabled tracing adds {(cost_on - cost_off) * 1e6:.1f} µs a trial, "
            f"{extra_share:.1%} of a {trial_s * 1e3:.2f} ms trial "
            f"(ceiling {ENABLED_OVERHEAD_CEILING:.0%})"
        )
