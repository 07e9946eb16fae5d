"""The unified trial-execution engine.

Every configuration score in this reproduction — the paper's ``f(λ, A, D)``
— used to be computed through ad-hoc closures calling cross-validation
serially.  :class:`EvaluationEngine` is the single execution path shared by
the HPO optimizers, the UDR, the corpus generator and the CASH baselines.
It provides

* **memoization** — a config-fingerprint cache with hit/miss statistics, so
  GA elites, BO incumbent perturbations and selector probes are never paid
  for twice (:mod:`repro.execution.cache`);
* **batch evaluation** — :meth:`EvaluationEngine.evaluate_many` evaluates a
  list of configurations with optional thread/process parallelism via
  :mod:`concurrent.futures`, returning outcomes in deterministic input
  order regardless of completion order;
* **centralized budget enforcement** — every evaluation (including cache
  hits, which are still logical evaluations) is recorded against the
  :class:`~repro.execution.budget.Budget`; batches stop scheduling work the
  moment the budget is exhausted, and skipped items come back as ``None``;
* **crash accounting** — objectives that raise score ``crash_score`` (the
  HPO convention is ``-inf``, the table-building convention is ``0.0``)
  instead of aborting the search, and the engine counts them.

Parallel batches are *replay-equivalent* to serial ones: a batch is always
fully scheduled before its scores are consumed, so GA generations, BO
initial designs and grid sweeps produce identical trajectories at any worker
count (given a fixed ``random_state``).
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .. import obs
from . import dataplane
from .budget import Budget
from .cache import EvaluationCache, config_fingerprint
from .store import ResultStore, fingerprint_key

__all__ = [
    "EvalOutcome",
    "EngineStats",
    "EvaluationEngine",
    "timed_call",
    "pool_timed_call",
]

_BACKENDS = ("serial", "thread", "process")


def timed_call(objective: Callable[[dict], float], config: dict) -> tuple[float | None, float, str | None]:
    """Run one objective call, returning ``(score, elapsed, error)``.

    Module-level so the process backend can pickle it; exceptions are
    converted to an error string because the engine treats crashes as data.
    The :class:`~repro.execution.coordinator.WorkCoordinator` shares this
    exact call path so distributed cells score identically to engine cells.
    """
    start = time.monotonic()
    try:
        score = float(objective(config))
        return score, time.monotonic() - start, None
    except Exception as exc:  # noqa: BLE001 — crash accounting, not control flow
        return None, time.monotonic() - start, repr(exc)


def pool_timed_call(
    objective: Callable[[dict], float], config: dict, header: str | None
) -> tuple[float | None, float, str | None, bool]:
    """:func:`timed_call` in a pool worker, plus a data-plane flag (4-tuple).

    Pool workers — thread pools do not inherit contextvars, process pools not
    even memory — re-establish the submitting batch's span from ``header``
    (passed only while tracing) and record their own ``engine.trial`` child
    span, so per-trial work lands in the trace tree under ``evaluate_many``.
    The final element reports whether the objective re-bound its dataset
    payload from the worker-local registry — i.e. the submit pickled only the
    light config machinery and no dataset bytes crossed the process boundary.
    The parent counts it into ``EngineStats.data_plane_hits``.  Module-level
    so the process backend can pickle it.
    """
    if header is None:
        result = timed_call(objective, config)
    else:
        with obs.attach(obs.parse_header(header)):
            with obs.span("engine.trial"):
                result = timed_call(objective, config)
    return (*result, bool(getattr(objective, "plane_attached", False)))


@dataclass
class EvalOutcome:
    """Result of evaluating one configuration through the engine."""

    config: dict[str, Any]
    score: float
    elapsed: float = 0.0
    cached: bool = False
    error: str | None = None

    @property
    def crashed(self) -> bool:
        return self.error is not None


@dataclass
class EngineStats:
    """Counters the engine accumulates across its lifetime."""

    n_executions: int = 0  # real objective calls
    n_cache_hits: int = 0
    n_store_hits: int = 0  # subset of cache hits served from the result store
    n_crashes: int = 0
    n_batches: int = 0
    largest_batch: int = 0
    objective_time: float = 0.0  # summed per-evaluation wall time
    wall_time: float = 0.0  # engine-side wall time spent evaluating
    last_error: str | None = None
    backend: str = "serial"
    requested_backend: str = "serial"
    n_workers: int = 1
    crash_classes: dict[str, int] = field(default_factory=dict)
    # Data-plane accounting (process backend): payload blocks registered with
    # the pool initializer (shipped at most once per worker spawn) and trials
    # whose submit carried no dataset bytes because the worker re-bound its
    # payload from the process-local registry.
    data_plane_payloads: int = 0
    data_plane_hits: int = 0

    @property
    def n_evaluations(self) -> int:
        """Logical evaluations served (executions + cache hits)."""
        return self.n_executions + self.n_cache_hits

    @property
    def hit_rate(self) -> float:
        total = self.n_evaluations
        return self.n_cache_hits / total if total else 0.0

    @property
    def evals_per_second(self) -> float:
        return self.n_evaluations / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Summed objective time over engine wall time (>1 ⇒ parallel/cached win)."""
        return self.objective_time / self.wall_time if self.wall_time > 0 else 1.0

    def as_dict(self) -> dict:
        out = {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "n_evaluations": self.n_evaluations,
            "n_executions": self.n_executions,
            "n_cache_hits": self.n_cache_hits,
            "n_store_hits": self.n_store_hits,
            "cache_hit_rate": round(self.hit_rate, 4),
            "n_crashes": self.n_crashes,
            "crash_taxonomy": dict(self.crash_classes),
            "n_batches": self.n_batches,
            "largest_batch": self.largest_batch,
            "objective_time": round(self.objective_time, 4),
            "wall_time": round(self.wall_time, 4),
            "evals_per_second": round(self.evals_per_second, 2),
            "parallel_speedup": round(self.parallel_speedup, 2),
        }
        if self.data_plane_payloads:
            out["data_plane_payloads"] = self.data_plane_payloads
            out["data_plane_hits"] = self.data_plane_hits
        if self.backend != self.requested_backend:
            out["backend_fallback_from"] = self.requested_backend
        return out


class EvaluationEngine:
    """Cached, parallel, budget-aware executor for one objective function.

    Parameters
    ----------
    objective:
        The black-box ``f(config) -> float`` being maximised.
    cache:
        Memoize scores by configuration fingerprint (default on).  Cache hits
        still count as evaluations against the budget, so search trajectories
        are identical with and without the cache — only cheaper.
    n_workers / backend:
        ``backend="thread"``/``"process"`` with ``n_workers > 1`` evaluates
        batches concurrently; ``"serial"`` (or ``n_workers=1``) runs inline.
        The process backend requires a picklable objective and falls back to
        threads otherwise.
    crash_score:
        Score assigned to configurations whose evaluation raises.
    store / store_context / warm_start:
        An optional :class:`~repro.execution.store.ResultStore` makes results
        durable across runs.  With a store, every real execution is persisted
        (write-through, exactly one line per fingerprint); ``store_context``
        names the shard (defaults to ``name`` — callers should fold the
        dataset/objective identity into it).  ``warm_start=True`` additionally
        serves memory-cache misses from the store, so a repeat run replays a
        prior run's scores without paying for the objective.  Store hits
        count as cache hits (and against the budget), which keeps search
        trajectories identical to a cold run — only faster.
    """

    def __init__(
        self,
        objective: Callable[[dict[str, Any]], float],
        *,
        cache: bool = True,
        n_workers: int = 1,
        backend: str = "thread",
        crash_score: float = float("-inf"),
        name: str = "engine",
        store: ResultStore | None = None,
        store_context: str | None = None,
        warm_start: bool = False,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.objective = objective
        self.use_cache = cache
        self.n_workers = n_workers
        self.requested_backend = backend
        self.backend = self._resolve_backend(backend, n_workers, objective)
        self.crash_score = float(crash_score)
        self.name = name
        self.store = store
        self.store_context = store_context if store_context is not None else name
        self.warm_start = bool(warm_start) and store is not None
        self.cache = EvaluationCache()
        self._stats = EngineStats(
            backend=self.backend,
            requested_backend=backend if n_workers > 1 else self.backend,
            n_workers=self.n_workers,
        )
        self._executor: Executor | None = None

    @staticmethod
    def _resolve_backend(backend: str, n_workers: int, objective: Callable) -> str:
        if n_workers == 1:
            return "serial"
        if backend == "process":
            try:
                pickle.dumps(objective)
            except Exception as exc:  # noqa: BLE001 — probe, not control flow
                # Closures over datasets are not picklable; threads still help
                # because numpy releases the GIL during the heavy linear algebra.
                obs.error_event("engine.pickle_probe", exc)
                return "thread"
        return backend

    # -- introspection -----------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        return self._stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvaluationEngine(name={self.name!r}, backend={self.backend!r}, "
            f"n_workers={self.n_workers}, evaluations={self._stats.n_evaluations})"
        )

    # -- seeding -----------------------------------------------------------------------
    def seed(self, config: dict[str, Any], score: float) -> None:
        """Pre-populate the cache with an externally obtained score."""
        self.cache.store(config_fingerprint(config), float(score))

    def cached_score(self, config: dict[str, Any]) -> float | None:
        """Peek at the cached score for ``config`` without counting a hit."""
        return self.cache.peek(config_fingerprint(config))

    def warm_start_configs(self, k: int = 5) -> list[dict[str, Any]]:
        """The k best prior-run configurations stored for this engine's context.

        Empty without a store; optimizers use this to seed their initial
        designs (see ``BaseOptimizer``).
        """
        if self.store is None:
            return []
        return [config for config, _ in self.store.top_k(self.store_context, k)]

    def _lookup(self, fingerprint: tuple) -> float | None:
        """Two-tier lookup: memory cache first, then (if warm-start) the store.

        A store hit is promoted into the memory cache so subsequent repeats
        stay in-process; callers count the returned hit against
        ``n_cache_hits`` exactly like a memory hit.
        """
        hit = self.cache.lookup(fingerprint)
        if hit is not None:
            return hit
        if self.warm_start and self.store is not None:
            score = self.store.get(self.store_context, fingerprint)
            if score is not None:
                self.cache.store(fingerprint, score)
                self._stats.n_store_hits += 1
                return score
        return None

    # -- single evaluation ----------------------------------------------------------------
    def evaluate(
        self,
        config: dict[str, Any],
        *,
        budget: Budget | None = None,
        use_cache: bool | None = None,
    ) -> EvalOutcome:
        """Evaluate one configuration, recording it against ``budget``.

        ``use_cache=False`` forces a real objective call (the selector's cost
        probe needs genuine timings) but still stores the result for reuse.
        """
        read_cache = self.use_cache if use_cache is None else use_cache
        fingerprint = config_fingerprint(config)
        t0 = time.monotonic()
        if budget is not None:
            budget.record_evaluation()
        if read_cache:
            hit = self._lookup(fingerprint)
            if hit is not None:
                self._stats.n_cache_hits += 1
                self._stats.wall_time += time.monotonic() - t0
                self._emit_cached(fingerprint, hit)
                return EvalOutcome(config=dict(config), score=hit, cached=True)
        outcome = self._execute(config, fingerprint)
        self._stats.wall_time += time.monotonic() - t0
        return outcome

    def _execute(self, config: dict[str, Any], fingerprint: tuple) -> EvalOutcome:
        score, elapsed, error = timed_call(self.objective, config)
        return self._record_execution(config, fingerprint, score, elapsed, error)

    def _record_execution(
        self,
        config: dict[str, Any],
        fingerprint: tuple,
        score: float | None,
        elapsed: float,
        error: str | None,
    ) -> EvalOutcome:
        self._stats.n_executions += 1
        self._stats.objective_time += elapsed
        exc_class: str | None = None
        if error is not None:
            self._stats.n_crashes += 1
            self._stats.last_error = error
            # ``error`` is repr(exc) — "ValueError('bad')" — so the class
            # name is the prefix before the first parenthesis.
            exc_class = error.partition("(")[0].rpartition(".")[2] or "Exception"
            self._stats.crash_classes[exc_class] = (
                self._stats.crash_classes.get(exc_class, 0) + 1
            )
            score = self.crash_score
        # Crashes are cached too: re-proposing a known-bad configuration
        # should not pay for the crash twice.
        self.cache.store(fingerprint, float(score))
        if self.store is not None:
            # Write-through; ResultStore.put is idempotent and swallows I/O
            # errors, so persistence can never break or duplicate a search.
            self.store.put(
                self.store_context, fingerprint, float(score), config=config
            )
        if obs.enabled():
            fields = {
                "engine": self.name,
                "key": fingerprint_key(fingerprint),
                "status": "crashed" if error is not None else "ok",
                "score": float(score),
                "elapsed": round(elapsed, 6),
                "cached": False,
            }
            if exc_class is not None:
                fields["exc_class"] = exc_class
            obs.emit("trial_finish", **fields)
        return EvalOutcome(
            config=dict(config), score=float(score), elapsed=elapsed, error=error
        )

    def _emit_cached(self, fingerprint: tuple, score: float) -> None:
        """Cache hits are trials too: record their status when tracing."""
        if obs.enabled():
            obs.emit(
                "trial_finish",
                engine=self.name,
                key=fingerprint_key(fingerprint),
                status="cached",
                score=float(score),
                cached=True,
            )

    # -- batch evaluation ----------------------------------------------------------------
    def evaluate_many(
        self,
        configs: Iterable[dict[str, Any]],
        *,
        budget: Budget | None = None,
        use_cache: bool | None = None,
    ) -> list[EvalOutcome | None]:
        """Evaluate a batch; returns outcomes aligned with the input order.

        Configurations the budget cannot afford are skipped and come back as
        ``None`` (always a suffix of the batch, since items are scheduled in
        order).  Duplicate configurations within a batch execute once and
        share the result.  With ``n_workers > 1`` the distinct configurations
        of each scheduling wave run concurrently.
        """
        read_cache = self.use_cache if use_cache is None else use_cache
        configs = [dict(config) for config in configs]
        outcomes: list[EvalOutcome | None] = [None] * len(configs)
        t0 = time.monotonic()
        # tracer().span is a no-op singleton when tracing is off, so the
        # disabled path costs one attribute check per *batch*, not per trial.
        tr = obs.tracer()
        with tr.span(
            "engine.evaluate_many",
            attrs={
                "engine": self.name,
                "n_configs": len(configs),
                "backend": self.backend,
            },
        ):
            executor = self._get_executor(len(configs))
            index = 0
            while index < len(configs):
                if budget is not None and budget.exhausted():
                    break
                index = self._run_wave(
                    configs, outcomes, index, budget, read_cache, executor
                )
        self._stats.n_batches += 1
        self._stats.largest_batch = max(self._stats.largest_batch, len(configs))
        self._stats.wall_time += time.monotonic() - t0
        return outcomes

    def _get_executor(self, batch_size: int) -> Executor | None:
        """Lazily created, reused across batches — pool startup (worker spawn,
        objective pickling) is paid once per engine, not once per GA
        generation.  :meth:`close` releases it."""
        if self.backend == "serial" or self.n_workers == 1 or batch_size <= 1:
            return None
        if self._executor is None:
            if self.backend == "process":
                blocks = self._plane_blocks()
                if blocks:
                    # Zero-copy data plane: the payload rides the pool
                    # initializer (pickled once per spawned worker); every
                    # per-trial submit afterwards pickles the objective
                    # *without* its matrices.
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.n_workers,
                        initializer=dataplane.seed_worker,
                        initargs=(blocks,),
                    )
                    self.objective.detach_payload = True
                    self._stats.data_plane_payloads += len(blocks)
                else:
                    self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
            else:
                self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        return self._executor

    def _plane_blocks(self) -> dict[str, dict] | None:
        """The objective's data-plane payload, if it participates.

        An objective opts in by exposing ``data_key``/``payload()`` and a
        ``detach_payload`` switch (see
        :class:`~repro.execution.objectives.CrossValObjective`).
        """
        obj = self.objective
        if (
            hasattr(obj, "data_key")
            and hasattr(obj, "payload")
            and hasattr(obj, "detach_payload")
        ):
            return {obj.data_key: obj.payload()}
        return None

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial engines)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
        except Exception as exc:  # noqa: BLE001 — teardown must stay silent
            obs.error_event("engine.del", exc)

    def _run_wave(
        self,
        configs: list[dict[str, Any]],
        outcomes: list[EvalOutcome | None],
        start: int,
        budget: Budget | None,
        read_cache: bool,
        executor: Executor | None,
    ) -> int:
        """Schedule up to ``n_workers`` distinct pending configs from ``start``.

        Cache hits and in-batch duplicates are resolved inline (they cost no
        worker); the budget is charged per scheduled item, in input order, so
        exhaustion cuts the batch at a deterministic point.  Returns the index
        of the first unscheduled configuration.
        """
        trace_on = obs.enabled()
        wave: list[tuple[int, tuple]] = []
        wave_by_fp: dict[tuple, int] = {}
        duplicates: list[tuple[int, tuple]] = []
        index = start
        while index < len(configs) and len(wave) < self.n_workers:
            if budget is not None and budget.exhausted():
                break
            config = configs[index]
            fingerprint = config_fingerprint(config)
            if budget is not None:
                budget.record_evaluation()
            if read_cache:
                hit = self._lookup(fingerprint)
                if hit is not None:
                    self._stats.n_cache_hits += 1
                    outcomes[index] = EvalOutcome(config=config, score=hit, cached=True)
                    if trace_on:
                        self._emit_cached(fingerprint, hit)
                    index += 1
                    continue
            if fingerprint in wave_by_fp:
                duplicates.append((index, fingerprint))
                self._stats.n_cache_hits += 1
                index += 1
                continue
            wave.append((index, fingerprint))
            wave_by_fp[fingerprint] = index
            index += 1

        if executor is None:
            executed = [timed_call(self.objective, configs[i]) for i, _ in wave]
        else:
            # Pool workers do not inherit the batch span's contextvar, so
            # when tracing is on the trial call re-attaches it from a header.
            header = obs.trace_header() if trace_on else None
            futures = [
                executor.submit(pool_timed_call, self.objective, configs[i], header)
                for i, _ in wave
            ]
            executed = []
            for future in futures:
                score, elapsed, error, plane_hit = future.result()
                self._stats.data_plane_hits += plane_hit
                executed.append((score, elapsed, error))
        for (i, fingerprint), (score, elapsed, error) in zip(wave, executed):
            outcomes[i] = self._record_execution(
                configs[i], fingerprint, score, elapsed, error
            )
        for i, fingerprint in duplicates:
            score = self.cache.peek(fingerprint)
            outcomes[i] = EvalOutcome(
                config=configs[i],
                score=self.crash_score if score is None else score,
                cached=True,
            )
            if trace_on:
                self._emit_cached(fingerprint, outcomes[i].score)
        return index
