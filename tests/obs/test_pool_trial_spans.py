"""Trial spans from pool workers, and the one call every pool trial runs.

Pool workers share no context with the engine: each trial re-attaches the
batch's trace from the header it was submitted with.  Process workers share
no memory either, and re-bind their dataset from the worker-local registry
instead of receiving it in the submit.
"""

import os
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.execution import estimator_engine
from repro.execution.engine import pool_timed_call
from repro.learners import default_registry


@pytest.fixture(autouse=True)
def _isolated_obs():
    obs.disable()
    yield
    obs.disable()


class TreeBuilder:
    """Module-level (hence picklable) config -> estimator factory."""

    def __call__(self, config):
        return default_registry().get("J48").build(config)


def _spans(journal, name):
    return [
        event for event in obs.read_events(journal)
        if event.get("type") == "span" and event.get("name") == name
    ]


def test_traced_process_trials_parent_under_the_batch_span(tmp_path, simple_xy):
    X, y = simple_xy
    journal = tmp_path / "j"
    obs.configure(journal)
    space = default_registry().get("J48").space
    rng = np.random.default_rng(0)
    configs = [space.sample(rng) for _ in range(4)]
    engine = estimator_engine(
        TreeBuilder(), X, y, cv=3, random_state=0,
        n_workers=2, backend="process", name="traced-process",
    )
    with engine:
        with obs.span("search") as root:
            engine.evaluate_many(configs)
        stats = engine.stats
    assert engine.backend == "process"
    assert stats.n_executions >= 2

    (batch,) = _spans(journal, "engine.evaluate_many")
    assert batch["parent_id"] == root.span_id
    trials = _spans(journal, "engine.trial")
    assert len(trials) == stats.n_executions
    for trial in trials:
        assert trial["trace_id"] == root.trace_id
        assert trial["parent_id"] == batch["span_id"]
        assert trial["pid"] != os.getpid()  # recorded inside a pool worker
    assert stats.data_plane_payloads == 1
    assert stats.data_plane_hits == stats.n_executions


def _double(config):
    return 2.0 * config["x"]


def _crash(config):
    raise ValueError(f"bad x={config['x']}")


class _PlaneObjective:
    """Stands in for a CV objective that re-bound its data in a worker."""

    plane_attached = True

    def __call__(self, config):
        return float(config["x"])


def test_pool_call_without_a_header_records_no_span(tmp_path):
    journal = tmp_path / "j"
    obs.configure(journal)
    score, elapsed, error, plane_hit = pool_timed_call(_double, {"x": 3}, None)
    assert (score, error, plane_hit) == (6.0, None, False)
    assert elapsed >= 0.0
    assert _spans(journal, "engine.trial") == []


def test_pool_call_with_a_header_records_a_child_trial_span(tmp_path):
    journal = tmp_path / "j"
    obs.configure(journal)
    with obs.span("batch") as batch:
        header = obs.trace_header()
    # Run where the batch span is not active, as a pool thread would.
    result = []
    worker = threading.Thread(
        target=lambda: result.append(pool_timed_call(_double, {"x": 2}, header))
    )
    worker.start()
    worker.join()
    assert result[0][0] == 4.0
    (trial,) = _spans(journal, "engine.trial")
    assert trial["trace_id"] == batch.trace_id
    assert trial["parent_id"] == batch.span_id


def test_pool_call_reports_a_crash_and_the_plane_flag():
    score, _elapsed, error, plane_hit = pool_timed_call(_crash, {"x": 1}, None)
    assert score is None
    assert error == repr(ValueError("bad x=1"))
    assert plane_hit is False
    assert pool_timed_call(_PlaneObjective(), {"x": 5}, None)[::3] == (5.0, True)


def test_traced_thread_trials_parent_under_the_batch_span(tmp_path, simple_xy):
    X, y = simple_xy
    journal = tmp_path / "j"
    obs.configure(journal)
    space = default_registry().get("J48").space
    rng = np.random.default_rng(1)
    configs = [space.sample(rng) for _ in range(4)]
    engine = estimator_engine(
        TreeBuilder(), X, y, cv=3, random_state=0,
        n_workers=2, backend="thread", name="traced-thread",
    )
    with engine:
        with obs.span("search") as root:
            engine.evaluate_many(configs)
        stats = engine.stats
    assert engine.backend == "thread"
    assert stats.n_executions >= 2

    (batch,) = _spans(journal, "engine.evaluate_many")
    assert batch["parent_id"] == root.span_id
    trials = _spans(journal, "engine.trial")
    assert len(trials) == stats.n_executions
    for trial in trials:
        assert trial["parent_id"] == batch["span_id"]
        assert trial["pid"] == os.getpid()
    # Threads share the engine's memory: there is no data plane to ride.
    assert stats.data_plane_payloads == 0
    assert stats.data_plane_hits == 0
