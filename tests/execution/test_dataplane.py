"""The engine's zero-copy data plane.

The process backend must ship each dataset/fold payload to each worker at most
once per (dataset, fold-plan) — via the pool initializer — while per-trial
submits pickle only the light config machinery.  ``EngineStats`` accounts for
both sides: ``data_plane_payloads`` counts blocks seeded into the pool and
``data_plane_hits`` counts trials whose worker re-bound the payload from its
process-local registry instead of receiving it in the submit.
"""

import pickle

import numpy as np
import pytest

from repro.execution import EvaluationEngine, estimator_engine
from repro.execution import dataplane
from repro.execution.objectives import CrossValObjective
from repro.learners import default_registry


class TreeBuilder:
    """Module-level (hence picklable) config -> estimator factory."""

    def __call__(self, config):
        return default_registry().get("J48").build(config)


def _configs(n: int, seed: int = 0) -> list[dict]:
    space = default_registry().get("J48").space
    rng = np.random.default_rng(seed)
    return [space.sample(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Fingerprint + registry primitives
# ---------------------------------------------------------------------------

def test_fingerprint_is_content_addressed():
    X = np.arange(12, dtype=np.float64).reshape(4, 3)
    y = np.array([0, 1, 0, 1])
    key = dataplane.fingerprint({"X": X, "y": y})
    assert key == dataplane.fingerprint({"X": X.copy(), "y": y.copy()})
    X2 = X.copy()
    X2[0, 0] += 1.0
    assert key != dataplane.fingerprint({"X": X2, "y": y})
    # dtype participates: same bytes under a different view must not collide.
    assert key != dataplane.fingerprint({"X": X.astype(np.float32), "y": y})


def test_fingerprint_handles_object_matrices():
    X = np.array([["a", 1.5], [None, 2.5]], dtype=object)
    key = dataplane.fingerprint({"X": X})
    assert key == dataplane.fingerprint({"X": X.copy()})
    X2 = X.copy()
    X2[0, 0] = "b"
    assert key != dataplane.fingerprint({"X": X2})


def test_register_and_local_block_roundtrip():
    arrays = {"X": np.ones((2, 2)), "y": np.zeros(2)}
    key = dataplane.fingerprint(arrays)
    try:
        assert dataplane.local_block(key) is None
        dataplane.register(key, arrays)
        assert dataplane.local_block(key) is arrays
        assert key in dataplane.registered_keys()
    finally:
        dataplane._LOCAL.pop(key, None)


# ---------------------------------------------------------------------------
# Objective pickling: heavy vs light
# ---------------------------------------------------------------------------

def test_detached_pickle_drops_the_matrices(simple_xy):
    X, y = simple_xy
    objective = CrossValObjective(TreeBuilder(), X, y, cv=3, random_state=0)
    heavy = len(pickle.dumps(objective))
    objective.detach_payload = True
    light = len(pickle.dumps(objective))
    payload = sum(len(pickle.dumps(a)) for a in objective.payload().values())
    assert light < heavy - payload // 2  # the matrices really left the pickle
    clone = pickle.loads(pickle.dumps(objective))
    assert clone._X is None and clone._y is None
    assert clone.plane_attached is False


def test_unseeded_detached_copy_raises_instead_of_recomputing(simple_xy):
    X, y = simple_xy
    objective = CrossValObjective(TreeBuilder(), X, y, cv=3, random_state=0)
    objective.detach_payload = True
    clone = pickle.loads(pickle.dumps(objective))
    with pytest.raises(RuntimeError, match="not registered"):
        clone({})


def test_seeded_detached_copy_rebinds_and_reports_attachment(simple_xy):
    X, y = simple_xy
    objective = CrossValObjective(TreeBuilder(), X, y, cv=3, random_state=0)
    objective.detach_payload = True
    clone = pickle.loads(pickle.dumps(objective))
    try:
        dataplane.register(objective.data_key, objective.payload())
        score = clone(_configs(1)[0])
        assert np.isfinite(score)
        assert clone.plane_attached is True
        # Re-pickling a bound copy stays light and resets the flag.
        again = pickle.loads(pickle.dumps(clone))
        assert again._X is None and again.plane_attached is False
    finally:
        dataplane._LOCAL.pop(objective.data_key, None)


# ---------------------------------------------------------------------------
# End-to-end through the engine's process backend
# ---------------------------------------------------------------------------

def test_process_backend_ships_payload_once_and_scores_identically(simple_xy):
    X, y = simple_xy
    configs = _configs(6)

    serial = estimator_engine(
        TreeBuilder(), X, y, cv=3, random_state=0, name="dp-serial"
    )
    serial_scores = [o.score for o in serial.evaluate_many(configs)]

    parallel = estimator_engine(
        TreeBuilder(), X, y, cv=3, random_state=0,
        n_workers=2, backend="process", name="dp-process",
    )
    with parallel:
        parallel_scores = [o.score for o in parallel.evaluate_many(configs)]
        stats = parallel.stats
        assert parallel.backend == "process"  # no silent thread fallback
        assert serial_scores == parallel_scores  # bit-identical, not approx
        # One payload block seeded via the pool initializer; every executed
        # trial re-bound it worker-locally — no submit carried dataset bytes.
        assert stats.data_plane_payloads == 1
        assert stats.data_plane_hits == stats.n_executions == len(configs)

        # A second batch reuses the pool: the payload is NOT shipped again.
        more = _configs(4, seed=1)
        parallel.evaluate_many(more)
        stats = parallel.stats
        assert stats.data_plane_payloads == 1
        assert stats.data_plane_hits == stats.n_executions

    as_dict = parallel.stats.as_dict()
    assert as_dict["data_plane_payloads"] == 1
    assert as_dict["data_plane_hits"] == parallel.stats.n_executions


def test_serial_engine_never_activates_the_plane(simple_xy):
    X, y = simple_xy
    engine = estimator_engine(TreeBuilder(), X, y, cv=3, random_state=0)
    engine.evaluate_many(_configs(3))
    stats = engine.stats
    assert stats.data_plane_payloads == 0
    assert stats.data_plane_hits == 0
    assert "data_plane_payloads" not in stats.as_dict()
    assert engine.objective.detach_payload is False


def test_plane_blocks_requires_the_objective_protocol(simple_xy):
    X, y = simple_xy

    def closure_objective(config):  # no data_key/payload/detach_payload
        return 0.0

    engine = EvaluationEngine(closure_objective, n_workers=2, backend="thread")
    assert engine._plane_blocks() is None
    cv = CrossValObjective(TreeBuilder(), X, y, cv=3, random_state=0)
    plane = EvaluationEngine(cv, n_workers=2, backend="process")
    blocks = plane._plane_blocks()
    assert blocks is not None and set(blocks) == {cv.data_key}
