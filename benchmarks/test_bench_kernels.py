"""Benchmark: vectorized learner kernels vs the frozen pre-kernel loops.

Measures the three tentpole speedups of the kernel layer — tree fit, forest
fit and batch kNN predict — against the verbatim pre-kernel implementations
preserved in ``tests/support/reference_learners.py``, asserting
**score-identical outputs in the same run** (the equivalence suite proves
bit-identity on more datasets; here it gates the timing so a fast-but-wrong
kernel can never pass).
Rule fit (vectorized condition scoring) and Bagging fit (members on shared
sort orders) are measured and recorded the same way, outputs asserted
identical, without a floor.  Each kernel and its reference are timed in
alternating turns, best-of-N on both sides, so machine load slows both.

Also quantifies the engine data plane's dispatch saving: per-trial submits
must pickle the objective *without* its matrices, and every process-backend
trial must re-bind the payload from its worker-local registry.

Each run writes its measurements to the git-ignored
``.benchmarks/BENCH_kernels.json``; the committed
``benchmarks/BENCH_kernels.json`` is a snapshot of one such run, refreshed by
hand when the kernels change.
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path

import numpy as np

from repro.evaluation import format_table
from repro.execution import estimator_engine
from repro.learners import default_registry
from repro.learners.ensemble import Bagging
from repro.learners.forest import RandomForest
from repro.learners.lazy import IBk
from repro.learners.rules import JRip
from repro.learners.tree import DecisionTreeClassifier

from reference_learners import (
    ReferenceBagging,
    ReferenceDecisionTree,
    ReferenceIBk,
    ReferenceJRip,
    ReferenceRandomForest,
)

#: Per-run output; ``benchmarks/BENCH_kernels.json`` is the committed snapshot.
SNAPSHOT = Path(__file__).resolve().parents[1] / ".benchmarks" / "BENCH_kernels.json"

#: Floors enforced on every run (ISSUE 10 acceptance): the kernels must be at
#: least this much faster than the frozen loops on the same data.
MIN_SPEEDUP = 5.0


def _blobs(seed: int, n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, d))
    y = rng.integers(0, k, size=n)
    X = centers[y] + rng.normal(size=(n, d))
    return X, y


def _race(kernel, reference, repeats: int = 3) -> tuple[float, float]:
    """Best-of-``repeats`` seconds of ``kernel`` and of ``reference``, timed
    in alternating turns (who goes first alternates too), so a load spike
    lands on both sides instead of skewing one of them."""
    best = [np.inf, np.inf]
    sides = [kernel, reference]
    for turn in range(repeats):
        for side in (0, 1) if turn % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            sides[side]()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def _update_snapshot(section: str, payload: dict) -> None:
    data = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}
    data[section] = payload
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_bench_kernel_speedups():
    rows = []
    snapshot: dict[str, dict] = {}

    # -- tree fit: cumulative-bincount split search vs per-node Python loop --
    X, y = _blobs(0, 1500, 10, 4)
    Xq, _ = _blobs(9, 800, 10, 4)
    live_tree = DecisionTreeClassifier(criterion="gain_ratio", random_state=0)
    ref_tree = ReferenceDecisionTree(criterion="gain_ratio", random_state=0)
    live_t, ref_t = _race(lambda: live_tree.fit(X, y), lambda: ref_tree.fit(X, y), repeats=2)
    assert np.array_equal(live_tree.predict_proba(Xq), ref_tree.predict_proba(Xq))
    snapshot["tree_fit"] = {"kernel_s": live_t, "reference_s": ref_t}
    rows.append({"kernel": "tree fit (1500x10)", "reference s": ref_t,
                 "kernel s": live_t, "speedup": ref_t / live_t})

    # -- forest fit: shared per-dataset sort orders vs per-member re-sorts --
    X, y = _blobs(1, 800, 10, 3)
    Xq, _ = _blobs(8, 400, 10, 3)
    live_rf = RandomForest(n_estimators=8, random_state=0)
    ref_rf = ReferenceRandomForest(n_estimators=8, random_state=0)
    live_f, ref_f = _race(lambda: live_rf.fit(X, y), lambda: ref_rf.fit(X, y), repeats=2)
    assert np.array_equal(live_rf.predict_proba(Xq), ref_rf.predict_proba(Xq))
    snapshot["forest_fit"] = {"kernel_s": live_f, "reference_s": ref_f}
    rows.append({"kernel": "forest fit (800x10, 8 trees)", "reference s": ref_f,
                 "kernel s": live_f, "speedup": ref_f / live_f})

    # -- kNN batch predict: flattened bincount vote vs per-row Python loop --
    X, y = _blobs(2, 120, 12, 5)
    Xq, _ = _blobs(7, 6000, 12, 5)
    live_knn = IBk(n_neighbors=50, weighting="distance").fit(X, y)
    ref_knn = ReferenceIBk(n_neighbors=50, weighting="distance").fit(X, y)
    live_k, ref_k = _race(
        lambda: live_knn.predict_proba(Xq), lambda: ref_knn.predict_proba(Xq), repeats=7
    )
    assert np.array_equal(live_knn.predict_proba(Xq), ref_knn.predict_proba(Xq))
    snapshot["knn_predict"] = {"kernel_s": live_k, "reference_s": ref_k}
    rows.append({"kernel": "kNN predict (6000 queries)", "reference s": ref_k,
                 "kernel s": live_k, "speedup": ref_k / live_k})

    # -- rule fit: one array pass per feature block vs a percentile call per
    #    (feature, quantile) and a mask per candidate condition (no floor) --
    X, y = _blobs(4, 600, 12, 4)
    Xq, _ = _blobs(6, 300, 12, 4)
    live_rules = JRip()
    ref_rules = ReferenceJRip()
    live_r, ref_r = _race(lambda: live_rules.fit(X, y), lambda: ref_rules.fit(X, y))
    assert [(r.conditions, r.label) for r in live_rules.rules_] == [
        (r.conditions, r.label) for r in ref_rules.rules_
    ]
    assert np.array_equal(live_rules.predict_proba(Xq), ref_rules.predict_proba(Xq))
    snapshot["rule_fit"] = {"kernel_s": live_r, "reference_s": ref_r}
    recorded = [{"kernel": "JRip fit (600x12)", "reference s": ref_r,
                 "kernel s": live_r, "speedup": ref_r / live_r}]

    # -- Bagging fit: members on the ensemble's shared sort orders vs a
    #    validated, re-sorted X[idx] per member (no floor) --
    X, y = _blobs(5, 800, 10, 3)
    Xq, _ = _blobs(7, 400, 10, 3)
    live_bag = Bagging(n_estimators=10, random_state=0)
    ref_bag = ReferenceBagging(n_estimators=10, random_state=0)
    live_b, ref_b = _race(lambda: live_bag.fit(X, y), lambda: ref_bag.fit(X, y))
    assert np.array_equal(live_bag.predict_proba(Xq), ref_bag.predict_proba(Xq))
    snapshot["bagging_fit"] = {"kernel_s": live_b, "reference_s": ref_b}
    recorded.append({"kernel": "Bagging fit (800x10, 10 trees)", "reference s": ref_b,
                     "kernel s": live_b, "speedup": ref_b / live_b})

    for name, section in snapshot.items():
        section["speedup"] = section["reference_s"] / section["kernel_s"]
    _update_snapshot("speedups", snapshot)

    print()
    print(format_table(rows + recorded, title="Learner kernels vs frozen pre-kernel loops"))

    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['kernel']}: {row['speedup']:.1f}x < required {MIN_SPEEDUP}x"
        )


class _Builder:
    """Picklable config -> estimator factory for the dispatch bench."""

    def __call__(self, config):
        return default_registry().get("J48").build(config)


def test_bench_dispatch_overhead():
    """Process-backend dispatch: per-trial submits carry no dataset bytes.

    The data plane ships each fold-matrix payload at most once per worker (via
    the pool initializer); afterwards the pickled objective shrinks to config
    machinery only, and every executed trial reports a worker-local re-bind
    through ``EngineStats.data_plane_hits``.
    """
    X, y = _blobs(3, 2000, 20, 3)
    space = default_registry().get("J48").space
    rng = np.random.default_rng(0)
    configs = [space.sample(rng) for _ in range(8)]

    engine = estimator_engine(
        _Builder(), X, y, cv=3, random_state=0,
        n_workers=2, backend="process", name="bench-dispatch",
    )
    heavy = len(pickle.dumps(engine.objective))
    payload = sum(len(pickle.dumps(a)) for a in engine.objective.payload().values())
    with engine:
        engine.evaluate_many(configs)
        light = len(pickle.dumps(engine.objective))  # detached once pool is up
        stats = engine.stats
    assert engine.backend == "process"
    assert stats.data_plane_payloads == 1
    assert stats.data_plane_hits == stats.n_executions == len(configs)
    # Detaching must remove essentially the whole dataset payload (what stays
    # is config machinery: fold index arrays, scorer, builder).
    assert heavy - light > 0.9 * payload

    saved = (heavy - light) * (stats.n_executions - 1)
    _update_snapshot("dispatch", {
        "heavy_pickle_bytes": heavy,
        "light_pickle_bytes": light,
        "trials": stats.n_executions,
        "payload_bytes_saved": saved,
    })
    print()
    print(format_table(
        [{"objective pickle": "with matrices", "bytes": heavy},
         {"objective pickle": "data-plane detached", "bytes": light}],
        title=f"Dispatch payload per trial (saved {saved} bytes over the batch)",
    ))
