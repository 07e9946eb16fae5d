"""Ensemble members grown in lockstep: one split-search call per growth step.

``repro.learners.tree.grow_members`` grows up to ``LOCKSTEP_MEMBERS`` member
trees side by side and scores each step's node searches in one
``kernels.best_split_classification`` call.  Every member must still be the
tree it would be grown alone — same RNG draws, same splits, same ``classes_``.
"""

import numpy as np
import pytest

from repro.learners import kernels, tree
from repro.learners.ensemble import Bagging, RandomSubSpace
from repro.learners.forest import RandomForest
from repro.learners.tree import DecisionTreeClassifier, RandomTree


def _data(seed=0, n=200, d=6, k=3):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)) * 2.0) / 2.0
    y = np.clip((X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 0.5).astype(int), 0, k - 1)
    return X, y


def _small_classes(seed=4, n=60, d=4, k=6):
    # Six classes of ten rows: small bootstraps miss one class or another,
    # so members with the same class count re-encode their labels
    # differently, and a step must not score one with another's labels.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.argsort(np.argsort(X[:, 0] + 0.3 * X[:, 1])) * k // n
    return X, y


def _mixed_encodings(model) -> bool:
    seen = {}
    for member in model.estimators_:
        seen.setdefault(len(member.classes_), set()).add(tuple(member.classes_))
    return any(len(encodings) > 1 for encodings in seen.values())


def _n_nodes(member) -> int:
    return 2 * member.n_leaves() - 1


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(kernels, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, name, counted)
    return calls


def test_forest_makes_one_kernel_call_per_lockstep_step(monkeypatch):
    X, y = _data()
    calls = _count_calls(monkeypatch, "best_split_classification")
    forest = RandomForest(n_estimators=48, random_state=0).fit(X, y)
    batches = [len(args[1]) for args in calls]
    deepest = max(_n_nodes(member) for member in forest.estimators_)
    # 48 members grow in 3 waves of 16; each step pops at most one node per
    # member, so a wave makes at most one call per node of its largest member.
    assert max(batches) == tree.LOCKSTEP_MEMBERS == 16
    assert len(calls) <= 3 * deepest
    # Node by node, every internal node of every member made its own call.
    assert len(calls) < sum(member.n_leaves() - 1 for member in forest.estimators_)


def _members(model):
    return [(m.classes_.tolist(), m.export_params()) for m in model.estimators_]


@pytest.mark.parametrize(
    "make, data, check",
    [
        (
            lambda: Bagging(
                n_estimators=16,
                max_samples=0.25,
                base_estimator=DecisionTreeClassifier(criterion="entropy"),
                random_state=0,
            ),
            _small_classes,
            _mixed_encodings,
        ),
        (
            lambda: RandomSubSpace(
                n_estimators=18, base_estimator=RandomTree(random_state=3), random_state=1
            ),
            _data,
            lambda model: all(len(f) < 6 for f in model.subspaces_),
        ),
    ],
    ids=["bagging-members-miss-classes", "subspace-members"],
)
def test_members_grown_in_lockstep_equal_members_grown_alone(monkeypatch, make, data, check):
    X, y = data()
    together = make().fit(X, y)
    assert check(together), "the case does not exercise its path"
    monkeypatch.setattr(tree, "LOCKSTEP_MEMBERS", 1)
    alone = make().fit(X, y)
    assert _members(together) == _members(alone)
    assert np.array_equal(together.predict_proba(X), alone.predict_proba(X))


def test_a_step_split_across_blocks_leaves_members_unchanged(monkeypatch):
    X, y = _data()
    monkeypatch.setattr(tree, "LOCKSTEP_MEMBERS", 1)
    alone = RandomForest(n_estimators=16, random_state=5).fit(X, y)
    monkeypatch.setattr(tree, "LOCKSTEP_MEMBERS", 16)
    # Room for about one root candidate per block: every step spans blocks,
    # and some members' candidates are cut between two of them.
    monkeypatch.setattr(kernels, "DEFAULT_CHUNK_ELEMENTS", 2 * X.shape[0] * 3 + 7)
    calls = _count_calls(monkeypatch, "best_split_classification")
    blocks = _count_calls(monkeypatch, "_score_block")
    blocked = RandomForest(n_estimators=16, random_state=5).fit(X, y)
    assert len(blocks) > 2 * len(calls)
    assert _members(blocked) == _members(alone)
