"""Golden fits: the tree learners and tree ensembles at 8–30 classes.

``tests/learners/test_kernel_equivalence.py`` compares the split-search kernel
with the frozen per-node loops of ``tests/support/reference_learners.py`` on at
most 4 classes.  From 8 classes on the two legitimately round differently:
the reference's ``_entropy`` sums only the non-empty classes, the kernel sums
the whole class axis, and numpy's pairwise summation groups 8 or more terms
differently from fewer.  So the many-class fits are pinned here against
``tests/fixtures/tree_fits_many_classes.json`` instead, which the node-at-a-time
recursive growth wrote (one kernel call per node, class axis last).  Never
regenerate the fixture from the code under test: it exists to show that a
change to the growth loop or the kernel keeps every bit of every fit.

A fit's record holds ``export_params()`` and ``classes_`` (per member for the
ensembles without an exporter, with AdaBoostM1's weights and RandomSubSpace's
subspaces).  The fixture keeps the SHA-256 of each record's canonical JSON
text (the records themselves are about 0.9 MB), so a float that moved by one
ulp, or a zero that flipped its sign, fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.learners.ensemble import AdaBoostM1, Bagging, RandomSubSpace
from repro.learners.forest import RandomForest
from repro.learners.tree import DecisionStump, J48, REPTree, RandomTree, SimpleCart

GOLDEN_FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "tree_fits_many_classes.json"

#: (seed, rows, features, classes) of each dataset.
DATASETS = {
    "k8": (0, 150, 6, 8),
    "k15": (1, 180, 6, 15),
    "k30": (2, 210, 5, 30),
}

LEARNERS = {
    "J48": lambda: J48(random_state=0),
    "SimpleCart": lambda: SimpleCart(random_state=0),
    "REPTree": lambda: REPTree(random_state=0),
    "RandomTree": lambda: RandomTree(random_state=4),
    "DecisionStump": lambda: DecisionStump(),
    "RandomForest": lambda: RandomForest(n_estimators=4, random_state=1),
    "Bagging": lambda: Bagging(n_estimators=3, max_samples=0.5, random_state=2),
    "RandomSubSpace": lambda: RandomSubSpace(n_estimators=3, random_state=3),
    "AdaBoostM1": lambda: AdaBoostM1(n_estimators=5, random_state=5),
}


def many_classes(seed: int, n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantised features (long runs of equal values) and ``k`` labels that
    follow them loosely, every class present at least twice."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)) * 2.0) / 2.0
    score = X[:, 0] + 0.5 * X[:, 1] - 0.3 * X[:, 2] + rng.normal(scale=0.6, size=n)
    y = np.searchsorted(np.quantile(score, np.linspace(0, 1, k + 1)[1:-1]), score)
    y[: 2 * k] = np.repeat(np.arange(k), 2)
    return X, y


def snapshot(model) -> dict:
    """JSON-able record of a fitted model: its export, or its members'."""
    record: dict = {"classes": np.asarray(model.classes_).tolist()}
    if hasattr(model, "export_params"):
        record["export"] = model.export_params()
        return record
    record["members"] = [
        {"classes": member.classes_.tolist(), "export": member.export_params()}
        for member in model.estimators_
    ]
    if hasattr(model, "estimator_weights_"):
        record["estimator_weights"] = list(model.estimator_weights_)
    if hasattr(model, "subspaces_"):
        record["subspaces"] = [features.tolist() for features in model.subspaces_]
    return record


def digest(record: dict) -> str:
    """SHA-256 of ``record`` as canonical JSON (floats in shortest repr)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def expected() -> dict[str, str]:
    return json.loads(GOLDEN_FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(
        f"{data}/{name}" for data in DATASETS for name in LEARNERS
    )


@pytest.mark.parametrize("data_name", sorted(DATASETS))
@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_fit_matches_the_golden_fixture(expected, data_name, name):
    X, y = many_classes(*DATASETS[data_name])
    assert digest(snapshot(LEARNERS[name]().fit(X, y))) == expected[f"{data_name}/{name}"]
