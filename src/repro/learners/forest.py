"""Forest-style ensembles: RandomForest and ExtraTrees analogues."""

from __future__ import annotations

import numpy as np

from . import kernels
from .base import BaseClassifier, check_is_fitted, export_labels
from .tree import DecisionTreeClassifier, RandomTree, grow_members

__all__ = ["RandomForest", "ExtraTrees"]


class RandomForest(BaseClassifier):
    """Bagged ensemble of :class:`RandomTree` learners with feature subsampling.

    Parameters mirror the knobs Weka's ``RandomForest`` exposes: number of
    trees, per-split feature count and maximum depth.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_features: int | str | None = "sqrt",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.random_state = random_state

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return RandomTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        # Every member's seed and bootstrap are drawn first, in the order the
        # member-by-member loop drew them; the members then grow in lockstep.
        members = []
        for _ in range(int(self.n_estimators)):
            seed = int(rng.integers(0, 2**31 - 1))
            counts = None
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                # Guarantee every class appears in the bootstrap sample so the
                # member tree predicts over the full label set.
                for label in range(len(self.classes_)):
                    if not np.any(y[idx] == label):
                        labelled = np.flatnonzero(y == label)
                        idx[rng.integers(0, n)] = labelled[rng.integers(0, len(labelled))]
                counts = np.bincount(idx, minlength=n)
            members.append((self._make_tree(seed), counts, None))
        # The per-feature stable sort orders are computed ONCE per forest and
        # shared by every member: each tree expands them by its bootstrap
        # multiplicities instead of re-sorting its sampled matrix at every
        # node.  Split scores only read cumulative label counts at value-run
        # boundaries, which are permutation invariant, so the fitted members
        # are identical to refitting on the materialised ``X[idx]``.
        grow_members(members, np.ascontiguousarray(X.T), y, kernels.feature_orders(X))
        self.estimators_: list[DecisionTreeClassifier] = [tree for tree, _, _ in members]

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.estimators_:
            proba = tree.predict_proba(X)
            for local_index, label in enumerate(tree.classes_):
                votes[:, int(label)] += proba[:, local_index]
        return votes / len(self.estimators_)

    def export_params(self) -> dict:
        check_is_fitted(self)
        trees = []
        for tree in self.estimators_:
            member = tree.export_params()
            # Member trees were fitted on already-encoded labels; their local
            # classes_ are the vote indices into the forest's outer classes.
            trees.append(
                {
                    "tree": member["tree"],
                    "classes": [int(label) for label in tree.classes_],
                }
            )
        return {
            "kind": "forest",
            "trees": trees,
            "classes": export_labels(self.classes_),
        }


class ExtraTrees(RandomForest):
    """Extremely-randomised variant: no bootstrap, deeper random trees.

    Stands in for the "Extremely randomized trees" comparisons cited by the
    paper's corpus (Geurts et al.).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_features: int | str | None = "sqrt",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            n_estimators=n_estimators,
            max_features=max_features,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            bootstrap=False,
            random_state=random_state,
        )
