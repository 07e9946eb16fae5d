"""Decision-tree learners.

A single recursive tree engine (:class:`DecisionTreeClassifier`) supports the
splitting criteria, feature subsampling and depth/size controls needed to
express the Weka tree family referenced by the paper's catalogue (Table IV):
``J48`` (C4.5, gain-ratio), ``SimpleCart`` (Gini), ``REPTree`` (reduced-error
style: information gain + strong size limits), ``RandomTree`` (random feature
subsets per split), ``BFTree`` (best-first expansion approximated by a node
budget) and ``DecisionStump`` (depth 1).

The fitting and prediction inner loops run on the vectorized kernels of
:mod:`repro.learners.kernels`: the stable per-feature sort orders are one
matrix computed once per fit (and shared by every member of a tree
ensemble) instead of re-sorting at every node, each node scores every
candidate feature's thresholds in one cumulative-count pass, and prediction
walks the flattened tree arrays for a whole matrix at a time.  A direct fit
and an ensemble member fit share one growth path (:meth:`_grow`).  Results
are identical to the historical pure-Python implementation (frozen in
``tests/support/reference_learners.py`` and pinned by
``tests/learners/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .base import BaseClassifier, check_is_fitted, export_labels

__all__ = [
    "DecisionTreeClassifier",
    "J48",
    "SimpleCart",
    "REPTree",
    "RandomTree",
    "BFTree",
    "DecisionStump",
]


@dataclass
class _Node:
    """A node of the fitted tree; leaves carry a class distribution."""

    prediction: np.ndarray
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


class DecisionTreeClassifier(BaseClassifier):
    """CART/C4.5-style binary decision tree over numeric features.

    Parameters
    ----------
    criterion:
        ``"gini"``, ``"entropy"`` (information gain) or ``"gain_ratio"``.
    max_depth:
        Maximum tree depth; ``None`` means unbounded.
    min_samples_split / min_samples_leaf:
        Pre-pruning size thresholds.
    max_features:
        ``None`` (all), ``"sqrt"``, ``"log2"`` or an int — the number of
        candidate features examined at each split (RandomTree behaviour).
    max_nodes:
        Optional cap on the number of internal nodes (best-first style limit).
    min_impurity_decrease:
        Minimum impurity improvement required to accept a split.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        max_nodes: int | None = None,
        min_impurity_decrease: float = 0.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_nodes = max_nodes
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state

    # -- fitting -----------------------------------------------------------------
    def _impurity(self, counts: np.ndarray) -> float:
        if self.criterion == "gini":
            return _gini(counts)
        return _entropy(counts)

    def _best_split(
        self,
        XT: np.ndarray,
        y: np.ndarray,
        orders: np.ndarray,
        counts: np.ndarray,
        impurity: float,
        rng: np.random.Generator,
    ) -> tuple[int, float, float] | None:
        """Return ``(feature, threshold, impurity_decrease)`` or ``None``.

        ``orders`` holds the node's sample ids in stable sorted order, one row
        per feature, and ``counts``/``impurity`` are the node's own, computed
        once by :meth:`_build`.  The kernel scores every candidate feature's
        thresholds in one pass; no ``argsort`` happens here.  Feature
        candidates are drawn with the same RNG calls as the historical
        per-node loop; ties keep the earliest feature and earliest position.
        """
        return kernels.best_split_classification(
            XT,
            y,
            orders,
            kernels.candidate_features(self.max_features, XT.shape[0], rng),
            counts,
            impurity,
            self.criterion,
            int(self.min_samples_leaf),
            self.min_impurity_decrease,
        )

    def _build(
        self,
        XT: np.ndarray,
        y: np.ndarray,
        orders: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> _Node:
        counts = np.bincount(y[orders[0]], minlength=self._n_classes)
        distribution = counts.astype(np.float64)
        node = _Node(prediction=distribution / distribution.sum())
        if (
            np.count_nonzero(counts) <= 1
            or orders.shape[1] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or (self.max_nodes is not None and self._n_internal >= self.max_nodes)
        ):
            return node
        split = self._best_split(XT, y, orders, counts, self._impurity(counts), rng)
        if split is None:
            return node
        feature, threshold, _ = split
        # Base-level membership mask of the left child; node orders only hold
        # node members, so filtering by it partitions exactly this node.
        mask = XT[feature] <= threshold
        node_mask = mask[orders[0]]
        if node_mask.all() or not node_mask.any():
            return node
        self._n_internal += 1
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(XT, y, kernels.filter_orders(orders, mask), depth + 1, rng)
        node.right = self._build(XT, y, kernels.filter_orders(orders, ~mask), depth + 1, rng)
        return node

    def _grow(self, XT: np.ndarray, y: np.ndarray, orders: np.ndarray) -> None:
        """The one growth path: ``_fit`` and ensemble members both end here."""
        self._n_classes = int(len(self.classes_))
        self._n_internal = 0
        rng = np.random.default_rng(self.random_state)
        self.tree_ = self._build(XT, y, orders, depth=0, rng=rng)
        self._flat = kernels.flatten_tree(self.tree_, self._n_classes)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # Per-feature stable sort orders, computed once per fit and filtered
        # down the recursion — no node ever sorts again.
        self._grow(np.ascontiguousarray(X.T), y, kernels.feature_orders(X))

    def _fit_from_base(
        self,
        XT: np.ndarray,
        y: np.ndarray,
        orders: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> "DecisionTreeClassifier":
        """Ensemble member fast path: fit on a multiset of pre-validated rows.

        ``XT`` is the ensemble's encoded training matrix transposed (features
        × rows), ``y`` its encoded labels and ``orders`` the sort orders of
        ``XT``'s rows, computed once per ensemble fit.  ``counts[i]`` is how
        many times base row ``i`` appears in this member's sample (``None``:
        every row once).  The member's ``classes_`` are the labels its sample
        holds, re-encoded to ``0..k-1`` — exactly what refitting on the
        materialised ``X[idx]``/``y[idx]`` produced, missing classes included.
        """
        if counts is not None:
            orders = kernels.expand_orders(orders, counts)
        self.classes_ = np.unique(y[orders[0]])
        self.n_features_in_ = XT.shape[0]
        if self.classes_[-1] + 1 != len(self.classes_):
            # Only sampled rows are ever read, so unsampled labels may map
            # anywhere.
            y = np.searchsorted(self.classes_, y)
        self._grow(XT, y, orders)
        return self

    # -- prediction ----------------------------------------------------------------
    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        leaves = kernels.flat_predict_indices(self._flat, X)
        return self._flat.prediction[leaves]

    def export_params(self) -> dict:
        check_is_fitted(self)

        def _export_node(node: _Node) -> dict:
            if node.is_leaf:
                return {"prediction": node.prediction.tolist()}
            return {
                "prediction": node.prediction.tolist(),
                "feature": int(node.feature),
                "threshold": float(node.threshold),
                "left": _export_node(node.left),
                "right": _export_node(node.right),
            }

        return {
            "kind": "tree",
            "tree": _export_node(self.tree_),
            "classes": export_labels(self.classes_),
        }

    # -- introspection ---------------------------------------------------------------
    def depth(self) -> int:
        """Return the depth of the fitted tree (0 for a single leaf)."""

        def _depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.tree_)

    def n_leaves(self) -> int:
        """Return the number of leaves of the fitted tree."""

        def _count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return _count(node.left) + _count(node.right)

        return _count(self.tree_)


class J48(DecisionTreeClassifier):
    """C4.5-style tree: gain-ratio splits with a confidence-like leaf floor."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
        min_impurity_decrease: float = 0.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="gain_ratio",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            random_state=random_state,
        )


class SimpleCart(DecisionTreeClassifier):
    """CART-style tree: Gini splits, moderate pre-pruning."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
        min_impurity_decrease: float = 0.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="gini",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            random_state=random_state,
        )


class REPTree(DecisionTreeClassifier):
    """Reduced-error-pruning style tree: aggressive size limits for low variance."""

    def __init__(
        self,
        max_depth: int | None = 8,
        min_samples_leaf: int = 4,
        min_samples_split: int = 8,
        min_impurity_decrease: float = 1e-4,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="entropy",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            random_state=random_state,
        )


class RandomTree(DecisionTreeClassifier):
    """Unpruned tree that examines a random feature subset at each split."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="entropy",
            max_depth=max_depth,
            min_samples_split=2,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=random_state,
        )


class BFTree(DecisionTreeClassifier):
    """Best-first tree approximated with a cap on the number of internal nodes."""

    def __init__(
        self,
        max_nodes: int = 32,
        min_samples_leaf: int = 2,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            criterion="gini",
            max_nodes=max_nodes,
            min_samples_split=4,
            min_samples_leaf=min_samples_leaf,
            random_state=random_state,
        )


class DecisionStump(DecisionTreeClassifier):
    """Single-split decision stump (depth 1)."""

    def __init__(self, criterion: str = "entropy", random_state: int | None = None) -> None:
        super().__init__(
            criterion=criterion,
            max_depth=1,
            min_samples_split=2,
            min_samples_leaf=1,
            random_state=random_state,
        )
