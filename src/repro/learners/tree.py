"""Decision-tree learners.

A single tree engine (:class:`DecisionTreeClassifier`) supports the
splitting criteria, feature subsampling and depth/size controls needed to
express the Weka tree family referenced by the paper's catalogue (Table IV):
``J48`` (C4.5, gain-ratio), ``SimpleCart`` (Gini), ``REPTree`` (reduced-error
style: information gain + strong size limits), ``RandomTree`` (random feature
subsets per split), ``BFTree`` (best-first expansion approximated by a node
budget) and ``DecisionStump`` (depth 1).

The fitting and prediction inner loops run on the vectorized kernels of
:mod:`repro.learners.kernels`: the stable per-feature sort orders are one
matrix computed once per fit (and shared by every member of a tree
ensemble) instead of re-sorting at every node, and prediction walks the
flattened tree arrays for a whole matrix at a time.  Trees grow in one loop
(:func:`_grow`) over a batch of trees: a lone tree or an AdaBoostM1 round is
a batch of one, and the members of RandomForest, ExtraTrees, Bagging and
RandomSubSpace grow :data:`LOCKSTEP_MEMBERS` at a time
(:func:`grow_members`).  Each step takes every growing tree's next node in
preorder, draws its candidate features from that tree's own RNG, and scores
all of the step's nodes in one kernel call, so every tree is the one the
historical node-by-node recursion built.  That recursion, frozen in
``tests/support/reference_learners.py``, is matched bit for bit
(``tests/learners/test_kernel_equivalence.py``) for gini at any class count
and for entropy and gain ratio below 8 classes; from 8 classes on the
recursion's entropy, a sum over the non-empty classes only, rounds
differently, and ``tests/learners/test_tree_golden.py`` pins those fits to a
fixture.
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


#: Ensemble members grown side by side: enough that a growth step's split
#: searches share one kernel call, few enough that the pending sort orders of
#: the members growing at once stay small.
LOCKSTEP_MEMBERS = 16


class _Growth:
    """One tree's growth state: its stack of pending nodes, RNG and counters.

    ``labels`` are the labels of the base rows, ``orders`` the tree's sorted
    rows (one row per tree feature) and ``features`` the row of the shared
    ``XT`` that holds each tree feature.  The stack yields nodes in preorder,
    the order the historical recursion built them in, so the tree's RNG draws
    and its ``max_nodes`` budget see the same sequence.
    """

    def __init__(
        self,
        tree: "DecisionTreeClassifier",
        labels: np.ndarray,
        orders: np.ndarray,
        features: np.ndarray,
    ) -> None:
        self.tree = tree
        self.labels = labels
        self.features = features
        self.n_classes = int(len(tree.classes_))
        self.rng = np.random.default_rng(tree.random_state)
        self.n_internal = 0
        self.root = _Node(prediction=None)
        self.stack = [(self.root, orders, 0)]
        self.pending: tuple | None = None  # the node whose search is out

    def next_search(self) -> kernels.SplitSearch | None:
        """Pop nodes until one needs a split search; ``None`` once grown.

        Every popped node gets its class distribution; a node that stops
        (pure, too small, too deep or over the node budget) stays a leaf.
        The candidate features are drawn here, from this tree's RNG.
        """
        tree = self.tree
        while self.stack:
            node, orders, depth = self.stack.pop()
            counts = np.bincount(self.labels[orders[0]], minlength=self.n_classes)
            distribution = counts.astype(np.float64)
            node.prediction = distribution / distribution.sum()
            if (
                np.count_nonzero(counts) <= 1
                or orders.shape[1] < tree.min_samples_split
                or (tree.max_depth is not None and depth >= tree.max_depth)
                or (tree.max_nodes is not None and self.n_internal >= tree.max_nodes)
            ):
                continue
            candidates = kernels.candidate_features(tree.max_features, orders.shape[0], self.rng)
            self.pending = node, orders, depth, candidates
            return kernels.SplitSearch(
                self.labels,
                orders[candidates],
                self.features[candidates],
                counts,
                tree._impurity(counts),
            )
        return None

    def split(self, XT: np.ndarray, split: tuple[int, float] | None) -> None:
        """Apply the pending search's result: split the node, or leave it a
        leaf when there is no valid split or one side would be empty."""
        if split is None:
            return
        node, orders, depth, candidates = self.pending
        candidate, threshold = split
        feature = int(candidates[candidate])
        # Base-level membership mask of the left child; node orders only hold
        # node members, so filtering by it partitions exactly this node.
        mask = XT[self.features[feature]] <= threshold
        node_mask = mask[orders[0]]
        if node_mask.all() or not node_mask.any():
            return
        self.n_internal += 1
        node.feature = feature
        node.threshold = threshold
        node.left = _Node(prediction=None)
        node.right = _Node(prediction=None)
        # Right below left, so the left subtree is grown first.
        self.stack.append((node.right, kernels.filter_orders(orders, ~mask), depth + 1))
        self.stack.append((node.left, kernels.filter_orders(orders, mask), depth + 1))

    def finish(self) -> None:
        self.tree.tree_ = self.root
        self.tree._flat = kernels.flatten_tree(self.root, self.n_classes)


def _grow(growths: list[_Growth], XT: np.ndarray) -> None:
    """Grow trees in lockstep, each bit for bit as if grown alone.

    Each step takes the next node needing a split search from every tree
    still growing and scores all of them in one
    :func:`kernels.best_split_classification` call.  The trees share ``XT``
    (features × base rows, C-contiguous) and their split hyperparameters:
    they are one tree, or members cloned from one base.
    """
    tree = growths[0].tree
    growing = growths
    while True:
        searches = [growth.next_search() for growth in growing]
        growing = [growth for growth, search in zip(growing, searches) if search is not None]
        if not growing:
            break
        splits = kernels.best_split_classification(
            XT,
            [search for search in searches if search is not None],
            tree.criterion,
            int(tree.min_samples_leaf),
            tree.min_impurity_decrease,
        )
        for growth, split in zip(growing, splits):
            growth.split(XT, split)
    for growth in growths:
        growth.finish()


def grow_members(
    members: list[tuple["DecisionTreeClassifier", np.ndarray | None, np.ndarray | None]],
    XT: np.ndarray,
    y: np.ndarray,
    orders: np.ndarray,
) -> None:
    """Fit an ensemble's member trees on its shared training data.

    ``XT`` is the ensemble's encoded training matrix transposed (features ×
    rows, C-contiguous), ``y`` its encoded labels and ``orders`` the sort
    orders of ``XT``'s rows, computed once per ensemble fit.  Each member is
    ``(tree, counts, features)``: ``counts[i]`` is how many times base row
    ``i`` appears in the member's sample (``None``: every row once), and
    ``features`` the columns the member sees (``None``: all), which stay rows
    of the shared ``XT``.  A member's ``classes_`` are the labels its sample
    holds, re-encoded to ``0..k-1`` — exactly what refitting on the
    materialised ``X[idx]``/``X[:, features]`` produced, missing classes
    included.  Members grow :data:`LOCKSTEP_MEMBERS` at a time.
    """
    for start in range(0, len(members), LOCKSTEP_MEMBERS):
        growths = []
        for tree, counts, features in members[start : start + LOCKSTEP_MEMBERS]:
            member_orders = orders if features is None else orders[features]
            if counts is not None:
                member_orders = kernels.expand_orders(member_orders, counts)
            tree.classes_ = np.unique(y[member_orders[0]])
            tree.n_features_in_ = member_orders.shape[0]
            labels = y
            if tree.classes_[-1] + 1 != len(tree.classes_):
                # Only sampled rows are ever read, so unsampled labels may map
                # anywhere.
                labels = np.searchsorted(tree.classes_, y)
            rows = np.arange(XT.shape[0]) if features is None else features
            growths.append(_Growth(tree, labels, member_orders, rows))
        _grow(growths, XT)


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

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # Per-feature stable sort orders, computed once per fit and filtered
        # down to every node — no node ever sorts again.
        XT = np.ascontiguousarray(X.T)
        _grow([_Growth(self, y, kernels.feature_orders(X), np.arange(X.shape[1]))], XT)

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
