"""Vectorized numpy kernels shared by the learner catalogue.

The paper's headline claim is about *trials per wall-clock second*: Auto-Model
wins under a time budget because it spends its seconds tuning one good
algorithm.  That makes the learners' inner loops the hottest code in the whole
system — every CV fold of every trial of every optimizer runs them, and the
offline build scores every catalogue learner on every knowledge dataset.
This module collects those loops as array kernels:

* **Node-level split search** (:func:`best_split_classification`) — one call
  per tree node scores every candidate feature's thresholds at once: one-hot
  label counts are cumulatively summed along each feature's sort order into a
  ``(side, feature, position, class)`` block, so the impurity of every
  candidate split is one vectorized pass (feature blocks bounded by
  :data:`DEFAULT_CHUNK_ELEMENTS`).  The trees' nodes hold ≤ a few hundred
  rows, so the saving is numpy's per-call overhead, paid once per node
  instead of once per (node, feature).  :func:`best_split_regression` keeps
  the per-feature prefix-sum scan.
* **Sort-order matrices** (:func:`feature_orders`, :func:`filter_orders`,
  :func:`expand_orders`) — a fit's stable per-feature sort orders are one
  ``(features, rows)`` int matrix, computed once per fit (once per *ensemble*,
  shared by every member tree of RandomForest, Bagging, RandomSubSpace and
  AdaBoostM1) and then filtered to a child or expanded by bootstrap counts in
  single array operations; no node ever calls ``argsort`` again.  Filtering a
  stable full-dataset order by a membership mask yields exactly the stable
  argsort of the subset, so splits are bit-identical to per-node sorting.
* **Flat tree inference** (:class:`FlatTree`, :func:`flat_predict_indices`) —
  fitted trees are flattened into feature/threshold/child arrays and a whole
  matrix is walked iteratively, level by level, replacing the per-row
  ``_predict_row`` walk + ``np.vstack``.  The layout mirrors the export
  interpreter's array form (``repro.export``), which proved the approach.
* **Distance kernels** (:func:`pairwise_sq_distances`, :func:`query_chunks`,
  :func:`knn_vote`) — batched neighbour search with *chunked* pairwise
  distances so a large predict never materialises an ``O(n·m)`` float64
  intermediate at once, plus per-row class voting via one flattened
  ``bincount`` (accumulation order matches the historical per-row loop, so
  scores are identical).  :func:`query_chunks` also cuts the split search's
  and the rule learners' candidate features into blocks.

Every kernel is gated on score-identical results versus the frozen
implementations in ``tests/support/reference_learners.py`` — see
``tests/learners/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "feature_orders",
    "filter_orders",
    "expand_orders",
    "candidate_features",
    "best_split_classification",
    "best_split_regression",
    "FlatTree",
    "flatten_tree",
    "flat_predict_indices",
    "pairwise_sq_distances",
    "query_chunks",
    "knn_vote",
    "DEFAULT_CHUNK_ELEMENTS",
]

#: Upper bound on the number of elements a chunked pass (distances, split
#: search, rule scoring) materialises per array (~32 MB of float64).  Tests
#: shrink it to force multi-chunk paths.
DEFAULT_CHUNK_ELEMENTS = 4_000_000


# ---------------------------------------------------------------------------
# Sort-order management
# ---------------------------------------------------------------------------

def feature_orders(X: np.ndarray) -> np.ndarray:
    """Stable per-feature sort orders of ``X`` as one ``(features, rows)`` matrix.

    Row ``j`` is ``np.argsort(X[:, j], kind="stable")``.  Computed once per fit
    (once per ensemble, shared by every member) and then only filtered or
    expanded, never re-sorted.
    """
    return np.argsort(X.T, axis=1, kind="stable")


def filter_orders(orders: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Restrict every feature order to the rows where ``keep`` is True.

    ``keep`` is indexed by the *base-row ids stored in the orders*.  Every row
    of ``orders`` holds the same multiset of ids, so each keeps the same count
    and one boolean gather reshapes back to a matrix.  Because the parent
    orders are stable, the filtered rows are exactly the stable argsort of the
    surviving rows — equal feature values keep their original relative order.
    """
    return orders[keep[orders]].reshape(orders.shape[0], -1)


def expand_orders(orders: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Expand base-row orders by bootstrap multiplicity ``counts``.

    Rows with ``counts[i] == 0`` drop out; rows drawn ``c`` times appear ``c``
    times consecutively.  Within a run of equal feature values the resulting
    permutation can differ from a stable sort of the materialised bootstrap
    matrix (base order vs draw order), but split scores only ever inspect
    cumulative label counts at run *boundaries*, which are permutation
    invariant — so the chosen splits, and therefore the fitted tree, are
    identical.
    """
    flat = orders.ravel()
    return np.repeat(flat, counts[flat]).reshape(orders.shape[0], -1)


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

def candidate_features(
    max_features: int | str | None, n_features: int, rng: np.random.Generator
) -> np.ndarray:
    """The features one tree node searches: all of them, or a random subset.

    ``max_features`` is ``None`` (all), ``"sqrt"``, ``"log2"`` or a count.  A
    subset is exactly one ``rng.choice`` draw without replacement: a seeded
    tree's later draws, and so its splits, depend on that call sequence.
    """
    if max_features is None:
        k = n_features
    elif max_features == "sqrt":
        k = max(1, int(np.sqrt(n_features)))
    elif max_features == "log2":
        k = max(1, int(np.log2(n_features)) if n_features > 1 else 1)
    else:
        k = max(1, min(int(max_features), n_features))
    if k >= n_features:
        return np.arange(n_features)
    return rng.choice(n_features, size=k, replace=False)


def _impurity_matrix(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of every candidate split side, reduced over the class axis.

    ``counts`` is ``(side, feature, position, class)`` with side 0 the left
    and side 1 the right of each split; ``totals`` is ``(side, position)``.
    Replicates the scalar helpers of :mod:`repro.learners.tree` operation for
    operation — ``gini``: ``1 - Σ (c/t)²``; ``entropy``: ``-Σ p·log2(p)`` over
    the positive entries.  Empty classes take ``log2(1) = 0``, so their terms
    are the exact ``0.0`` the scalar helper skips.
    """
    p = counts / totals[:, None, :, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    return -(p * np.log2(np.where(counts > 0, p, 1.0))).sum(axis=-1)


def best_split_classification(
    XT: np.ndarray,
    y: np.ndarray,
    orders: np.ndarray,
    features: np.ndarray,
    parent_counts: np.ndarray,
    parent_impurity: float,
    criterion: str,
    min_samples_leaf: int,
    min_impurity_decrease: float,
) -> tuple[int, float, float] | None:
    """Best ``(feature, threshold, decrease)`` over a node's candidate features.

    ``XT`` is the training matrix transposed (features × base rows), ``y`` the
    base-row labels and ``orders`` the node's ``(features, n)`` sorted member
    ids.  Every candidate feature's thresholds are scored in one cumulative
    one-hot count pass over a ``(2, features, n - 1, classes)`` block of
    left/right counts; blocks are sized by :data:`DEFAULT_CHUNK_ELEMENTS`.
    The winner is the first maximum in (candidate order, position) order —
    the historical per-feature loop's strict ``score > best`` rule, which
    keeps the earliest feature and the earliest position among equal scores.
    Returns ``None`` when no position is a valid split.
    """
    n = orders.shape[1]
    if n < 2:
        return None
    n_classes = parent_counts.shape[0]
    sizes = np.empty((2, n - 1))  # samples left / right of each position
    sizes[0] = np.arange(1, n)
    np.subtract(n, sizes[0], out=sizes[1])
    n_left, n_right = sizes
    allowed = None
    if min_samples_leaf > 1:
        allowed = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        if not allowed.any():
            return None
    if criterion == "gain_ratio":
        p_left = n_left / n
        p_right = n_right / n
        split_info = -(p_left * np.log2(p_left) + p_right * np.log2(p_right))
    classes = np.arange(n_classes)
    best: tuple[int, float, float] | None = None
    best_score = -np.inf
    for block in query_chunks(len(features), 2 * n * n_classes):
        feats = features[block]
        rows = orders[feats]
        values = XT[feats[:, None], rows]
        valid = values[:, :-1] != values[:, 1:]
        if allowed is not None:
            valid &= allowed
        if not valid.any():
            continue
        # Cumulative one-hot label counts: the left side of position i holds
        # sorted samples 0..i, exactly the historical loop's ``left_counts``.
        counts = np.empty((2, len(feats), n - 1, n_classes))
        np.cumsum(y[rows[:, :-1], None] == classes, axis=1, dtype=np.float64, out=counts[0])
        np.subtract(parent_counts, counts[0], out=counts[1])
        impurity = _impurity_matrix(counts, sizes, criterion)
        decrease = parent_impurity - (n_left * impurity[0] + n_right * impurity[1]) / n
        if criterion == "gain_ratio":
            score = np.where(split_info > 0, decrease / split_info, 0.0)
        else:
            score = decrease
        valid &= decrease > min_impurity_decrease
        masked = np.where(valid, score, -np.inf)
        f, i = divmod(int(masked.argmax()), n - 1)  # first maximum, row-major
        if masked[f, i] > best_score:  # strict: earlier blocks win ties
            best_score = masked[f, i]
            threshold = float((values[f, i] + values[f, i + 1]) / 2.0)
            best = (int(feats[f]), threshold, float(decrease[f, i]))
    return best


def best_split_regression(
    xs: np.ndarray,
    ys: np.ndarray,
    min_samples_leaf: int,
    best_sse: float,
) -> tuple[float, float] | None:
    """Best variance-reduction threshold on one feature (vectorized prefix sums).

    Returns ``(sse, threshold)`` for the first position strictly better than
    ``best_sse``, or ``None`` — the same ``sse < best`` / first-of-equals rule
    as the historical loop.
    """
    n = xs.shape[0]
    min_leaf = max(1, int(min_samples_leaf))
    if n - 2 * min_leaf < 0:
        return None
    csum = np.cumsum(ys)
    csum_sq = np.cumsum(ys**2)
    total, total_sq = csum[-1], csum_sq[-1]
    # Candidate left sizes i in [min_leaf, n - min_leaf], positions i-1 of the
    # prefix arrays; a position is splittable only across distinct values.
    i = np.arange(min_leaf, n - min_leaf + 1)
    valid = xs[i - 1] != xs[np.minimum(i, n - 1)]
    if not valid.any():
        return None
    left_sum, left_sq = csum[i - 1], csum_sq[i - 1]
    right_sum, right_sq = total - left_sum, total_sq - left_sq
    left_term = left_sum * left_sum / i
    right_term = right_sum * right_sum / (n - i)
    sse = (left_sq - left_term) + (right_sq - right_term)
    masked = np.where(valid, sse, np.inf)
    # The historical loop squared ``left_sum``/``right_sum`` as np.float64
    # *scalars*, whose ``**2`` routes through libm pow and can differ by one
    # ulp from the correctly-rounded product the array sweep uses.  After
    # cancellation that ulp can flip a near-tie, so re-score every candidate
    # within the propagated-rounding band of the sweep minimum with the
    # loop's exact scalar expression and pick the first exact minimum.
    tol = 8.0 * (
        np.spacing(np.abs(left_sq) + np.abs(left_term))
        + np.spacing(np.abs(right_sq) + np.abs(right_term))
    )
    band = masked.min() + 2.0 * float(np.where(valid, tol, 0.0).max())
    best_exact = np.inf
    best_pos = -1
    for j in np.flatnonzero(valid & (masked <= band)):
        pos = int(i[j])
        ls, lq = csum[pos - 1], csum_sq[pos - 1]
        rs, rq = total - ls, total_sq - lq
        exact = (lq - ls**2 / pos) + (rq - rs**2 / (n - pos))
        if exact < best_exact:  # strict: earliest position wins exact ties
            best_exact = float(exact)
            best_pos = pos
    if not best_exact < best_sse:
        return None
    return best_exact, float((xs[best_pos - 1] + xs[best_pos]) / 2.0)


# ---------------------------------------------------------------------------
# Flat tree inference
# ---------------------------------------------------------------------------

@dataclass
class FlatTree:
    """A fitted binary tree flattened into arrays for batch inference.

    ``feature[i] < 0`` marks node ``i`` as a leaf; ``prediction[i]`` is the
    leaf payload (a class distribution row, or a 1-vector for regression).
    The layout is the array twin of the export interpreter's node walk.
    """

    feature: np.ndarray  # int64, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64 child indices
    right: np.ndarray
    prediction: np.ndarray  # (n_nodes, n_outputs) float64


def flatten_tree(root, n_outputs: int) -> FlatTree:
    """Flatten a ``_Node``-style tree (``feature``/``threshold``/``left``/
    ``right``/``prediction`` attributes) into a :class:`FlatTree`."""
    nodes: list = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.feature is not None:
            stack.append(node.right)
            stack.append(node.left)
    index = {id(node): i for i, node in enumerate(nodes)}
    n = len(nodes)
    feature = np.full(n, -1, dtype=np.int64)
    threshold = np.zeros(n, dtype=np.float64)
    left = np.zeros(n, dtype=np.int64)
    right = np.zeros(n, dtype=np.int64)
    prediction = np.zeros((n, n_outputs), dtype=np.float64)
    for i, node in enumerate(nodes):
        prediction[i] = node.prediction
        if node.feature is not None:
            feature[i] = node.feature
            threshold[i] = node.threshold
            left[i] = index[id(node.left)]
            right[i] = index[id(node.right)]
    return FlatTree(feature, threshold, left, right, prediction)


def flat_predict_indices(flat: FlatTree, X: np.ndarray) -> np.ndarray:
    """Leaf index reached by every row of ``X`` — an iterative batch walk.

    Each pass advances every still-internal row one level, so the loop runs
    ``depth`` times over shrinking index sets instead of ``n_rows`` times over
    the tree.  Comparisons are the same ``<=`` as the row walk, so the reached
    leaves are identical.
    """
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.flatnonzero(flat.feature[node] >= 0)
    while active.size:
        current = node[active]
        go_left = X[active, flat.feature[current]] <= flat.threshold[current]
        node[active] = np.where(go_left, flat.left[current], flat.right[current])
        active = active[flat.feature[node[active]] >= 0]
    return node


# ---------------------------------------------------------------------------
# Distance kernels
# ---------------------------------------------------------------------------

def pairwise_sq_distances(A: np.ndarray, B: np.ndarray, b2: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of ``A`` and rows of ``B``.

    ``b2`` (``Σ B²`` per row) can be precomputed once by callers that chunk
    ``A``; the per-element arithmetic is unchanged from the historical helper.
    """
    a2 = np.sum(A * A, axis=1)[:, None]
    if b2 is None:
        b2 = np.sum(B * B, axis=1)
    d2 = a2 + b2[None, :] - 2.0 * (A @ B.T)
    return np.clip(d2, 0.0, None)


def query_chunks(n_rows: int, n_cols: int, max_elements: int | None = None):
    """Yield ``slice`` objects over rows bounding ``rows × n_cols`` elements.

    The rows are query rows for the distance kernels and candidate features
    for the split search and rule scoring.  With the default budget a 50k-row
    predict against a 50k-row training set walks ~80 chunks of ~80 rows
    instead of materialising a 20 GB matrix.  Inputs that fit the budget
    yield one full slice, keeping small passes on the exact single-shot path.
    """
    budget = DEFAULT_CHUNK_ELEMENTS if max_elements is None else int(max_elements)
    rows = max(1, budget // max(1, n_cols))
    for start in range(0, n_rows, rows):
        yield slice(start, min(start + rows, n_rows))


def knn_vote(
    labels: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Per-row weighted class votes via one flattened ``bincount``.

    ``labels``/``weights`` are ``(n_rows, k)``; ``bincount`` accumulates in
    scan order, i.e. per row in neighbour order — the exact addition sequence
    of the historical ``proba[i, y[j]] += w`` loop, so results are
    bit-identical.
    """
    n_rows, k = labels.shape
    flat = np.arange(n_rows, dtype=np.int64)[:, None] * n_classes + labels
    votes = np.bincount(
        flat.ravel(), weights=weights.ravel(), minlength=n_rows * n_classes
    )
    return votes.reshape(n_rows, n_classes)
