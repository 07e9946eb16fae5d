"""Vectorized numpy kernels shared by the learner catalogue.

The paper's headline claim is about *trials per wall-clock second*: Auto-Model
wins under a time budget because it spends its seconds tuning one good
algorithm.  That makes the learners' inner loops the hottest code in the whole
system — every CV fold of every trial of every optimizer runs them, and the
offline build scores every catalogue learner on every knowledge dataset.
This module collects those loops as array kernels:

* **Batched split search** (:func:`best_split_classification`) — one call
  scores every node search of a growth step: a lone tree's next node, or the
  next node of each of up to 16 ensemble members growing in lockstep.  The
  candidates' sorted rows are laid end to end, one-hot label counts are
  summed cumulatively along them, and only positions between distinct values
  are scored, in a ``(side, class, position)`` block whose class axis is
  added up in numpy's own ``sum(axis=-1)`` order (:func:`_class_sum`), so
  every impurity keeps the bits of the earlier class-last, one-node-per-call
  pass (blocks bounded by :data:`DEFAULT_CHUNK_ELEMENTS`).  The trees' nodes
  hold ≤ a few hundred rows, so the saving is numpy's per-call overhead,
  paid once per step instead of once per node, and the short class-axis
  inner loops.  :func:`best_split_regression` keeps the per-feature
  prefix-sum scan.
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
``tests/learners/test_kernel_equivalence.py``.  For the trees that identity
holds for gini at any class count and for entropy and gain ratio below 8
classes: the reference's entropy sums only the non-empty classes, this
kernel the whole class axis, and from 8 classes on numpy's pairwise
summation rounds the two sums differently.  Fits at 8 to 30 classes are
pinned instead by ``tests/learners/test_tree_golden.py``, against a fixture
the node-at-a-time kernel wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "feature_orders",
    "filter_orders",
    "expand_orders",
    "candidate_features",
    "SplitSearch",
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


class SplitSearch(NamedTuple):
    """One tree node's split search, as :func:`best_split_classification` takes it.

    ``rows`` holds the node's member ids (rows of ``XT``'s columns, repeats
    allowed) in each candidate feature's stable sort order, one row per
    candidate, and ``features`` the row of ``XT`` that holds each candidate's
    values.  ``labels`` are the labels of all base rows; ``counts`` and
    ``impurity`` are the node's own class counts and impurity.
    """

    labels: np.ndarray
    rows: np.ndarray
    features: np.ndarray
    counts: np.ndarray
    impurity: float


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum ``terms`` over axis 1 (the class axis) in numpy's ``sum(axis=-1)`` order.

    A contiguous reduction adds fewer than 8 terms left to right, up to 128
    terms in eight strided accumulators combined pairwise plus a left-to-right
    tail, and more by halves.  Reproducing that order keeps every impurity
    bit-identical to summing a class-last block, while each addition here is
    one pass over a whole ``(side, position)`` slab instead of a short inner
    loop per position.  Numpy starts its left-to-right sum from ``0.0``; that
    differs from starting at the first term only for a ``-0.0`` term, and
    impurity terms are never ``-0.0``.
    """
    n = terms.shape[1]
    if n < 8:
        total = terms[:, 0] + terms[:, 1] if n > 1 else terms[:, 0].copy()
        for c in range(2, n):
            total += terms[:, c]
        return total
    if n <= 128:
        acc = terms[:, :8].copy()
        stop = n - n % 8
        for start in range(8, stop, 8):
            acc += terms[:, start : start + 8]
        total = ((acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3])) + (
            (acc[:, 4] + acc[:, 5]) + (acc[:, 6] + acc[:, 7])
        )
        for c in range(stop, n):
            total += terms[:, c]
        return total
    half = n // 2
    half -= half % 8
    return _class_sum(terms[:, :half]) + _class_sum(terms[:, half:])


def _split_blocks(searches: Sequence[SplitSearch], group: list[int], n_classes: int):
    """Cut a group's (search, candidate) pairs into blocks of ``(search, start, stop)``.

    A candidate of an ``n``-row node adds ``2 * n * n_classes`` elements to a
    block's count array; blocks are filled in order up to
    :data:`DEFAULT_CHUNK_ELEMENTS`, and a candidate above the bound alone gets
    its own block.  For a single search this is :func:`query_chunks` over its
    candidates.
    """
    budget = DEFAULT_CHUNK_ELEMENTS
    block: list[tuple[int, int, int]] = []
    used = 0
    for i in group:
        k, n = searches[i].rows.shape
        cost = 2 * n * n_classes
        start = 0
        while start < k:
            take = min(k - start, (budget - used) // cost)
            if take <= 0:
                if block:
                    yield block
                    block, used = [], 0
                    continue
                take = 1
            block.append((i, start, start + take))
            used += take * cost
            start += take
    if block:
        yield block


def best_split_classification(
    XT: np.ndarray,
    searches: Sequence[SplitSearch],
    criterion: str,
    min_samples_leaf: int,
    min_impurity_decrease: float,
) -> list[tuple[int, float] | None]:
    """Best ``(candidate, threshold)`` of every node search, in one call.

    ``XT`` is the training matrix transposed (features × base rows); the
    searches are the nodes that a growth step of several trees examines.
    Searches sharing a label array and a class count are scored together:
    their candidates' sorted rows are laid end to end, one-hot label counts
    are summed cumulatively along them (reset at each candidate's start) and
    the impurities of both sides of every split between distinct values are
    computed in a ``(side, class, position)`` block, blocks bounded by
    :data:`DEFAULT_CHUNK_ELEMENTS`.  Every elementwise operation, and the
    order of the class sum (:func:`_class_sum`), is the one the per-node
    class-last pass used, so impurities and thresholds keep their bits.

    A search's winner is its first maximum in (candidate order, position)
    order — the historical per-feature loop's strict ``score > best`` rule,
    which keeps the earliest feature and the earliest position among equal
    scores; ``candidate`` indexes ``search.features``.  A search gets
    ``None`` when none of its positions is a valid split.  Every search must
    hold at least two rows.
    """
    results: list[tuple[int, float] | None] = [None] * len(searches)
    best = [-np.inf] * len(searches)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, search in enumerate(searches):
        groups.setdefault((id(search.labels), len(search.counts)), []).append(i)
    for (_, n_classes), group in groups.items():
        for block in _split_blocks(searches, group, n_classes):
            _score_block(
                XT, searches, block, n_classes, criterion, min_samples_leaf,
                min_impurity_decrease, best, results,
            )
    return results


def _score_block(
    XT: np.ndarray,
    searches: Sequence[SplitSearch],
    block: list[tuple[int, int, int]],
    n_classes: int,
    criterion: str,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    best: list[float],
    results: list,
) -> None:
    """Score one block of :func:`best_split_classification`; keep each
    search's best in ``best``/``results`` (strict ``>``: earlier blocks win)."""
    labels = searches[block[0][0]].labels
    pieces = [(searches[i], a, b) for i, a, b in block]
    widths = np.array([b - a for _, a, b in block])
    lengths = np.array([search.rows.shape[1] for search, _, _ in pieces])
    # Every candidate's sorted rows end to end: one segment per candidate.
    ids = np.concatenate([search.rows[a:b] for search, a, b in pieces], axis=None)
    seg_len = np.repeat(lengths, widths)
    seg_end = np.cumsum(seg_len)
    features = np.concatenate([search.features[a:b] for search, a, b in pieces])
    flat = np.repeat(features * XT.shape[1], seg_len)
    flat += ids
    values = np.take(XT.ravel(), flat)
    # Position ``e`` splits element e from e + 1 of one segment; only those
    # between distinct values can win, and only they are scored below.
    distinct = np.empty(ids.size, dtype=bool)
    np.not_equal(values[:-1], values[1:], out=distinct[:-1])
    distinct[seg_end - 1] = False
    at = np.flatnonzero(distinct)
    if not at.size:
        return
    sizes = widths * lengths
    piece_end = np.cumsum(sizes)
    piece = np.searchsorted(piece_end, at, side="right")
    offset = at - (piece_end - sizes)[piece]  # from the piece's first element
    n = lengths[piece]
    sides = np.empty((2, at.size))  # samples left / right of each position
    sides[0] = offset % n + 1
    np.subtract(n, sides[0], out=sides[1])
    n_left, n_right = sides
    # Cumulative one-hot label counts along each segment, for all classes
    # but the last (the left side's size minus the others gives it):
    # subtracting the previous segment's total (its node's counts) at every
    # segment start restarts the running sum.  Every count is an exact
    # integer, so how it is added up does not matter.
    node_counts = np.array([search.counts for search, _, _ in pieces], dtype=np.float64).T
    hot = np.empty((n_classes - 1, ids.size))
    np.equal(np.take(labels, ids), np.arange(n_classes - 1)[:, None], out=hot)
    hot[:, seg_end[:-1]] -= np.repeat(node_counts[:-1], widths, axis=1)[:, :-1]
    np.cumsum(hot, axis=1, out=hot)
    counts = np.empty((2, n_classes, at.size))  # (side, class, position)
    # Every index is in range; the default mode="raise" would buffer `out`.
    np.take(hot, at, axis=1, out=counts[0, :-1], mode="clip")
    np.subtract(n_left, counts[0, :-1].sum(axis=0), out=counts[0, -1])
    np.subtract(np.take(node_counts, piece, axis=1), counts[0], out=counts[1])
    # The impurity of every side, in place where it can be: fresh arrays of
    # this size cost more to allocate than to fill.
    if criterion == "gini":
        p = np.divide(counts, sides[:, None], out=counts)
        impurity = 1.0 - _class_sum(np.multiply(p, p, out=p))
    else:
        empty = counts == 0
        p = np.divide(counts, sides[:, None], out=counts)
        terms = np.maximum(p, empty)  # p, or 1.0 (log2 0) for an empty class
        np.log2(terms, out=terms)
        terms *= p
        impurity = -_class_sum(terms)
    parent = np.array([search.impurity for search, _, _ in pieces])[piece]
    decrease = parent - (n_left * impurity[0] + n_right * impurity[1]) / n
    if criterion == "gain_ratio":
        p_left = n_left / n
        p_right = n_right / n
        split_info = -(p_left * np.log2(p_left) + p_right * np.log2(p_right))
        score = np.where(split_info > 0, decrease / split_info, 0.0)
    else:
        score = decrease
    valid = decrease > min_impurity_decrease
    if min_samples_leaf > 1:
        valid &= (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    masked = np.where(valid, score, -np.inf)
    # A piece's positions are contiguous and candidate-major, so its first
    # maximum is the historical loop's winner among them.
    bounds = np.searchsorted(piece, np.arange(len(block) + 1))
    for (i, a, _), lo, hi, length in zip(block, bounds[:-1], bounds[1:], lengths):
        if lo == hi:
            continue
        q = lo + int(masked[lo:hi].argmax())
        if masked[q] > best[i]:
            best[i] = masked[q]
            e = at[q]
            results[i] = (a + int(offset[q]) // int(length), float((values[e] + values[e + 1]) / 2.0))


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
