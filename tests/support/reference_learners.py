"""Frozen pre-kernel learner implementations — the equivalence oracle.

These classes preserve, verbatim, the pure-Python inner loops the live
learners used before the vectorized kernel layer (:mod:`repro.learners.kernels`)
replaced them: per-node ``np.argsort`` + a Python loop over every candidate
threshold in the trees, row-by-row neighbour voting in the lazy family,
full-matrix pairwise distances, tree ensembles that refit every member on a
materialised ``X[idx]`` / ``X[:, features]``, and rule growth with one
percentile call per feature and quantile.  They exist for exactly two
consumers:

* ``tests/learners/test_kernel_equivalence.py`` asserts the kernel-backed
  learners produce *identical* predictions (tie-breaking included), and
* ``benchmarks/test_bench_kernels.py`` measures the kernel speedups against
  them while asserting score-identical outputs in the same run.

Do not use these in production paths and do not "fix" them — their value is
that they never change.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.learners.base import BaseClassifier, clone
from repro.learners.ensemble import AdaBoostM1, Bagging, RandomSubSpace, _default_base
from repro.learners.forest import RandomForest
from repro.learners.lazy import IBk, KStar, LWL, _pairwise_sq_distances_exact
from repro.learners.regression import (
    DecisionTreeRegressor,
    KNeighborsRegressor,
    _RegressionNode,
)
from repro.learners.rules import JRip, PART, Ridor, _Rule, _SequentialCovering
from repro.learners.tree import DecisionStump, DecisionTreeClassifier, _entropy, _Node

__all__ = [
    "ReferenceDecisionTree",
    "ReferenceRandomForest",
    "ReferenceBagging",
    "ReferenceRandomSubSpace",
    "ReferenceAdaBoostM1",
    "ReferenceJRip",
    "ReferencePART",
    "ReferenceRidor",
    "ReferenceIBk",
    "ReferenceKStar",
    "ReferenceLWL",
    "ReferenceDecisionTreeRegressor",
    "ReferenceKNeighborsRegressor",
]


def _class_distribution(y: np.ndarray, n_classes: int) -> np.ndarray:
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else np.full(n_classes, 1.0 / n_classes)


class _CandidateCount:
    """The trees' per-node candidate-feature count, frozen with their loops."""

    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)) if n_features > 1 else 1)
        return max(1, min(int(self.max_features), n_features))


class ReferenceDecisionTree(_CandidateCount, DecisionTreeClassifier):
    """The pre-kernel tree: per-node stable argsort + Python threshold loop."""

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float, float] | None:
        n_samples, n_features = X.shape
        parent_counts = np.bincount(y, minlength=self._n_classes)
        parent_impurity = self._impurity(parent_counts)
        k = self._n_candidate_features(n_features)
        candidates = (
            np.arange(n_features)
            if k >= n_features
            else rng.choice(n_features, size=k, replace=False)
        )
        best: tuple[int, float, float] | None = None
        best_score = -np.inf
        for feature in candidates:
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            labels = y[order]
            left_counts = np.zeros(self._n_classes)
            right_counts = parent_counts.astype(np.float64).copy()
            for i in range(n_samples - 1):
                label = labels[i]
                left_counts[label] += 1
                right_counts[label] -= 1
                if values[i] == values[i + 1]:
                    continue
                n_left = i + 1
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                weighted = (
                    n_left * self._impurity(left_counts)
                    + n_right * self._impurity(right_counts)
                ) / n_samples
                decrease = parent_impurity - weighted
                score = decrease
                if self.criterion == "gain_ratio":
                    split_counts = np.array([n_left, n_right], dtype=np.float64)
                    split_info = _entropy(split_counts)
                    score = decrease / split_info if split_info > 0 else 0.0
                if score > best_score and decrease > self.min_impurity_decrease:
                    best_score = score
                    threshold = float((values[i] + values[i + 1]) / 2.0)
                    best = (int(feature), threshold, float(decrease))
        return best

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _Node:
        node = _Node(prediction=_class_distribution(y, self._n_classes))
        if (
            len(np.unique(y)) <= 1
            or len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or (self.max_nodes is not None and self._n_internal >= self.max_nodes)
        ):
            return node
        split = self._best_split(X, y, rng)
        if split is None:
            return node
        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        self._n_internal += 1
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1, rng)
        node.right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return node

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._n_classes = int(len(self.classes_))
        self._n_internal = 0
        rng = np.random.default_rng(self.random_state)
        self.tree_ = self._build(X, y, depth=0, rng=rng)

    def _predict_row(self, node: _Node, row: np.ndarray) -> np.ndarray:
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.vstack([self._predict_row(self.tree_, row) for row in X])


class _ReferenceRandomTree(ReferenceDecisionTree):
    """RandomTree defaults on top of the reference engine (forest member)."""

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


class ReferenceRandomForest(RandomForest):
    """The pre-kernel forest: each member re-sorts every node, predicts row-wise."""

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return _ReferenceRandomTree(
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
        self.estimators_: list[DecisionTreeClassifier] = []
        for _ in range(int(self.n_estimators)):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                for label in range(len(self.classes_)):
                    if not np.any(y[idx] == label):
                        members = np.flatnonzero(y == label)
                        idx[rng.integers(0, n)] = members[rng.integers(0, len(members))]
            else:
                idx = np.arange(n)
            tree = self._make_tree(seed)
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)


class ReferenceBagging(Bagging):
    """The pre-shared-orders Bagging: every member refits on ``X[idx]``."""

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if not 0.0 < self.max_samples <= 1.0:
            raise ValueError("max_samples must be in (0, 1]")
        rng = np.random.default_rng(self.random_state)
        base = self.base_estimator if self.base_estimator is not None else _default_base()
        n = X.shape[0]
        sample_size = max(2, int(round(self.max_samples * n)))
        self.estimators_: list[BaseClassifier] = []
        for _ in range(int(self.n_estimators)):
            idx = rng.integers(0, n, size=sample_size)
            if len(np.unique(y[idx])) < 2 and len(np.unique(y)) >= 2:
                for label in np.unique(y)[:2]:
                    members = np.flatnonzero(y == label)
                    idx[rng.integers(0, sample_size)] = members[rng.integers(0, len(members))]
            model = clone(base)
            model.fit(X[idx], y[idx])
            self.estimators_.append(model)


class ReferenceRandomSubSpace(RandomSubSpace):
    """The pre-shared-orders RandomSubSpace: members refit on ``X[:, features]``."""

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if not 0.0 < self.subspace_fraction <= 1.0:
            raise ValueError("subspace_fraction must be in (0, 1]")
        rng = np.random.default_rng(self.random_state)
        base = self.base_estimator if self.base_estimator is not None else _default_base()
        n_features = X.shape[1]
        k = max(1, int(round(self.subspace_fraction * n_features)))
        self.estimators_: list[BaseClassifier] = []
        self.subspaces_: list[np.ndarray] = []
        for _ in range(int(self.n_estimators)):
            features = rng.choice(n_features, size=k, replace=False)
            model = clone(base)
            model.fit(X[:, features], y)
            self.estimators_.append(model)
            self.subspaces_.append(features)


class ReferenceAdaBoostM1(AdaBoostM1):
    """The pre-shared-orders AdaBoostM1: each round refits on ``X[idx]``."""

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        rng = np.random.default_rng(self.random_state)
        base = self.base_estimator if self.base_estimator is not None else DecisionStump()
        n = X.shape[0]
        n_classes = len(self.classes_)
        weights = np.full(n, 1.0 / n)
        self.estimators_: list[BaseClassifier] = []
        self.estimator_weights_: list[float] = []
        for _ in range(int(self.n_estimators)):
            idx = rng.choice(n, size=n, replace=True, p=weights)
            model = clone(base)
            try:
                model.fit(X[idx], y[idx])
            except Exception as exc:  # noqa: BLE001 — boosting stops at the failed round
                obs.error_event("ensemble.boost_fit", exc)
                break
            predictions = np.zeros(n, dtype=np.int64)
            raw = model.predict(X)
            predictions[:] = raw
            incorrect = predictions != y
            error = float(np.dot(weights, incorrect))
            if error >= 1.0 - 1.0 / n_classes:
                break
            error = max(error, 1e-10)
            alpha = self.learning_rate * (
                np.log((1.0 - error) / error) + np.log(n_classes - 1.0)
            )
            self.estimators_.append(model)
            self.estimator_weights_.append(float(alpha))
            weights = weights * np.exp(alpha * incorrect)
            weights /= weights.sum()
            if error <= 1e-10:
                break
        if not self.estimators_:
            fallback = clone(base)
            fallback.fit(X, y)
            self.estimators_ = [fallback]
            self.estimator_weights_ = [1.0]


class _ReferenceCovering(_SequentialCovering):
    """The pre-kernel rule growth: one percentile call per feature × quantile."""

    def _grow_rule(self, X: np.ndarray, y: np.ndarray, target: int) -> _Rule | None:
        conditions: list[tuple[int, str, float]] = []
        mask = np.ones(X.shape[0], dtype=bool)
        for _ in range(self.max_conditions):
            best_gain = 0.0
            best_condition: tuple[int, str, float] | None = None
            current_precision = (
                np.mean(y[mask] == target) if mask.any() else 0.0
            )
            for feature in range(X.shape[1]):
                values = X[mask, feature]
                if values.size == 0:
                    continue
                for quantile in (25, 50, 75):
                    threshold = float(np.percentile(values, quantile))
                    for op in ("<=", ">"):
                        candidate_mask = mask & (
                            X[:, feature] <= threshold
                            if op == "<="
                            else X[:, feature] > threshold
                        )
                        covered = candidate_mask.sum()
                        if covered < self.min_coverage:
                            continue
                        precision = np.mean(y[candidate_mask] == target)
                        gain = (precision - current_precision) * np.log1p(covered)
                        if gain > best_gain:
                            best_gain = gain
                            best_condition = (feature, op, threshold)
            if best_condition is None:
                break
            conditions.append(best_condition)
            feature, op, threshold = best_condition
            mask &= X[:, feature] <= threshold if op == "<=" else X[:, feature] > threshold
            if mask.any() and np.mean(y[mask] == target) > 0.95:
                break
        if not conditions or not mask.any():
            return None
        return _Rule(conditions=conditions, label=target)


class ReferenceJRip(_ReferenceCovering, JRip):
    """JRip on the pre-kernel rule growth."""


class ReferencePART(_ReferenceCovering, PART):
    """PART on the pre-kernel rule growth."""


class ReferenceRidor(_ReferenceCovering, Ridor):
    """Ridor on the pre-kernel rule growth."""


class ReferenceIBk(IBk):
    """The pre-kernel IBk: full distance matrix + per-row neighbour loop."""

    def _distances(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        if self.p == 1:
            return np.abs(Xs[:, None, :] - self._X[None, :, :]).sum(axis=2)
        return np.sqrt(_pairwise_sq_distances_exact(Xs, self._X))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        k = min(int(self.n_neighbors), self._X.shape[0])
        distances = self._distances(X)
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes))
        neighbor_idx = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
        for i in range(X.shape[0]):
            idx = neighbor_idx[i]
            if self.weighting == "distance":
                weights = 1.0 / (distances[i, idx] + 1e-8)
            else:
                weights = np.ones(k)
            for j, w in zip(idx, weights):
                proba[i, self._y[j]] += w
        return proba / proba.sum(axis=1, keepdims=True)


class ReferenceKStar(KStar):
    """The pre-kernel KStar: one full query-by-train kernel matrix."""

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        distances = np.sqrt(_pairwise_sq_distances_exact(Xs, self._X))
        kernel = np.exp(-0.5 * (distances / self._bandwidth) ** 2) + 1e-12
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes))
        for k in range(n_classes):
            proba[:, k] = kernel[:, self._y == k].sum(axis=1)
        return proba / proba.sum(axis=1, keepdims=True)


class ReferenceLWL(LWL):
    """The pre-kernel LWL: per-query Python loop over local class weights."""

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        k = min(int(self.n_neighbors), self._X.shape[0])
        distances = np.sqrt(_pairwise_sq_distances_exact(Xs, self._X))
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes))
        neighbor_idx = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
        for i in range(X.shape[0]):
            idx = neighbor_idx[i]
            local_d = distances[i, idx]
            bandwidth = local_d.max() + 1e-8
            weights = np.clip(1.0 - (local_d / bandwidth) ** 2, 0.0, None) + 1e-8
            for k_label in range(n_classes):
                mask = self._y[idx] == k_label
                proba[i, k_label] = weights[mask].sum()
        proba += 1e-8
        return proba / proba.sum(axis=1, keepdims=True)


class ReferenceDecisionTreeRegressor(_CandidateCount, DecisionTreeRegressor):
    """The pre-kernel regression tree: per-node sort + Python prefix-sum loop."""

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float] | None:
        n, n_features = X.shape
        min_leaf = max(1, int(self.min_samples_leaf))
        k = self._n_candidate_features(n_features)
        candidates = (
            np.arange(n_features)
            if k >= n_features
            else rng.choice(n_features, size=k, replace=False)
        )
        best: tuple[int, float] | None = None
        best_sse = float(np.sum((y - y.mean()) ** 2)) - 1e-12
        for j in candidates:
            order = np.argsort(X[:, j], kind="stable")
            xs, ys = X[order, j], y[order]
            csum = np.cumsum(ys)
            csum_sq = np.cumsum(ys**2)
            total, total_sq = csum[-1], csum_sq[-1]
            for i in range(min_leaf, n - min_leaf + 1):
                if i == n or xs[i - 1] == xs[min(i, n - 1)]:
                    continue
                left_sum, left_sq = csum[i - 1], csum_sq[i - 1]
                right_sum, right_sq = total - left_sum, total_sq - left_sq
                sse = (left_sq - left_sum**2 / i) + (right_sq - right_sum**2 / (n - i))
                if sse < best_sse:
                    best_sse = sse
                    best = (int(j), float((xs[i - 1] + xs[i]) / 2.0))
        return best

    def _grow(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _RegressionNode:
        node = _RegressionNode(float(y.mean()))
        if (
            (self.max_depth is not None and depth >= int(self.max_depth))
            or len(y) < max(2, int(self.min_samples_split))
            or np.all(y == y[0])
        ):
            return node
        split = self._best_split(X, y, rng)
        if split is None:
            return node
        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        if not left_mask.any() or left_mask.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[left_mask], y[left_mask], depth + 1, rng)
        node.right = self._grow(X[~left_mask], y[~left_mask], depth + 1, rng)
        return node

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._grow(X, y, depth=0, rng=rng)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out


class ReferenceKNeighborsRegressor(KNeighborsRegressor):
    """The pre-kernel kNN regressor: one distance pass per query row."""

    def _predict(self, X: np.ndarray) -> np.ndarray:
        k = min(int(self.n_neighbors), self._X.shape[0])
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            diff = self._X - row
            if self.p == 1:
                distances = np.abs(diff).sum(axis=1)
            else:
                distances = np.sqrt((diff**2).sum(axis=1))
            neighbor_idx = np.argpartition(distances, k - 1)[:k]
            if self.weighting == "distance":
                weights = 1.0 / (distances[neighbor_idx] + 1e-9)
                out[i] = float(np.average(self._y[neighbor_idx], weights=weights))
            else:
                out[i] = float(self._y[neighbor_idx].mean())
        return out
