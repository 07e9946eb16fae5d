"""Meta-learner ensembles from the Weka ``meta`` package referenced in Table IV.

Implemented analogues: ``Bagging``, ``AdaBoostM1``, ``LogitBoost``,
``RandomSubSpace``, ``RandomCommittee``, ``RotationForest``, ``MultiBoostAB``
(approximated as AdaBoost with committee restarts), ``StackingC`` and
``VotingEnsemble`` (used by ``ClassificationViaRegression``-style wrappers).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from . import kernels
from .base import BaseClassifier, clone
from .tree import DecisionStump, DecisionTreeClassifier, J48, RandomTree, grow_members

__all__ = [
    "Bagging",
    "AdaBoostM1",
    "MultiBoostAB",
    "LogitBoost",
    "RandomSubSpace",
    "RandomCommittee",
    "RotationForest",
    "StackingC",
    "VotingEnsemble",
]


def _default_base() -> BaseClassifier:
    return DecisionTreeClassifier(criterion="entropy", max_depth=None, min_samples_leaf=2)


def _shared_orders(base: BaseClassifier, X: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(X.T, sort orders)`` shared by every member when the base is a tree.

    Tree members then grow through :func:`~repro.learners.tree.grow_members`
    on these, computed once per ensemble fit, instead of re-validating and
    re-sorting a materialised sample per member.
    """
    if not isinstance(base, DecisionTreeClassifier):
        return None
    return np.ascontiguousarray(X.T), kernels.feature_orders(X)


def _fit_samples(
    models: list[BaseClassifier],
    X: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray],
    shared: tuple[np.ndarray, np.ndarray] | None,
) -> None:
    """Fit ``models[i]`` on rows ``samples[i]`` — trees in lockstep on the
    shared orders, any other base on the materialised sample."""
    if shared is None:
        for model, idx in zip(models, samples):
            model.fit(X[idx], y[idx])
        return
    XT, orders = shared
    members = [
        (model, np.bincount(idx, minlength=X.shape[0]), None)
        for model, idx in zip(models, samples)
    ]
    grow_members(members, XT, y, orders)


def _aligned_proba(model: BaseClassifier, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Return ``model``'s probabilities re-indexed onto the global label range."""
    proba = model.predict_proba(X)
    out = np.zeros((X.shape[0], n_classes))
    for local_index, label in enumerate(model.classes_):
        out[:, int(label)] += proba[:, local_index]
    return out


class Bagging(BaseClassifier):
    """Bootstrap aggregation around an arbitrary base classifier."""

    def __init__(
        self,
        base_estimator: BaseClassifier | None = None,
        n_estimators: int = 10,
        max_samples: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.base_estimator = base_estimator
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if not 0.0 < self.max_samples <= 1.0:
            raise ValueError("max_samples must be in (0, 1]")
        rng = np.random.default_rng(self.random_state)
        base = self.base_estimator if self.base_estimator is not None else _default_base()
        n = X.shape[0]
        sample_size = max(2, int(round(self.max_samples * n)))
        samples = []
        for _ in range(int(self.n_estimators)):
            idx = rng.integers(0, n, size=sample_size)
            if len(np.unique(y[idx])) < 2 and len(np.unique(y)) >= 2:
                # Force at least two classes into the bootstrap sample.
                for label in np.unique(y)[:2]:
                    members = np.flatnonzero(y == label)
                    idx[rng.integers(0, sample_size)] = members[rng.integers(0, len(members))]
            samples.append(idx)
        self.estimators_: list[BaseClassifier] = [clone(base) for _ in samples]
        _fit_samples(self.estimators_, X, y, samples, _shared_orders(base, X))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        total = np.zeros((X.shape[0], n_classes))
        for model in self.estimators_:
            total += _aligned_proba(model, X, n_classes)
        return total / len(self.estimators_)


class AdaBoostM1(BaseClassifier):
    """SAMME-style multiclass AdaBoost over decision stumps (or any base)."""

    def __init__(
        self,
        base_estimator: BaseClassifier | None = None,
        n_estimators: int = 30,
        learning_rate: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.base_estimator = base_estimator
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        rng = np.random.default_rng(self.random_state)
        base = self.base_estimator if self.base_estimator is not None else DecisionStump()
        n = X.shape[0]
        n_classes = len(self.classes_)
        weights = np.full(n, 1.0 / n)
        shared = _shared_orders(base, X)
        self.estimators_: list[BaseClassifier] = []
        self.estimator_weights_: list[float] = []
        for _ in range(int(self.n_estimators)):
            # Weighted fitting via weighted resampling (base learners here do
            # not accept sample weights directly).
            idx = rng.choice(n, size=n, replace=True, p=weights)
            model = clone(base)
            try:
                _fit_samples([model], X, y, [idx], shared)
            except Exception as exc:  # noqa: BLE001 — boosting stops at the failed round
                obs.error_event("ensemble.boost_fit", exc)
                break
            predictions = np.zeros(n, dtype=np.int64)
            raw = model.predict(X)
            predictions[:] = raw
            incorrect = predictions != y
            error = float(np.dot(weights, incorrect))
            if error >= 1.0 - 1.0 / n_classes:
                # Worse than chance: discard and stop boosting.
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

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        scores = np.zeros((X.shape[0], n_classes))
        for model, alpha in zip(self.estimators_, self.estimator_weights_):
            predictions = model.predict(X).astype(np.int64)
            scores[np.arange(X.shape[0]), predictions] += alpha
        total = scores.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        return scores / total


class MultiBoostAB(AdaBoostM1):
    """MultiBoost approximation: AdaBoost with periodic weight re-initialisation."""

    def __init__(
        self,
        base_estimator: BaseClassifier | None = None,
        n_estimators: int = 30,
        n_committees: int = 3,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            base_estimator=base_estimator,
            n_estimators=n_estimators,
            learning_rate=1.0,
            random_state=random_state,
        )
        self.n_committees = n_committees

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        committees = max(1, int(self.n_committees))
        per_committee = max(1, int(self.n_estimators) // committees)
        rng = np.random.default_rng(self.random_state)
        all_models: list[BaseClassifier] = []
        all_weights: list[float] = []
        for c in range(committees):
            sub = AdaBoostM1(
                base_estimator=self.base_estimator,
                n_estimators=per_committee,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            sub.fit(X, self.classes_[y])
            all_models.extend(sub.estimators_)
            all_weights.extend(sub.estimator_weights_)
        self.estimators_ = all_models
        self.estimator_weights_ = all_weights


class LogitBoost(BaseClassifier):
    """Additive logistic regression (LogitBoost) with regression stumps.

    For each class a stage-wise additive model of depth-1 regression trees is
    fitted to the working response of the binomial log-likelihood, following
    Friedman/Hastie/Tibshirani's one-vs-rest formulation.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        learning_rate: float = 0.5,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.random_state = random_state

    @staticmethod
    def _fit_stump(X: np.ndarray, residual: np.ndarray) -> tuple[int, float, float, float]:
        """Least-squares depth-1 regression stump on ``residual``."""
        best = (0, float(np.median(X[:, 0])), float(residual.mean()), float(residual.mean()))
        best_sse = np.inf
        n_samples, n_features = X.shape
        for feature in range(n_features):
            values = X[:, feature]
            candidates = np.unique(np.percentile(values, np.linspace(10, 90, 9)))
            for threshold in candidates:
                mask = values <= threshold
                if mask.sum() == 0 or mask.sum() == n_samples:
                    continue
                left = residual[mask].mean()
                right = residual[~mask].mean()
                sse = np.sum((residual[mask] - left) ** 2) + np.sum(
                    (residual[~mask] - right) ** 2
                )
                if sse < best_sse:
                    best_sse = sse
                    best = (feature, float(threshold), float(left), float(right))
        return best

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n_samples = X.shape[0]
        n_classes = len(self.classes_)
        F = np.zeros((n_samples, n_classes))
        Y = np.zeros((n_samples, n_classes))
        Y[np.arange(n_samples), y] = 1.0
        self.stages_: list[list[tuple[int, float, float, float]]] = []
        for _ in range(int(self.n_estimators)):
            expF = np.exp(F - F.max(axis=1, keepdims=True))
            P = expF / expF.sum(axis=1, keepdims=True)
            stage: list[tuple[int, float, float, float]] = []
            for k in range(n_classes):
                w = np.clip(P[:, k] * (1 - P[:, k]), 1e-6, None)
                z = (Y[:, k] - P[:, k]) / w
                z = np.clip(z, -4.0, 4.0)
                stump = self._fit_stump(X, z)
                stage.append(stump)
                feature, threshold, left, right = stump
                update = np.where(X[:, feature] <= threshold, left, right)
                F[:, k] += self.learning_rate * update
            self.stages_.append(stage)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        F = np.zeros((X.shape[0], n_classes))
        for stage in self.stages_:
            for k, (feature, threshold, left, right) in enumerate(stage):
                F[:, k] += self.learning_rate * np.where(
                    X[:, feature] <= threshold, left, right
                )
        expF = np.exp(F - F.max(axis=1, keepdims=True))
        return expF / expF.sum(axis=1, keepdims=True)


class RandomSubSpace(BaseClassifier):
    """Ensemble trained on random feature subspaces (Ho's random subspace method)."""

    def __init__(
        self,
        base_estimator: BaseClassifier | None = None,
        n_estimators: int = 10,
        subspace_fraction: float = 0.5,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.base_estimator = base_estimator
        self.n_estimators = n_estimators
        self.subspace_fraction = subspace_fraction
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if not 0.0 < self.subspace_fraction <= 1.0:
            raise ValueError("subspace_fraction must be in (0, 1]")
        rng = np.random.default_rng(self.random_state)
        base = self.base_estimator if self.base_estimator is not None else _default_base()
        n_features = X.shape[1]
        k = max(1, int(round(self.subspace_fraction * n_features)))
        self.subspaces_: list[np.ndarray] = [
            rng.choice(n_features, size=k, replace=False) for _ in range(int(self.n_estimators))
        ]
        self.estimators_: list[BaseClassifier] = [clone(base) for _ in self.subspaces_]
        shared = _shared_orders(base, X)
        if shared is None:
            for model, features in zip(self.estimators_, self.subspaces_):
                model.fit(X[:, features], y)
        else:
            members = [
                (model, None, features)
                for model, features in zip(self.estimators_, self.subspaces_)
            ]
            grow_members(members, shared[0], y, shared[1])

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        total = np.zeros((X.shape[0], n_classes))
        for model, features in zip(self.estimators_, self.subspaces_):
            total += _aligned_proba(model, X[:, features], n_classes)
        return total / len(self.estimators_)


class RandomCommittee(BaseClassifier):
    """Committee of randomised trees differing only in their random seed."""

    def __init__(
        self, n_estimators: int = 10, max_depth: int | None = None, random_state: int | None = None
    ) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for _ in range(int(self.n_estimators)):
            tree = RandomTree(
                max_depth=self.max_depth, random_state=int(rng.integers(0, 2**31 - 1))
            )
            tree.fit(X, y)
            self.estimators_.append(tree)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        total = np.zeros((X.shape[0], n_classes))
        for model in self.estimators_:
            total += _aligned_proba(model, X, n_classes)
        return total / len(self.estimators_)


class RotationForest(BaseClassifier):
    """Rotation Forest: trees trained on PCA-rotated random feature groups."""

    def __init__(
        self,
        n_estimators: int = 10,
        n_groups: int = 3,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.n_groups = n_groups
        self.random_state = random_state

    @staticmethod
    def _pca_rotation(X_group: np.ndarray) -> np.ndarray:
        centered = X_group - X_group.mean(axis=0)
        cov = np.cov(centered, rowvar=False)
        cov = np.atleast_2d(cov)
        _, vectors = np.linalg.eigh(cov)
        return vectors

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        n_features = X.shape[1]
        groups = max(1, min(int(self.n_groups), n_features))
        self.estimators_: list[BaseClassifier] = []
        self.rotations_: list[list[tuple[np.ndarray, np.ndarray]]] = []
        for _ in range(int(self.n_estimators)):
            permutation = rng.permutation(n_features)
            feature_groups = np.array_split(permutation, groups)
            rotation: list[tuple[np.ndarray, np.ndarray]] = []
            transformed_blocks = []
            for feature_idx in feature_groups:
                if len(feature_idx) == 0:
                    continue
                block = X[:, feature_idx]
                vectors = self._pca_rotation(block)
                rotation.append((feature_idx, vectors))
                transformed_blocks.append(block @ vectors)
            rotated = np.hstack(transformed_blocks)
            tree = J48(random_state=int(rng.integers(0, 2**31 - 1)))
            tree.fit(rotated, y)
            self.estimators_.append(tree)
            self.rotations_.append(rotation)

    def _rotate(self, X: np.ndarray, rotation: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        blocks = [X[:, idx] @ vectors for idx, vectors in rotation]
        return np.hstack(blocks)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        total = np.zeros((X.shape[0], n_classes))
        for model, rotation in zip(self.estimators_, self.rotations_):
            total += _aligned_proba(model, self._rotate(X, rotation), n_classes)
        return total / len(self.estimators_)


class StackingC(BaseClassifier):
    """Two-level stacking: base learners feed a simple logistic meta-learner."""

    def __init__(
        self,
        base_estimators: list[BaseClassifier] | None = None,
        cv: int = 3,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.base_estimators = base_estimators
        self.cv = cv
        self.random_state = random_state

    def _default_bases(self) -> list[BaseClassifier]:
        from .bayes import NaiveBayes
        from .lazy import IBk

        return [J48(), NaiveBayes(), IBk(n_neighbors=5)]

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        from .linear import LogisticRegression
        from .validation import StratifiedKFold

        bases = (
            [clone(m) for m in self.base_estimators]
            if self.base_estimators
            else self._default_bases()
        )
        n_classes = len(self.classes_)
        n = X.shape[0]
        meta_features = np.zeros((n, len(bases) * n_classes))
        n_splits = max(2, min(self.cv, int(np.bincount(y).min()) if np.bincount(y).min() >= 2 else 2))
        splitter = StratifiedKFold(n_splits=n_splits, shuffle=True, random_state=self.random_state)
        for train_idx, test_idx in splitter.split(X, y):
            for b, base in enumerate(bases):
                model = clone(base)
                try:
                    model.fit(X[train_idx], y[train_idx])
                    block = _aligned_proba(model, X[test_idx], n_classes)
                except Exception as exc:  # noqa: BLE001 — a failed base yields uniform meta-features
                    obs.error_event("ensemble.stack_fit", exc)
                    block = np.full((len(test_idx), n_classes), 1.0 / n_classes)
                meta_features[test_idx, b * n_classes : (b + 1) * n_classes] = block
        self.base_models_ = []
        for base in bases:
            model = clone(base)
            model.fit(X, y)
            self.base_models_.append(model)
        self.meta_model_ = LogisticRegression(max_iter=300)
        self.meta_model_.fit(meta_features, y)

    def _meta_features(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        blocks = [_aligned_proba(model, X, n_classes) for model in self.base_models_]
        return np.hstack(blocks)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _aligned_proba(self.meta_model_, self._meta_features(X), len(self.classes_))


class VotingEnsemble(BaseClassifier):
    """Soft-voting combination of heterogeneous classifiers."""

    def __init__(
        self, estimators: list[BaseClassifier] | None = None, random_state: int | None = None
    ) -> None:
        super().__init__()
        self.estimators = estimators
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        from .bayes import NaiveBayes
        from .lazy import IBk

        members = (
            [clone(m) for m in self.estimators]
            if self.estimators
            else [J48(), NaiveBayes(), IBk(n_neighbors=5)]
        )
        self.fitted_: list[BaseClassifier] = []
        for member in members:
            member.fit(X, y)
            self.fitted_.append(member)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        total = np.zeros((X.shape[0], n_classes))
        for model in self.fitted_:
            total += _aligned_proba(model, X, n_classes)
        return total / len(self.fitted_)
