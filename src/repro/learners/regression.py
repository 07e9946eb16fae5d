"""Regression learners — the regressor half of the catalogue.

The paper's Table IV catalogue is classification-only; these learners open the
second task type.  Like the classifiers, everything is implemented from
scratch on numpy (the environment has no scikit-learn) behind the same small
estimator protocol: ``fit(X, y)`` / ``predict(X)`` / ``get_params()`` /
``set_params()``, so :func:`repro.learners.base.clone` and the
cross-validation machinery work unchanged.

The family mirrors the regressor sets used by the CASH literature for
regression targets: regularised linear models (ridge/lasso), a support-vector
regressor, instance-based k-NN, variance-reduction trees with their bagged
(random forest / extra trees) and boosted (gradient boosting) ensembles, an
MLP (reused from :mod:`repro.learners.neural`), and a mean/median
:class:`DummyRegressor` playing ZeroR's role as the sanity-check floor.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from . import kernels
from .base import BaseEstimator, NotFittedError, check_array
from .metrics import r2_score

__all__ = [
    "BaseRegressor",
    "check_X_y_regression",
    "DummyRegressor",
    "RidgeRegressor",
    "LassoRegressor",
    "SVR",
    "KNeighborsRegressor",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "ExtraTreesRegressor",
    "GradientBoostingRegressor",
]


def check_X_y_regression(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate a regression training pair: 2-D float X, 1-D finite float y."""
    X = check_array(X)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-D target vector, got shape {y.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(
            f"X and y have inconsistent lengths: {X.shape[0]} != {y.shape[0]}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains NaN or infinite values")
    return X, y


class BaseRegressor(BaseEstimator):
    """Common machinery for every regressor in the catalogue.

    Subclasses implement ``_fit(X, y)`` and ``_predict(X)``; input validation
    is handled here, and the hyperparameter protocol comes from
    :class:`~repro.learners.base.BaseEstimator`, as it does for
    :class:`~repro.learners.base.BaseClassifier`, so both estimator kinds are
    interchangeable to the HPO and execution layers.
    """

    def __init__(self) -> None:
        self.n_features_in_: int | None = None

    # -- fit / predict protocol --------------------------------------------------
    def fit(self, X: Any, y: Any) -> "BaseRegressor":
        X, y = check_X_y_regression(X, y)
        self.n_features_in_ = X.shape[1]
        self._fit(X, y)
        return self

    def predict(self, X: Any) -> np.ndarray:
        if self.n_features_in_ is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; call fit() first"
            )
        X = check_array(X)
        return np.asarray(self._predict(X), dtype=np.float64).reshape(-1)

    def score(self, X: Any, y: Any) -> float:
        """Return the R² of ``predict(X)`` against ``y``."""
        return r2_score(np.asarray(y, dtype=np.float64), self.predict(X))

    # -- subclass hooks ----------------------------------------------------------
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DummyRegressor(BaseRegressor):
    """Predict the training mean (or median) — the ZeroR of regression."""

    def __init__(self, strategy: str = "mean") -> None:
        super().__init__()
        self.strategy = strategy

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.strategy not in ("mean", "median"):
            raise ValueError(f"unknown strategy {self.strategy!r}; use 'mean' or 'median'")
        self.constant_ = float(np.median(y) if self.strategy == "median" else y.mean())

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.constant_)


class _StandardizedLinear(BaseRegressor):
    """Shared standardise-then-solve scaffolding for the linear regressors."""

    def _standardize_fit(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._x_mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._x_scale = scale
        self._y_mean = float(y.mean())
        return (X - self._x_mean) / self._x_scale, y - self._y_mean

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self._x_mean) / self._x_scale

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self._standardize(X) @ self.coef_ + self._y_mean


class RidgeRegressor(_StandardizedLinear):
    """L2-regularised linear regression solved in closed form."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = alpha

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        Xs, yc = self._standardize_fit(X, y)
        n_features = Xs.shape[1]
        gram = Xs.T @ Xs + float(self.alpha) * np.eye(n_features)
        self.coef_ = np.linalg.solve(gram + 1e-10 * np.eye(n_features), Xs.T @ yc)


class LassoRegressor(_StandardizedLinear):
    """L1-regularised linear regression trained by cyclic coordinate descent."""

    def __init__(self, alpha: float = 0.1, max_iter: int = 200, tol: float = 1e-5) -> None:
        super().__init__()
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        Xs, yc = self._standardize_fit(X, y)
        n_samples, n_features = Xs.shape
        threshold = float(self.alpha) * n_samples
        col_norms = (Xs**2).sum(axis=0)
        col_norms[col_norms == 0] = 1.0
        coef = np.zeros(n_features)
        residual = yc.copy()
        for _ in range(int(self.max_iter)):
            max_delta = 0.0
            for j in range(n_features):
                old = coef[j]
                rho = Xs[:, j] @ residual + old * col_norms[j]
                new = np.sign(rho) * max(abs(rho) - threshold, 0.0) / col_norms[j]
                if new != old:
                    residual += Xs[:, j] * (old - new)
                    coef[j] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < self.tol:
                break
        self.coef_ = coef


class SVR(_StandardizedLinear):
    """Linear support-vector regression (epsilon-insensitive loss, subgradient).

    Minimises ``1/(2C) ||w||² + mean(max(0, |Xw - y| - epsilon))`` by averaged
    subgradient descent on standardised inputs — the linear-kernel member of
    the SVR family, adequate at the catalogue's dataset scales.
    """

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        max_iter: int = 200,
        learning_rate: float = 0.05,
    ) -> None:
        super().__init__()
        self.C = C
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.learning_rate = learning_rate

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        Xs, yc = self._standardize_fit(X, y)
        n_samples, n_features = Xs.shape
        y_scale = max(float(np.abs(yc).max()), 1e-12)
        ys = yc / y_scale
        eps = float(self.epsilon) / y_scale
        l2 = 1.0 / (float(self.C) * n_samples)
        w = np.zeros(n_features)
        averaged = np.zeros(n_features)
        for iteration in range(int(self.max_iter)):
            errors = Xs @ w - ys
            outside = np.abs(errors) > eps
            grad = Xs[outside].T @ np.sign(errors[outside]) / n_samples + l2 * w
            w -= self.learning_rate / np.sqrt(1.0 + iteration) * grad
            averaged += w
        self.coef_ = averaged / max(1, int(self.max_iter)) * y_scale


class KNeighborsRegressor(BaseRegressor):
    """k-nearest-neighbours regression with uniform or distance weighting."""

    def __init__(self, n_neighbors: int = 5, weighting: str = "uniform", p: int = 2) -> None:
        super().__init__()
        self.n_neighbors = n_neighbors
        self.weighting = weighting
        self.p = p

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.weighting not in ("uniform", "distance"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 (manhattan) or 2 (euclidean)")
        self._X = X
        self._y = y

    def _predict(self, X: np.ndarray) -> np.ndarray:
        k = min(int(self.n_neighbors), self._X.shape[0])
        out = np.empty(X.shape[0])
        # Chunks bound the (rows, train, d) broadcast diff tensor; the
        # per-row arithmetic is elementwise, so chunking is value-neutral.
        cols = self._X.shape[0] * self._X.shape[1]
        for rows in kernels.query_chunks(X.shape[0], cols):
            diff = X[rows, None, :] - self._X[None, :, :]
            if self.p == 1:
                distances = np.abs(diff).sum(axis=2)
            else:
                distances = np.sqrt((diff**2).sum(axis=2))
            neighbor_idx = np.argpartition(distances, k - 1, axis=1)[:, :k]
            vals = self._y[neighbor_idx]
            if self.weighting == "distance":
                weights = 1.0 / (np.take_along_axis(distances, neighbor_idx, axis=1) + 1e-9)
                out[rows] = (vals * weights).sum(axis=1) / weights.sum(axis=1)
            else:
                out[rows] = vals.mean(axis=1)
        return out


class _RegressionNode:
    """A node of a fitted regression tree; leaves carry the mean target."""

    __slots__ = ("prediction", "feature", "threshold", "left", "right")

    def __init__(self, prediction: float) -> None:
        self.prediction = prediction
        self.feature: int | None = None
        self.threshold: float | None = None
        self.left: "_RegressionNode | None" = None
        self.right: "_RegressionNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeRegressor(BaseRegressor):
    """CART-style binary regression tree splitting on variance reduction.

    ``max_features`` follows the classifier tree's convention (``None``,
    ``"sqrt"``, ``"log2"`` or an int) so the forest ensembles can subsample
    candidate features per split.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        orders: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        min_leaf = max(1, int(self.min_samples_leaf))
        candidates = kernels.candidate_features(self.max_features, X.shape[1], rng)
        best: tuple[int, float] | None = None
        # ``idx`` holds the node's members in base-row order — the same order
        # the historical implementation reduced over, so the SSE floor (and
        # every prefix sum below, which runs in stable sorted order) is
        # bit-identical to the per-node-sort code path.
        node_y = y[idx]
        best_sse = float(np.sum((node_y - node_y.mean()) ** 2)) - 1e-12
        for j in candidates:
            order = orders[j]
            result = kernels.best_split_regression(
                X[order, j], y[order], min_leaf, best_sse
            )
            if result is None:
                continue
            best_sse, threshold = result
            best = (int(j), threshold)
        return best

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        orders: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> _RegressionNode:
        node_y = y[idx]
        node = _RegressionNode(float(node_y.mean()))
        if (
            (self.max_depth is not None and depth >= int(self.max_depth))
            or len(node_y) < max(2, int(self.min_samples_split))
            or np.all(node_y == node_y[0])
        ):
            return node
        split = self._best_split(X, y, idx, orders, rng)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node_mask = mask[idx]
        if not node_mask.any() or node_mask.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(
            X, y, idx[node_mask], kernels.filter_orders(orders, mask), depth + 1, rng
        )
        node.right = self._grow(
            X, y, idx[~node_mask], kernels.filter_orders(orders, ~mask), depth + 1, rng
        )
        return node

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        # Per-feature stable sort orders, computed once per fit and filtered
        # down the recursion — no node ever sorts again.
        orders = kernels.feature_orders(X)
        idx = np.arange(X.shape[0], dtype=np.int64)
        self.root_ = self._grow(X, y, idx, orders, depth=0, rng=rng)
        self._flat = kernels.flatten_tree(self.root_, 1)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        leaves = kernels.flat_predict_indices(self._flat, X)
        return self._flat.prediction[leaves, 0]


class RandomForestRegressor(BaseRegressor):
    """Bagged ensemble of feature-subsampled regression trees."""

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

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.estimators_: list[DecisionTreeRegressor] = []
        for _ in range(int(self.n_estimators)):
            seed = int(rng.integers(0, 2**31 - 1))
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        predictions = np.stack([tree.predict(X) for tree in self.estimators_])
        return predictions.mean(axis=0)


class ExtraTreesRegressor(RandomForestRegressor):
    """Extremely-randomised variant: no bootstrap, full-sample random trees."""

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


class GradientBoostingRegressor(BaseRegressor):
    """Least-squares gradient boosting over shallow regression trees."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.init_ = float(y.mean())
        self.estimators_: list[DecisionTreeRegressor] = []
        residual = y - self.init_
        for _ in range(int(self.n_estimators)):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.subsample < 1.0:
                size = max(2, int(round(self.subsample * n)))
                idx = rng.choice(n, size=size, replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=max(1, int(self.max_depth)), random_state=seed
            )
            tree.fit(X[idx], residual[idx])
            residual -= self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], self.init_)
        for tree in self.estimators_:
            out += self.learning_rate * tree.predict(X)
        return out
