"""Neural-network learners.

``MLPClassifier`` / ``MLPRegressor`` implement a from-scratch multilayer
perceptron exposing exactly the ten hyperparameters of the paper's Table II
(hidden_layer, hidden_layer_size, activation, solver, learning_rate, max_iter,
momentum, validation_fraction, beta_1, beta_2) so the architecture-search step
(Algorithm 3) can be reproduced faithfully.  ``RBFNetwork`` and
``MultilayerPerceptron`` round out the Weka catalogue entries.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import BaseClassifier, check_array, check_is_fitted, export_labels

__all__ = ["MLPNetwork", "MLPClassifier", "MLPRegressor", "MultilayerPerceptron", "RBFNetwork"]

_ACTIVATIONS = ("relu", "tanh", "logistic", "identity")
_SOLVERS = ("lbfgs", "sgd", "adam")
_LEARNING_RATES = ("constant", "invscaling", "adaptive")


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """Apply a hidden-layer activation to ``z`` in place and return it."""
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "tanh":
        np.tanh(z, out=z)
    elif kind == "logistic":
        z[...] = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
    return z


def _layer_views(
    flat: np.ndarray, shapes: list[tuple[int, int]]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into ``flat``: all weights, then all biases."""
    weights, biases, offset = [], [], 0
    for a, b in shapes:
        weights.append(flat[offset : offset + a * b].reshape(a, b))
        offset += a * b
    for _, b in shapes:
        biases.append(flat[offset : offset + b])
        offset += b
    return weights, biases


class MLPNetwork:
    """Bare multilayer perceptron trained by mini-batch gradient methods.

    This is the shared engine behind :class:`MLPClassifier` and
    :class:`MLPRegressor`; the ``task`` argument switches between a softmax
    cross-entropy head and a linear squared-error head.

    ``fit`` keeps the parameters in one flat buffer (all weights, then all
    biases) with ``weights_`` and ``biases_`` as per-layer views, and the
    gradients, SGD velocity and Adam moments in matching flat buffers, so
    weight decay, each optimiser step and the best-weights snapshot are a few
    whole-buffer calls whatever the depth.  Every elementwise operation keeps
    the operands and order of a per-layer update, so the rounding is the
    same; ``tests/learners/test_mlp_equivalence.py`` checks that bit for bit
    against the per-layer engine.  ``forward`` also takes plain per-layer
    lists assigned from outside.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        task: str,
        activation: str = "relu",
        solver: str = "adam",
        learning_rate: str = "constant",
        learning_rate_init: float = 0.01,
        max_iter: int = 200,
        momentum: float = 0.9,
        validation_fraction: float = 0.1,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        alpha: float = 1e-4,
        batch_size: int = 32,
        tol: float = 1e-5,
        random_state: int | None = None,
    ) -> None:
        if task not in ("classification", "regression"):
            raise ValueError(f"unknown task {task!r}")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if solver not in _SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
        if learning_rate not in _LEARNING_RATES:
            raise ValueError(f"unknown learning_rate schedule {learning_rate!r}")
        self.layer_sizes = list(layer_sizes)
        self.task = task
        self.activation = activation
        self.solver = solver
        self.learning_rate = learning_rate
        self.learning_rate_init = learning_rate_init
        self.max_iter = max_iter
        self.momentum = momentum
        self.validation_fraction = validation_fraction
        self.beta_1 = beta_1
        self.beta_2 = beta_2
        self.alpha = alpha
        self.batch_size = batch_size
        self.tol = tol
        self.random_state = random_state

    # -- forward / backward --------------------------------------------------------
    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        activations = [X]
        last_layer = len(self.weights_) - 1
        for i, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            z = activations[-1] @ W
            z += b
            if i < last_layer:
                _activate(z, self.activation)
            elif self.task == "classification":
                z -= z.max(axis=1, keepdims=True)
                np.exp(z, out=z)
                z /= z.sum(axis=1, keepdims=True)
            activations.append(z)
        return activations

    def _backward(
        self,
        activations: list[np.ndarray],
        Y: np.ndarray,
        grads_W: list[np.ndarray],
        grads_b: list[np.ndarray],
    ) -> None:
        """Write the data term of each layer's gradient into its view."""
        # Both softmax+cross-entropy and identity+MSE have the same output delta.
        delta = (activations[-1] - Y) / Y.shape[0]
        for i in range(len(self.weights_) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=grads_W[i])
            delta.sum(axis=0, out=grads_b[i])
            if i > 0:
                delta = delta @ self.weights_[i].T
                a = activations[i]
                if self.activation == "relu":
                    delta *= a > 0
                elif self.activation == "tanh":
                    delta *= np.subtract(1.0, a * a)
                elif self.activation == "logistic":
                    delta *= a * (1.0 - a)

    def _loss(self, X: np.ndarray, Y: np.ndarray) -> float:
        output = self._forward(X)[-1]
        if self.task == "classification":
            return float(-np.mean(np.sum(Y * np.log(np.clip(output, 1e-12, None)), axis=1)))
        return float(np.mean((output - Y) ** 2))

    # -- training ------------------------------------------------------------------
    def fit(self, X: np.ndarray, Y: np.ndarray) -> "MLPNetwork":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y.reshape(-1, 1)
        rng = np.random.default_rng(self.random_state)
        sizes = [X.shape[1]] + self.layer_sizes + [Y.shape[1]]
        shapes = list(zip(sizes[:-1], sizes[1:]))
        n_weights = sum(a * b for a, b in shapes)
        params = np.zeros(n_weights + sum(sizes[1:]))
        self.weights_, self.biases_ = _layer_views(params, shapes)
        for W, (a, b) in zip(self.weights_, shapes):
            limit = np.sqrt(6.0 / (a + b))
            W[...] = rng.uniform(-limit, limit, size=(a, b))

        n = X.shape[0]
        use_validation = 0.0 < self.validation_fraction < 0.9 and n >= 20
        if use_validation:
            n_val = max(2, int(round(self.validation_fraction * n)))
            permutation = rng.permutation(n)
            val_idx, train_idx = permutation[:n_val], permutation[n_val:]
            X_train, Y_train = X[train_idx], Y[train_idx]
            X_val, Y_val = X[val_idx], Y[val_idx]
        else:
            X_train, Y_train = X, Y
            X_val, Y_val = X, Y

        grads = np.empty_like(params)
        grads_W, grads_b = _layer_views(grads, shapes)
        step, denom, best = (np.empty_like(params) for _ in range(3))
        velocity, m, v = (np.zeros_like(params) for _ in range(3))
        weights, weight_grads, weight_decay = params[:n_weights], grads[:n_weights], step[:n_weights]

        best_val = np.inf
        improved = False
        patience, stale = 15, 0
        adam_step = 0
        base_lr = self.learning_rate_init
        lr = base_lr
        batch = max(2, min(int(self.batch_size), X_train.shape[0]))

        for epoch in range(int(self.max_iter)):
            if self.learning_rate == "invscaling":
                lr = base_lr / (1.0 + epoch) ** 0.5
            order = rng.permutation(X_train.shape[0])
            for start in range(0, len(order), batch):
                idx = order[start : start + batch]
                activations = self._forward(X_train[idx])
                self._backward(activations, Y_train[idx], grads_W, grads_b)
                # grad_W = data term + alpha * W, over every layer at once.
                np.multiply(self.alpha, weights, out=weight_decay)
                weight_grads += weight_decay
                if self.solver == "adam":
                    adam_step += 1
                    m *= self.beta_1
                    np.multiply(1 - self.beta_1, grads, out=step)
                    m += step
                    v *= self.beta_2
                    np.square(grads, out=step)
                    step *= 1 - self.beta_2
                    v += step
                    np.divide(m, 1 - self.beta_1**adam_step, out=step)
                    np.divide(v, 1 - self.beta_2**adam_step, out=denom)
                    np.sqrt(denom, out=denom)
                    denom += 1e-8
                    step *= lr
                    step /= denom
                    params -= step
                elif self.solver == "sgd":
                    velocity *= self.momentum
                    np.multiply(lr, grads, out=step)
                    velocity -= step
                    params += velocity
                else:  # "lbfgs" approximated by plain full-precision gradient steps
                    np.multiply(lr, grads, out=step)
                    params -= step

            val_loss = self._loss(X_val, Y_val)
            if val_loss < best_val - self.tol:
                best_val = val_loss
                np.copyto(best, params)
                improved = True
                stale = 0
            else:
                stale += 1
                if self.learning_rate == "adaptive" and stale % 5 == 0:
                    lr = max(lr / 2.0, 1e-5)
                if stale >= patience:
                    break
        # The fitted layers are views of the best snapshot; the working
        # buffers are dropped with this frame.
        self.weights_, self.biases_ = _layer_views(best if improved else params, shapes)
        self.best_validation_loss_ = float(best_val)
        return self

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self._forward(np.asarray(X, dtype=np.float64))[-1]


class MLPClassifier(BaseClassifier):
    """Softmax MLP classifier exposing the Table II hyperparameters."""

    def __init__(
        self,
        hidden_layer: int = 1,
        hidden_layer_size: int = 32,
        activation: str = "relu",
        solver: str = "adam",
        learning_rate: str = "constant",
        learning_rate_init: float = 0.01,
        max_iter: int = 200,
        momentum: float = 0.9,
        validation_fraction: float = 0.1,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        alpha: float = 1e-4,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.hidden_layer = hidden_layer
        self.hidden_layer_size = hidden_layer_size
        self.activation = activation
        self.solver = solver
        self.learning_rate = learning_rate
        self.learning_rate_init = learning_rate_init
        self.max_iter = max_iter
        self.momentum = momentum
        self.validation_fraction = validation_fraction
        self.beta_1 = beta_1
        self.beta_2 = beta_2
        self.alpha = alpha
        self.random_state = random_state

    def _build_network(self, n_outputs: int) -> MLPNetwork:
        layers = [int(self.hidden_layer_size)] * max(1, int(self.hidden_layer))
        return MLPNetwork(
            layer_sizes=layers,
            task="classification",
            activation=self.activation,
            solver=self.solver,
            learning_rate=self.learning_rate,
            learning_rate_init=self.learning_rate_init,
            max_iter=self.max_iter,
            momentum=self.momentum,
            validation_fraction=self.validation_fraction,
            beta_1=self.beta_1,
            beta_2=self.beta_2,
            alpha=self.alpha,
            random_state=self.random_state,
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        Xs = (X - self._mean) / self._scale
        Y = np.zeros((X.shape[0], len(self.classes_)))
        Y[np.arange(X.shape[0]), y] = 1.0
        self.network_ = self._build_network(len(self.classes_))
        self.network_.fit(Xs, Y)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        return self.network_.forward(Xs)

    def export_params(self) -> dict:
        check_is_fitted(self)
        return {
            "kind": "mlp_classifier",
            "task": "classification",
            "mean": self._mean.tolist(),
            "scale": self._scale.tolist(),
            "weights": [W.tolist() for W in self.network_.weights_],
            "biases": [b.tolist() for b in self.network_.biases_],
            "activation": self.activation,
            "classes": export_labels(self.classes_),
        }


class MultilayerPerceptron(MLPClassifier):
    """Weka-catalogue alias: a 2-hidden-layer sigmoid MLP trained with SGD."""

    def __init__(
        self,
        hidden_layer_size: int = 16,
        learning_rate_init: float = 0.1,
        max_iter: int = 200,
        momentum: float = 0.8,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            hidden_layer=2,
            hidden_layer_size=hidden_layer_size,
            activation="logistic",
            solver="sgd",
            learning_rate="constant",
            learning_rate_init=learning_rate_init,
            max_iter=max_iter,
            momentum=momentum,
            random_state=random_state,
        )


class MLPRegressor:
    """MLP regressor with the Table II hyperparameters (used by Algorithm 3).

    The output layer is linear and the model is scored with mean squared
    error; the OneHot' targets of the paper (one-hot with -1 for inapplicable
    algorithms) are plain real-valued targets from this model's perspective.
    """

    def __init__(
        self,
        hidden_layer: int = 1,
        hidden_layer_size: int = 32,
        activation: str = "relu",
        solver: str = "adam",
        learning_rate: str = "constant",
        learning_rate_init: float = 0.01,
        max_iter: int = 200,
        momentum: float = 0.9,
        validation_fraction: float = 0.1,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        alpha: float = 1e-4,
        random_state: int | None = None,
    ) -> None:
        self.hidden_layer = hidden_layer
        self.hidden_layer_size = hidden_layer_size
        self.activation = activation
        self.solver = solver
        self.learning_rate = learning_rate
        self.learning_rate_init = learning_rate_init
        self.max_iter = max_iter
        self.momentum = momentum
        self.validation_fraction = validation_fraction
        self.beta_1 = beta_1
        self.beta_2 = beta_2
        self.alpha = alpha
        self.random_state = random_state
        self.network_: MLPNetwork | None = None

    def get_params(self) -> dict:
        return {
            "hidden_layer": self.hidden_layer,
            "hidden_layer_size": self.hidden_layer_size,
            "activation": self.activation,
            "solver": self.solver,
            "learning_rate": self.learning_rate,
            "learning_rate_init": self.learning_rate_init,
            "max_iter": self.max_iter,
            "momentum": self.momentum,
            "validation_fraction": self.validation_fraction,
            "beta_1": self.beta_1,
            "beta_2": self.beta_2,
            "alpha": self.alpha,
            "random_state": self.random_state,
        }

    def set_params(self, **params) -> "MLPRegressor":
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError(f"invalid parameter {key!r} for MLPRegressor")
            setattr(self, key, value)
        return self

    def fit(self, X, Y) -> "MLPRegressor":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y.reshape(-1, 1)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # NaN-aware statistics, consistent with the preprocessing
            # scalers: meta-feature matrices may carry NaN cells, and plain
            # mean/std would poison the whole column (the ``scale == 0``
            # guard never matches NaN).
            warnings.simplefilter("ignore", category=RuntimeWarning)
            mean = np.nanmean(X, axis=0)
            scale = np.nanstd(X, axis=0)
        self._mean = np.where(np.isnan(mean), 0.0, mean)
        self._scale = np.where(np.isnan(scale) | (scale == 0), 1.0, scale)
        layers = [int(self.hidden_layer_size)] * max(1, int(self.hidden_layer))
        self.network_ = MLPNetwork(
            layer_sizes=layers,
            task="regression",
            activation=self.activation,
            solver=self.solver,
            learning_rate=self.learning_rate,
            learning_rate_init=self.learning_rate_init,
            max_iter=self.max_iter,
            momentum=self.momentum,
            validation_fraction=self.validation_fraction,
            beta_1=self.beta_1,
            beta_2=self.beta_2,
            alpha=self.alpha,
            random_state=self.random_state,
        )
        self.n_outputs_ = Y.shape[1]
        self.network_.fit((X - self._mean) / self._scale, Y)
        return self

    def predict(self, X) -> np.ndarray:
        if self.network_ is None:
            raise RuntimeError("MLPRegressor is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        output = self.network_.forward((X - self._mean) / self._scale)
        return output if self.n_outputs_ > 1 else output.ravel()

    def export_params(self) -> dict:
        if self.network_ is None:
            raise RuntimeError("MLPRegressor is not fitted")
        return {
            "kind": "mlp_regressor",
            "task": "regression",
            "mean": self._mean.tolist(),
            "scale": self._scale.tolist(),
            "weights": [W.tolist() for W in self.network_.weights_],
            "biases": [b.tolist() for b in self.network_.biases_],
            "activation": self.activation,
            "n_outputs": int(self.n_outputs_),
        }


class RBFNetwork(BaseClassifier):
    """Radial-basis-function network: k-means centres + logistic output layer."""

    def __init__(
        self,
        n_centers: int = 10,
        gamma: float | None = None,
        max_iter: int = 150,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.n_centers = n_centers
        self.gamma = gamma
        self.max_iter = max_iter
        self.random_state = random_state

    @staticmethod
    def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 20) -> np.ndarray:
        k = min(k, X.shape[0])
        centers = X[rng.choice(X.shape[0], size=k, replace=False)]
        for _ in range(iters):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assignment = d2.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(k):
                members = X[assignment == j]
                if len(members):
                    new_centers[j] = members.mean(axis=0)
            if np.allclose(new_centers, centers):
                break
            centers = new_centers
        return centers

    def _rbf_features(self, X: np.ndarray) -> np.ndarray:
        d2 = ((X[:, None, :] - self.centers_[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-self._gamma_value * d2)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        from .linear import LogisticRegression

        if self.n_centers < 1:
            raise ValueError("n_centers must be >= 1")
        rng = np.random.default_rng(self.random_state)
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        Xs = (X - self._mean) / self._scale
        self.centers_ = self._kmeans(Xs, int(self.n_centers), rng)
        if self.gamma is None:
            pairwise = ((self.centers_[:, None, :] - self.centers_[None, :, :]) ** 2).sum(axis=2)
            positive = pairwise[pairwise > 0]
            spread = np.median(positive) if positive.size else 1.0
            self._gamma_value = 1.0 / max(spread, 1e-6)
        else:
            self._gamma_value = float(self.gamma)
        features = self._rbf_features(Xs)
        self.output_ = LogisticRegression(max_iter=self.max_iter)
        self.output_.fit(features, y)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        features = self._rbf_features(Xs)
        proba = self.output_.predict_proba(features)
        out = np.zeros((X.shape[0], len(self.classes_)))
        for local_index, label in enumerate(self.output_.classes_):
            out[:, int(label)] = proba[:, local_index]
        return out
