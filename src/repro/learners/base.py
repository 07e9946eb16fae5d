"""Base classes shared by every learner in the catalogue.

The learner substrate replaces the Weka classifier library used by the paper.
Every classifier follows a small, sklearn-like protocol:

* ``fit(X, y)`` — train on a dense float matrix ``X`` (categorical attributes
  are expected to have been encoded upstream) and an integer label vector
  ``y`` in ``{0, ..., n_classes - 1}``.
* ``predict(X)`` — return integer labels.
* ``predict_proba(X)`` — return an ``(n_samples, n_classes)`` probability
  matrix.  Learners that are not naturally probabilistic return one-hot rows.
* ``get_params()`` / ``set_params(**params)`` — hyperparameter access used by
  the HPO layer; constructor keyword arguments are the hyperparameters.

The classes here deliberately avoid any sklearn dependency: the execution
environment has no scikit-learn, so the catalogue is implemented from scratch
on top of numpy.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

import numpy as np

__all__ = [
    "BaseClassifier",
    "BaseEstimator",
    "NotFittedError",
    "check_X_y",
    "check_array",
    "check_is_fitted",
    "clone",
    "export_labels",
]


def export_labels(classes: Any) -> list:
    """JSON-able copy of a fitted ``classes_`` vector (numpy scalars → python).

    Part of the ``export_params()`` contract implemented by the exportable
    learner families (see :mod:`repro.export`): every exported label must
    survive a JSON round trip and compare equal to the live prediction.
    """
    return np.asarray(classes).tolist()


class NotFittedError(RuntimeError):
    """Raised when ``predict`` is called before ``fit``."""


def check_array(X: Any) -> np.ndarray:
    """Coerce ``X`` to a 2-D float64 array and validate its shape."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("X has zero samples")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values; impute first")
    return X


def check_X_y(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training pair: 2-D float X, 1-D integer y, matching lengths."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-D label vector, got shape {y.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(
            f"X and y have inconsistent lengths: {X.shape[0]} != {y.shape[0]}"
        )
    if y.dtype.kind not in "iu":
        y_int = y.astype(np.int64)
        if not np.array_equal(y_int, y.astype(np.float64)):
            raise ValueError("y must contain integer class labels")
        y = y_int
    return X, y.astype(np.int64)


def check_is_fitted(estimator: Any, attribute: str = "classes_") -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` carries ``attribute``."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )


def clone(estimator: "BaseEstimator") -> "BaseEstimator":
    """Return an unfitted copy of ``estimator`` with identical hyperparameters."""
    return type(estimator)(**copy.deepcopy(estimator.get_params()))


class BaseEstimator:
    """The hyperparameter protocol every classifier and regressor shares:
    constructor keyword arguments are the hyperparameters."""

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        """The constructor's keyword names, read from its signature once per
        class (a subclass with its own ``__init__`` gets its own entry)."""
        names = cls.__dict__.get("_init_param_names")
        if names is None:
            names = tuple(
                name
                for name, parameter in inspect.signature(cls.__init__).parameters.items()
                if name != "self"
                and parameter.kind
                not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
            )
            cls._init_param_names = names
        return names

    def get_params(self) -> dict[str, Any]:
        """Return the constructor keyword arguments of this estimator."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set hyperparameters in place and return ``self``."""
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


class BaseClassifier(BaseEstimator):
    """Common machinery for every classifier in the catalogue.

    Subclasses implement ``_fit(X, y)`` and ``_predict_proba(X)``; label
    bookkeeping (mapping arbitrary integer labels to a contiguous range and
    back) is handled here so individual learners can assume labels are
    ``0..n_classes-1``.
    """

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None

    # -- fit / predict protocol --------------------------------------------------
    def fit(self, X: Any, y: Any) -> "BaseClassifier":
        X, y = check_X_y(X, y)
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self.n_features_in_ = X.shape[1]
        self._fit(X, y_encoded.astype(np.int64))
        return self

    def predict_proba(self, X: Any) -> np.ndarray:
        check_is_fitted(self)
        X = check_array(X)
        proba = self._predict_proba(X)
        proba = np.asarray(proba, dtype=np.float64)
        # Guard against degenerate rows produced by numerical underflow.
        row_sums = proba.sum(axis=1, keepdims=True)
        row_sums[row_sums <= 0] = 1.0
        return proba / row_sums

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X: Any, y: Any) -> float:
        """Return the plain accuracy of ``predict(X)`` against ``y``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))

    # -- subclass hooks ----------------------------------------------------------
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------------
    @property
    def n_classes_(self) -> int:
        check_is_fitted(self)
        return int(len(self.classes_))
