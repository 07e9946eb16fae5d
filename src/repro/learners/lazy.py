"""Lazy (instance-based) learners: IBk, IB1, KStar and LWL analogues.

Prediction runs on the batched distance kernels of
:mod:`repro.learners.kernels`: queries are processed in chunks that bound the
pairwise-distance intermediate (a large predict no longer materialises the
full ``O(n_queries * n_train)`` matrix at once) and neighbour votes are
accumulated with one flattened ``bincount`` per chunk instead of a Python
loop per query row.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .base import BaseClassifier, check_is_fitted, export_labels

__all__ = ["IBk", "IB1", "KStar", "LWL"]


def _pairwise_sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``A`` and rows of ``B``."""
    return kernels.pairwise_sq_distances(A, B)


class IBk(BaseClassifier):
    """k-nearest-neighbours with optional distance weighting (Weka IBk)."""

    def __init__(
        self,
        n_neighbors: int = 5,
        weighting: str = "uniform",
        p: int = 2,
    ) -> None:
        super().__init__()
        self.n_neighbors = n_neighbors
        self.weighting = weighting
        self.p = p

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.weighting not in ("uniform", "distance"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        # Standardise so that no single attribute dominates the metric.
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        self._X = (X - self._mean) / self._scale
        self._y = y

    def _chunk_distances(self, Xs_chunk: np.ndarray, b2: np.ndarray | None) -> np.ndarray:
        if self.p == 1:
            return np.abs(Xs_chunk[:, None, :] - self._X[None, :, :]).sum(axis=2)
        return np.sqrt(kernels.pairwise_sq_distances(Xs_chunk, self._X, b2))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        k = min(int(self.n_neighbors), self._X.shape[0])
        n_classes = len(self.classes_)
        Xs = (X - self._mean) / self._scale
        b2 = None if self.p == 1 else np.sum(self._X * self._X, axis=1)
        # The Manhattan path broadcasts a (rows, train, d) diff tensor, so its
        # chunk budget accounts for the feature dimension as well.
        cols = self._X.shape[0] * (self._X.shape[1] if self.p == 1 else 1)
        proba = np.empty((X.shape[0], n_classes), dtype=np.float64)
        for rows in kernels.query_chunks(X.shape[0], cols):
            distances = self._chunk_distances(Xs[rows], b2)
            neighbor_idx = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
            if self.weighting == "distance":
                weights = 1.0 / (np.take_along_axis(distances, neighbor_idx, axis=1) + 1e-8)
            else:
                weights = np.ones(neighbor_idx.shape, dtype=np.float64)
            proba[rows] = kernels.knn_vote(self._y[neighbor_idx], weights, n_classes)
        return proba / proba.sum(axis=1, keepdims=True)

    def export_params(self) -> dict:
        check_is_fitted(self)
        params = {
            "kind": "knn",
            "mean": self._mean.tolist(),
            "scale": self._scale.tolist(),
            "X": self._X.tolist(),
            "y": [int(label) for label in self._y],
            "n_neighbors": int(self.n_neighbors),
            "weighting": self.weighting,
            "p": int(self.p),
            "classes": export_labels(self.classes_),
        }
        if self.p != 1:
            # Precomputed squared norms of the training rows, with the same
            # numpy reduction the live distance kernel performs.
            params["b2"] = np.sum(self._X * self._X, axis=1).tolist()
        return params


class IB1(IBk):
    """Single-nearest-neighbour classifier (Weka IB1)."""

    def __init__(self) -> None:
        super().__init__(n_neighbors=1, weighting="uniform")


class KStar(BaseClassifier):
    """KStar analogue: entropic-distance nearest neighbour.

    The true K* uses an entropy-based transformation probability; we keep its
    characteristic behaviour (all instances contribute, with exponentially
    decaying influence) via a Gaussian kernel over standardised distances whose
    bandwidth is controlled by ``blend``.
    """

    def __init__(self, blend: float = 0.2) -> None:
        super().__init__()
        self.blend = blend

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if not 0.0 < self.blend <= 1.0:
            raise ValueError("blend must be in (0, 1]")
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        self._X = (X - self._mean) / self._scale
        self._y = y
        # Bandwidth from the blend parameter: smaller blend → tighter kernel.
        distances = np.sqrt(_pairwise_sq_distances(self._X, self._X))
        positive = distances[distances > 0]
        median = np.median(positive) if positive.size else 1.0
        self._bandwidth = max(self.blend * median, 1e-6)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        n_classes = len(self.classes_)
        class_masks = [self._y == k for k in range(n_classes)]
        b2 = np.sum(self._X * self._X, axis=1)
        proba = np.empty((X.shape[0], n_classes), dtype=np.float64)
        for rows in kernels.query_chunks(X.shape[0], self._X.shape[0]):
            distances = np.sqrt(kernels.pairwise_sq_distances(Xs[rows], self._X, b2))
            kernel = np.exp(-0.5 * (distances / self._bandwidth) ** 2) + 1e-12
            for k in range(n_classes):
                proba[rows, k] = kernel[:, class_masks[k]].sum(axis=1)
        return proba / proba.sum(axis=1, keepdims=True)


class LWL(BaseClassifier):
    """Locally weighted learning: a weighted naive-Bayes model per query point.

    For each query the ``n_neighbors`` nearest training points are selected and
    a distance-weighted Gaussian class model is fitted on the fly — the lazy,
    locally-weighted behaviour of Weka's ``LWL`` wrapper with its default base.
    """

    def __init__(self, n_neighbors: int = 30) -> None:
        super().__init__()
        self.n_neighbors = n_neighbors

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_neighbors < 2:
            raise ValueError("n_neighbors must be >= 2")
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        self._X = (X - self._mean) / self._scale
        self._y = y

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self._mean) / self._scale
        k = min(int(self.n_neighbors), self._X.shape[0])
        n_classes = len(self.classes_)
        b2 = np.sum(self._X * self._X, axis=1)
        proba = np.empty((X.shape[0], n_classes), dtype=np.float64)
        for rows in kernels.query_chunks(X.shape[0], self._X.shape[0]):
            distances = np.sqrt(kernels.pairwise_sq_distances(Xs[rows], self._X, b2))
            neighbor_idx = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
            local_d = np.take_along_axis(distances, neighbor_idx, axis=1)
            bandwidth = local_d.max(axis=1, keepdims=True) + 1e-8
            weights = np.clip(1.0 - (local_d / bandwidth) ** 2, 0.0, None) + 1e-8
            proba[rows] = kernels.knn_vote(self._y[neighbor_idx], weights, n_classes)
        proba += 1e-8
        return proba / proba.sum(axis=1, keepdims=True)
