"""Task-instance feature extraction (the ``Fs(I)`` / ``KFs(I)`` of the paper).

Every online recommendation starts by computing the Table III meta-features
of the user's dataset, which makes :meth:`FeatureExtractor.raw_vector` the
hot path of the serving subsystem.  The module therefore keeps a process-wide
:class:`FeatureCache`: raw (pre-normalisation) feature values memoized per
``(dataset.fingerprint, feature_name)``, so repeat queries for the same data
— and extractors restricted to feature subsets — never recompute a feature.
Normalisation stays outside the cache (it is per-extractor state).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..datasets.dataset import Dataset
from .features import FEATURE_FUNCTIONS, FEATURE_NAMES, extract

__all__ = ["FeatureExtractor", "FeatureCache", "FeatureCacheStats", "feature_cache"]


@dataclass
class FeatureCacheStats:
    """Counters the process-wide feature cache accumulates (engine-style)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
        }


class FeatureCache:
    """Bounded, thread-safe memo of raw meta-feature values.

    Keys are ``(dataset.fingerprint, feature_name)`` so the memo is shared by
    every extractor in the process, including :meth:`FeatureExtractor.restrict`
    subsets.  LRU eviction bounds memory for long-lived serving processes.
    """

    def __init__(self, maxsize: int = 100_000) -> None:
        self.maxsize = int(maxsize)
        self._enabled = True
        self._disabled_depth = 0
        self.stats = FeatureCacheStats()
        self._lock = threading.Lock()
        self._values: OrderedDict[tuple[str, str], float] = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self._enabled and self._disabled_depth == 0

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def clear(self) -> None:
        """Drop every cached value (stats are kept)."""
        with self._lock:
            self._values.clear()

    def reset_stats(self) -> None:
        self.stats = FeatureCacheStats()

    @contextmanager
    def disabled(self):
        """Context manager bypassing the cache (used by benchmarks/baselines).

        Depth-counted rather than save/restore, so overlapping ``disabled()``
        sections on different threads compose: the cache is off while any
        section is active and back on when the last one exits.
        """
        with self._lock:
            self._disabled_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._disabled_depth -= 1

    def vector(self, dataset: Dataset, feature_names: list[str]) -> np.ndarray:
        """Raw feature vector for ``dataset``, served from the memo."""
        fingerprint = dataset.fingerprint
        values = np.empty(len(feature_names), dtype=np.float64)
        missing: list[tuple[int, str]] = []
        with self._lock:
            for position, name in enumerate(feature_names):
                key = (fingerprint, name)
                if key in self._values:
                    self._values.move_to_end(key)
                    values[position] = self._values[key]
                    self.stats.hits += 1
                else:
                    missing.append((position, name))
                    self.stats.misses += 1
        if missing:
            computed = extract(dataset, [name for _, name in missing])
            for (position, _), value in zip(missing, computed):
                values[position] = value
            with self._lock:
                for position, name in missing:
                    self._values[(fingerprint, name)] = values[position]
                    self._values.move_to_end((fingerprint, name))
                while len(self._values) > self.maxsize:
                    self._values.popitem(last=False)
                    self.stats.evictions += 1
        return values


#: Process-wide raw-feature memo shared by every extractor.
feature_cache = FeatureCache()


class FeatureExtractor:
    """Compute a fixed subset of the Table III features as a dense vector.

    Parameters
    ----------
    feature_names:
        Ordered list of feature names to extract; defaults to all 23.
    normalize:
        When ``True`` (the default for model training), features are scaled
        with statistics learned from a reference collection via :meth:`fit`,
        so that count-like features (f9 = number of records) do not dominate
        proportion-like ones.
    """

    def __init__(self, feature_names: list[str] | None = None, normalize: bool = True) -> None:
        names = list(feature_names) if feature_names is not None else list(FEATURE_NAMES)
        unknown = [n for n in names if n not in FEATURE_FUNCTIONS]
        if unknown:
            raise ValueError(f"unknown features: {unknown}")
        if not names:
            raise ValueError("at least one feature is required")
        self.feature_names = names
        self.normalize = normalize
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    # -- raw extraction ---------------------------------------------------------------
    def raw_vector(self, dataset: Dataset, use_cache: bool = True) -> np.ndarray:
        """Un-normalised feature vector in the order of ``feature_names``.

        Served from the process-wide :data:`feature_cache` (keyed by the
        dataset's content fingerprint) unless the cache is disabled or
        ``use_cache=False``.
        """
        if use_cache and feature_cache.enabled:
            return feature_cache.vector(dataset, self.feature_names)
        return np.array(extract(dataset, self.feature_names), dtype=np.float64)

    def raw_matrix(self, datasets: list[Dataset]) -> np.ndarray:
        if not datasets:
            raise ValueError("empty dataset list")
        return np.vstack([self.raw_vector(d) for d in datasets])

    # -- normalisation ------------------------------------------------------------------
    def fit(self, datasets: list[Dataset]) -> "FeatureExtractor":
        """Learn normalisation statistics from a reference dataset collection."""
        matrix = self.raw_matrix(datasets)
        self._mean = matrix.mean(axis=0)
        scale = matrix.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        return self

    def transform(self, dataset: Dataset) -> np.ndarray:
        """Feature vector for one dataset (normalised if :meth:`fit` was called)."""
        vector = self.raw_vector(dataset)
        if self.normalize and self._mean is not None:
            vector = (vector - self._mean) / self._scale
        return vector

    def transform_many(self, datasets: list[Dataset]) -> np.ndarray:
        return np.vstack([self.transform(d) for d in datasets])

    def fit_transform(self, datasets: list[Dataset]) -> np.ndarray:
        return self.fit(datasets).transform_many(datasets)

    # -- subsetting ----------------------------------------------------------------------
    def restrict(self, feature_names: list[str]) -> "FeatureExtractor":
        """Return a new extractor over a subset of this one's features.

        Normalisation statistics are carried over for the retained features so
        a restriction of a fitted extractor is itself fitted.
        """
        missing = [n for n in feature_names if n not in self.feature_names]
        if missing:
            raise ValueError(f"features not present in this extractor: {missing}")
        restricted = FeatureExtractor(feature_names, normalize=self.normalize)
        if self._mean is not None:
            indices = [self.feature_names.index(n) for n in feature_names]
            restricted._mean = self._mean[indices]
            restricted._scale = self._scale[indices]
        return restricted

    def __len__(self) -> int:
        return len(self.feature_names)

    def __repr__(self) -> str:
        return f"FeatureExtractor({self.feature_names})"
