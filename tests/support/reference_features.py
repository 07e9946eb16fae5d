"""Frozen Table III features — the meta-feature equivalence oracle.

These functions preserve, verbatim, f1–f23 as :mod:`repro.metafeatures.features`
computed them before one shared pass replaced the per-feature recomputation:
every feature re-derives what it needs from the dataset, so f10–f17 each call
``np.unique`` over every categorical column again and f1–f4 each count the
target again.  ``tests/test_metafeature_equivalence.py`` asserts that the live
extraction paths (``FeatureCache.vector``, ``FeatureExtractor.raw_vector`` with
and without the cache, ``compute_feature``) give byte-identical values.

Do not use these in production paths and do not "fix" them — their value is
that they never change.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from repro.datasets.dataset import Dataset

__all__ = ["REFERENCE_FEATURE_FUNCTIONS", "reference_vector"]


def _entropy_of_values(values: np.ndarray) -> float:
    _, counts = np.unique(values, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def _target_proportions(dataset: Dataset) -> np.ndarray:
    _, counts = np.unique(dataset.target, return_counts=True)
    return counts / dataset.n_records


def _categorical_cardinalities(dataset: Dataset) -> np.ndarray:
    if dataset.n_categorical == 0:
        return np.array([])
    return np.array(
        [len(np.unique(dataset.categorical[:, j])) for j in range(dataset.n_categorical)]
    )


def _extreme_categorical_column(dataset: Dataset, mode: str) -> np.ndarray | None:
    """Return the values of A# (mode='min') or A? (mode='max'), or None."""
    cardinalities = _categorical_cardinalities(dataset)
    if cardinalities.size == 0:
        return None
    index = int(np.argmin(cardinalities)) if mode == "min" else int(np.argmax(cardinalities))
    return dataset.categorical[:, index]


def _column_proportions(values: np.ndarray) -> np.ndarray:
    _, counts = np.unique(values, return_counts=True)
    return counts / len(values)


def _numeric_averages(dataset: Dataset) -> np.ndarray:
    if dataset.n_numeric == 0:
        return np.array([])
    numeric = dataset.numeric
    if not np.isnan(numeric).any():
        # Clean data takes the historical path so the feature vectors feeding
        # existing decision models stay bit-identical.
        return numeric.mean(axis=0)
    return _nan_reduce(numeric, np.nanmean)


def _numeric_variances(dataset: Dataset) -> np.ndarray:
    if dataset.n_numeric == 0:
        return np.array([])
    numeric = dataset.numeric
    if not np.isnan(numeric).any():
        return numeric.var(axis=0)
    return _nan_reduce(numeric, np.nanvar)


def _nan_reduce(numeric: np.ndarray, reducer) -> np.ndarray:
    """Column statistics over the observed values; all-missing columns are 0.

    Messy task instances (MCAR missingness from ``datasets.corrupt``) must
    still map to a complete, finite feature vector — the decision model
    cannot score NaNs — so missing entries are simply excluded, matching how
    the empty-attribute-list features default to 0.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        values = reducer(numeric, axis=0)
    return np.where(np.isnan(values), 0.0, values)


# -- the 23 features -----------------------------------------------------------------

def f1(d: Dataset) -> float:
    """Number of classes in the target attribute."""
    return float(d.n_classes)


def f2(d: Dataset) -> float:
    """Entropy of the target class distribution."""
    return _entropy_of_values(d.target)


def f3(d: Dataset) -> float:
    """Proportion of the majority target class."""
    return float(_target_proportions(d).max())


def f4(d: Dataset) -> float:
    """Proportion of the minority target class."""
    return float(_target_proportions(d).min())


def f5(d: Dataset) -> float:
    """Number of numeric attributes."""
    return float(d.n_numeric)


def f6(d: Dataset) -> float:
    """Number of categorical attributes."""
    return float(d.n_categorical)


def f7(d: Dataset) -> float:
    """Proportion of numeric attributes among all common attributes."""
    return float(d.n_numeric / d.n_attributes) if d.n_attributes else 0.0


def f8(d: Dataset) -> float:
    """Number of common attributes."""
    return float(d.n_attributes)


def f9(d: Dataset) -> float:
    """Number of records."""
    return float(d.n_records)


def f10(d: Dataset) -> float:
    """Cardinality of the categorical attribute with the fewest classes (A#)."""
    cardinalities = _categorical_cardinalities(d)
    return float(cardinalities.min()) if cardinalities.size else 0.0


def f11(d: Dataset) -> float:
    """Entropy of A#."""
    column = _extreme_categorical_column(d, "min")
    return _entropy_of_values(column) if column is not None else 0.0


def f12(d: Dataset) -> float:
    """Majority-value proportion of A#."""
    column = _extreme_categorical_column(d, "min")
    return float(_column_proportions(column).max()) if column is not None else 0.0


def f13(d: Dataset) -> float:
    """Minority-value proportion of A#."""
    column = _extreme_categorical_column(d, "min")
    return float(_column_proportions(column).min()) if column is not None else 0.0


def f14(d: Dataset) -> float:
    """Cardinality of the categorical attribute with the most classes (A?)."""
    cardinalities = _categorical_cardinalities(d)
    return float(cardinalities.max()) if cardinalities.size else 0.0


def f15(d: Dataset) -> float:
    """Entropy of A?."""
    column = _extreme_categorical_column(d, "max")
    return _entropy_of_values(column) if column is not None else 0.0


def f16(d: Dataset) -> float:
    """Majority-value proportion of A?."""
    column = _extreme_categorical_column(d, "max")
    return float(_column_proportions(column).max()) if column is not None else 0.0


def f17(d: Dataset) -> float:
    """Minority-value proportion of A?."""
    column = _extreme_categorical_column(d, "max")
    return float(_column_proportions(column).min()) if column is not None else 0.0


def f18(d: Dataset) -> float:
    """Minimum of the per-attribute averages of the numeric attributes."""
    averages = _numeric_averages(d)
    return float(averages.min()) if averages.size else 0.0


def f19(d: Dataset) -> float:
    """Maximum of the per-attribute averages of the numeric attributes."""
    averages = _numeric_averages(d)
    return float(averages.max()) if averages.size else 0.0


def f20(d: Dataset) -> float:
    """Minimum of the per-attribute variances of the numeric attributes."""
    variances = _numeric_variances(d)
    return float(variances.min()) if variances.size else 0.0


def f21(d: Dataset) -> float:
    """Maximum of the per-attribute variances of the numeric attributes."""
    variances = _numeric_variances(d)
    return float(variances.max()) if variances.size else 0.0


def f22(d: Dataset) -> float:
    """Variance of the per-attribute averages of the numeric attributes."""
    averages = _numeric_averages(d)
    return float(averages.var()) if averages.size else 0.0


def f23(d: Dataset) -> float:
    """Variance of the per-attribute variances of the numeric attributes."""
    variances = _numeric_variances(d)
    return float(variances.var()) if variances.size else 0.0


REFERENCE_FEATURE_FUNCTIONS: dict[str, Callable[[Dataset], float]] = {
    f"f{i}": globals()[f"f{i}"] for i in range(1, 24)
}


def reference_vector(dataset: Dataset, feature_names: list[str]) -> np.ndarray:
    """The named features of ``dataset``, each computed on its own."""
    return np.array(
        [REFERENCE_FEATURE_FUNCTIONS[name](dataset) for name in feature_names],
        dtype=np.float64,
    )
