"""The 23 task-instance features of Table III (f1 … f23).

Each feature is a function of one :class:`Extraction` of a
:class:`~repro.datasets.dataset.Dataset`, which computes the counts and column
statistics the features share once per dataset; :func:`extract` is the one
entry point.  Notation from the paper:

* ``AT`` — the target attribute; ``AT[n]`` its number of classes.
* ``ANList`` / ``ACList`` — numeric / categorical common attributes.
* ``A#`` — the categorical common attribute with the fewest classes,
  ``A?`` — the one with the most classes.
* ``H(·)`` — Shannon entropy of a categorical attribute's value distribution.

Features that reference an empty attribute list (e.g. f10–f17 when there are
no categorical attributes, f18–f23 when there are no numeric attributes) are
defined as 0, so every dataset maps to a complete 23-dimensional vector.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from ..datasets.dataset import Dataset

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_FUNCTIONS",
    "FEATURE_DESCRIPTIONS",
    "Extraction",
    "extract",
    "compute_feature",
]


def _value_counts(values: np.ndarray) -> np.ndarray:
    _, counts = np.unique(values, return_counts=True)
    return counts


def _entropy(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


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


class Extraction:
    """One Table III pass over a dataset.

    Holds the quantities f1–f23 share — the value counts of the target and
    of each categorical column (cardinality, A# and A? all come from these)
    and the numeric column averages and variances — each computed once, on
    first use, so a full extraction counts every column once and a subset
    computes only what its features read.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    @cached_property
    def target_counts(self) -> np.ndarray:
        return _value_counts(self.dataset.target)

    @cached_property
    def target_proportions(self) -> np.ndarray:
        return self.target_counts / self.dataset.n_records

    @cached_property
    def categorical_counts(self) -> list[np.ndarray]:
        categorical = self.dataset.categorical
        return [_value_counts(categorical[:, j]) for j in range(self.dataset.n_categorical)]

    @cached_property
    def cardinalities(self) -> np.ndarray:
        if not self.categorical_counts:
            return np.array([])
        return np.array([len(counts) for counts in self.categorical_counts])

    def extreme_counts(self, mode: str) -> np.ndarray | None:
        """Value counts of A# (mode='min') or A? (mode='max'), or None."""
        cardinalities = self.cardinalities
        if cardinalities.size == 0:
            return None
        index = int(np.argmin(cardinalities)) if mode == "min" else int(np.argmax(cardinalities))
        return self.categorical_counts[index]

    def extreme_proportions(self, mode: str) -> np.ndarray | None:
        counts = self.extreme_counts(mode)
        return None if counts is None else counts / self.dataset.n_records

    @cached_property
    def numeric_averages(self) -> np.ndarray:
        if self.dataset.n_numeric == 0:
            return np.array([])
        if not self._numeric_has_nan:
            # Clean data takes the historical path so the feature vectors
            # feeding existing decision models stay bit-identical.
            return self.dataset.numeric.mean(axis=0)
        return _nan_reduce(self.dataset.numeric, np.nanmean)

    @cached_property
    def numeric_variances(self) -> np.ndarray:
        if self.dataset.n_numeric == 0:
            return np.array([])
        if not self._numeric_has_nan:
            return self.dataset.numeric.var(axis=0)
        return _nan_reduce(self.dataset.numeric, np.nanvar)

    @cached_property
    def _numeric_has_nan(self) -> bool:
        return bool(np.isnan(self.dataset.numeric).any())


# -- the 23 features -----------------------------------------------------------------

def f1(e: Extraction) -> float:
    """Number of classes in the target attribute."""
    return float(len(e.target_counts))


def f2(e: Extraction) -> float:
    """Entropy of the target class distribution."""
    return _entropy(e.target_counts)


def f3(e: Extraction) -> float:
    """Proportion of the majority target class."""
    return float(e.target_proportions.max())


def f4(e: Extraction) -> float:
    """Proportion of the minority target class."""
    return float(e.target_proportions.min())


def f5(e: Extraction) -> float:
    """Number of numeric attributes."""
    return float(e.dataset.n_numeric)


def f6(e: Extraction) -> float:
    """Number of categorical attributes."""
    return float(e.dataset.n_categorical)


def f7(e: Extraction) -> float:
    """Proportion of numeric attributes among all common attributes."""
    d = e.dataset
    return float(d.n_numeric / d.n_attributes) if d.n_attributes else 0.0


def f8(e: Extraction) -> float:
    """Number of common attributes."""
    return float(e.dataset.n_attributes)


def f9(e: Extraction) -> float:
    """Number of records."""
    return float(e.dataset.n_records)


def f10(e: Extraction) -> float:
    """Cardinality of the categorical attribute with the fewest classes (A#)."""
    return float(e.cardinalities.min()) if e.cardinalities.size else 0.0


def f11(e: Extraction) -> float:
    """Entropy of A#."""
    counts = e.extreme_counts("min")
    return _entropy(counts) if counts is not None else 0.0


def f12(e: Extraction) -> float:
    """Majority-value proportion of A#."""
    proportions = e.extreme_proportions("min")
    return float(proportions.max()) if proportions is not None else 0.0


def f13(e: Extraction) -> float:
    """Minority-value proportion of A#."""
    proportions = e.extreme_proportions("min")
    return float(proportions.min()) if proportions is not None else 0.0


def f14(e: Extraction) -> float:
    """Cardinality of the categorical attribute with the most classes (A?)."""
    return float(e.cardinalities.max()) if e.cardinalities.size else 0.0


def f15(e: Extraction) -> float:
    """Entropy of A?."""
    counts = e.extreme_counts("max")
    return _entropy(counts) if counts is not None else 0.0


def f16(e: Extraction) -> float:
    """Majority-value proportion of A?."""
    proportions = e.extreme_proportions("max")
    return float(proportions.max()) if proportions is not None else 0.0


def f17(e: Extraction) -> float:
    """Minority-value proportion of A?."""
    proportions = e.extreme_proportions("max")
    return float(proportions.min()) if proportions is not None else 0.0


def f18(e: Extraction) -> float:
    """Minimum of the per-attribute averages of the numeric attributes."""
    averages = e.numeric_averages
    return float(averages.min()) if averages.size else 0.0


def f19(e: Extraction) -> float:
    """Maximum of the per-attribute averages of the numeric attributes."""
    averages = e.numeric_averages
    return float(averages.max()) if averages.size else 0.0


def f20(e: Extraction) -> float:
    """Minimum of the per-attribute variances of the numeric attributes."""
    variances = e.numeric_variances
    return float(variances.min()) if variances.size else 0.0


def f21(e: Extraction) -> float:
    """Maximum of the per-attribute variances of the numeric attributes."""
    variances = e.numeric_variances
    return float(variances.max()) if variances.size else 0.0


def f22(e: Extraction) -> float:
    """Variance of the per-attribute averages of the numeric attributes."""
    averages = e.numeric_averages
    return float(averages.var()) if averages.size else 0.0


def f23(e: Extraction) -> float:
    """Variance of the per-attribute variances of the numeric attributes."""
    variances = e.numeric_variances
    return float(variances.var()) if variances.size else 0.0


FEATURE_FUNCTIONS: dict[str, Callable[[Extraction], float]] = {
    f"f{i}": globals()[f"f{i}"] for i in range(1, 24)
}
FEATURE_NAMES: list[str] = list(FEATURE_FUNCTIONS)
FEATURE_DESCRIPTIONS: dict[str, str] = {
    name: (func.__doc__ or "").strip() for name, func in FEATURE_FUNCTIONS.items()
}


def extract(dataset: Dataset, feature_names: Iterable[str]) -> list[float]:
    """The named features of ``dataset``, in order, from one shared pass."""
    extraction = Extraction(dataset)
    return [FEATURE_FUNCTIONS[name](extraction) for name in feature_names]


def compute_feature(name: str, dataset: Dataset) -> float:
    """Compute a single named feature (``'f1'`` … ``'f23'``) for ``dataset``."""
    if name not in FEATURE_FUNCTIONS:
        raise KeyError(f"unknown feature {name!r}; known: {FEATURE_NAMES}")
    return extract(dataset, [name])[0]
