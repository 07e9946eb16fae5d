"""Preprocessing utilities: scaling, encoding and imputation.

Weka performs attribute normalisation and nominal-to-binary conversion inside
many of its classifiers; here the equivalent transforms are explicit so that
all learners in the catalogue receive a dense numeric matrix.
"""

from __future__ import annotations

import warnings

import numpy as np

#: Canonical category recorded for missing values (None / NaN) seen by the
#: OneHotEncoder.  Raw NaN floats make terrible dict keys (two NaNs never
#: compare equal, and their hashes vary by object identity on Python >= 3.10),
#: so missing entries used to silently one-hot to a zero block at transform
#: time; mapping them all to one sentinel makes missingness a learnable
#: category instead.
MISSING_CATEGORY = "__missing__"

#: Category that collects values rarer than ``min_frequency`` (and, with
#: ``handle_unknown="rare"``, values never seen during fit).
RARE_CATEGORY = "__rare__"

__all__ = [
    "StandardScaler",
    "MinMaxScaler",
    "LabelEncoder",
    "OneHotEncoder",
    "SimpleImputer",
]


class StandardScaler:
    """Zero-mean, unit-variance scaling with constant-column protection."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # NaN cells are legitimate input on the imputer-disabled pipeline
            # path, where missing values flow through to the scaler.  Plain
            # mean/std would propagate a single NaN into the whole column's
            # statistics, silently poisoning every row (the ``scale == 0``
            # guard never matches NaN).
            warnings.simplefilter("ignore", category=RuntimeWarning)
            mean = np.nanmean(X, axis=0)
            scale = np.nanstd(X, axis=0)
        self.mean_ = np.where(np.isnan(mean), 0.0, mean)
        self.scale_ = np.where(np.isnan(scale) | (scale == 0), 1.0, scale)
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        return np.asarray(X, dtype=np.float64) * self.scale_ + self.mean_

    def export_params(self) -> dict:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        return {
            "kind": "standard",
            "center": self.mean_.tolist(),
            "scale": self.scale_.tolist(),
        }


class MinMaxScaler:
    """Scale each column to the [0, 1] interval."""

    def __init__(self) -> None:
        self.min_: np.ndarray | None = None
        self.range_: np.ndarray | None = None

    def fit(self, X) -> "MinMaxScaler":
        X = np.asarray(X, dtype=np.float64)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # Same NaN honesty as StandardScaler.fit: min/max over a column
            # with even one NaN is NaN, which used to poison every row of
            # that column at transform time.
            warnings.simplefilter("ignore", category=RuntimeWarning)
            low = np.nanmin(X, axis=0) if X.size else np.zeros(X.shape[-1])
            high = np.nanmax(X, axis=0) if X.size else np.zeros(X.shape[-1])
        low = np.where(np.isnan(low), 0.0, low)
        high = np.where(np.isnan(high), 0.0, high)
        value_range = high - low
        self.min_ = low
        self.range_ = np.where(value_range == 0, 1.0, value_range)
        return self

    def transform(self, X) -> np.ndarray:
        if self.min_ is None:
            raise RuntimeError("MinMaxScaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.min_) / self.range_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        # Zero-range columns were scaled by the protective 1.0, so the
        # round trip maps their (always 0) transform back to the constant.
        if self.min_ is None:
            raise RuntimeError("MinMaxScaler is not fitted")
        return np.asarray(X, dtype=np.float64) * self.range_ + self.min_

    def export_params(self) -> dict:
        if self.min_ is None:
            raise RuntimeError("MinMaxScaler is not fitted")
        return {
            "kind": "minmax",
            "min": self.min_.tolist(),
            "range": self.range_.tolist(),
        }


def _label_sort_key(value):
    """Deterministic label ordering: group by type name, numerics by value.

    Sorting by ``str(v)`` alone ordered numeric labels lexicographically
    (10 before 2), which diverges from sklearn's ``np.unique`` convention
    and scrambles ``classes_``/proba-column order.  Values of the same
    numeric type now compare numerically; the type-name prefix keeps
    mixed-type label sets deterministic without cross-type comparisons
    (bools have their own type name, so they never collide with ints).
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (str(type(value)), float(value), str(value))
    return (str(type(value)), str(value))


class LabelEncoder:
    """Map arbitrary hashable labels to ``0..n_classes-1`` and back."""

    def __init__(self) -> None:
        self.classes_: list | None = None
        self._index: dict | None = None

    def fit(self, y) -> "LabelEncoder":
        seen = sorted(set(np.asarray(y).tolist()), key=_label_sort_key)
        self.classes_ = seen
        self._index = {label: i for i, label in enumerate(seen)}
        return self

    def transform(self, y) -> np.ndarray:
        if self._index is None:
            raise RuntimeError("LabelEncoder is not fitted")
        values = np.asarray(y).tolist()
        missing = [v for v in values if v not in self._index]
        if missing:
            raise ValueError(f"unseen labels during transform: {sorted(set(map(str, missing)))}")
        return np.array([self._index[v] for v in values], dtype=np.int64)

    def fit_transform(self, y) -> np.ndarray:
        return self.fit(y).transform(y)

    def inverse_transform(self, y) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("LabelEncoder is not fitted")
        y = np.asarray(y, dtype=np.int64)
        if np.any(y < 0) or np.any(y >= len(self.classes_)):
            raise ValueError("encoded labels out of range")
        return np.array([self.classes_[i] for i in y])


def _canonical_category(value):
    """Collapse the many faces of "missing" (None, float NaN) to one sentinel."""
    if value is None:
        return MISSING_CATEGORY
    if isinstance(value, float) and value != value:  # NaN without importing math
        return MISSING_CATEGORY
    return value


class OneHotEncoder:
    """One-hot encode a matrix of categorical columns (given as objects/ints).

    Unknown categories at transform time map to an all-zero block by default
    (``handle_unknown="ignore"``, the common convention).  Two knobs make the
    encoder searchable as a pipeline step:

    * ``min_frequency`` — categories seen fewer times during fit are grouped
      into one :data:`RARE_CATEGORY` column instead of getting their own,
      which keeps one-hot widths bounded on long-tail data;
    * ``handle_unknown="rare"`` — the rare column exists even when no
      training category was rare, so transform-time values never seen during
      fit always have somewhere to land.  Whenever a rare column exists (from
      either knob), unknown values map to it — an unseen value is by
      definition rarer than the threshold; with plain ``"ignore"`` and
      ``min_frequency=1`` unknowns zero-encode as before.

    Missing values (None / NaN) are canonicalised to :data:`MISSING_CATEGORY`
    in both fit and transform, so missingness round-trips as an ordinary
    category instead of silently zero-encoding (NaN never equals NaN, which
    previously made every missing entry an "unknown").  The defaults keep the
    historical output byte-identical on clean data.
    """

    def __init__(self, min_frequency: int = 1, handle_unknown: str = "ignore") -> None:
        if min_frequency < 1:
            raise ValueError("min_frequency must be >= 1")
        if handle_unknown not in ("ignore", "rare"):
            raise ValueError(f"handle_unknown must be 'ignore' or 'rare', got {handle_unknown!r}")
        self.min_frequency = int(min_frequency)
        self.handle_unknown = handle_unknown
        self.categories_: list[list] | None = None

    def _needs_rare(self) -> bool:
        return self.min_frequency > 1 or self.handle_unknown == "rare"

    def fit(self, X) -> "OneHotEncoder":
        X = np.asarray(X, dtype=object)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.shape[1] and X.shape[0] == 0:
            raise ValueError("cannot fit OneHotEncoder on zero records")
        categories: list[list] = []
        for j in range(X.shape[1]):
            values = [_canonical_category(v) for v in X[:, j].tolist()]
            counts: dict = {}
            for value in values:
                counts[value] = counts.get(value, 0) + 1
            kept = sorted(
                (v for v, c in counts.items() if c >= self.min_frequency),
                key=lambda v: (str(type(v)), str(v)),
            )
            if self._needs_rare() and RARE_CATEGORY not in kept:
                kept.append(RARE_CATEGORY)
            categories.append(kept)
        self.categories_ = categories
        return self

    def transform(self, X) -> np.ndarray:
        if self.categories_ is None:
            raise RuntimeError("OneHotEncoder is not fitted")
        X = np.asarray(X, dtype=object)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.shape[1] != len(self.categories_):
            raise ValueError(
                f"expected {len(self.categories_)} columns, got {X.shape[1]}"
            )
        blocks = []
        for j, categories in enumerate(self.categories_):
            index = {category: i for i, category in enumerate(categories)}
            rare_position = index.get(RARE_CATEGORY)
            block = np.zeros((X.shape[0], len(categories)), dtype=np.float64)
            for row, value in enumerate(X[:, j].tolist()):
                position = index.get(_canonical_category(value))
                if position is None:
                    position = rare_position  # None again under "ignore"
                if position is not None:
                    block[row, position] = 1.0
            blocks.append(block)
        if not blocks:
            return np.zeros((X.shape[0], 0))
        return np.hstack(blocks)

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    @property
    def n_output_features_(self) -> int:
        if self.categories_ is None:
            raise RuntimeError("OneHotEncoder is not fitted")
        return sum(len(c) for c in self.categories_)

    def export_params(self) -> dict:
        if self.categories_ is None:
            raise RuntimeError("OneHotEncoder is not fitted")
        return {
            "categories": [
                [
                    value.item() if hasattr(value, "item") else value
                    for value in column
                ]
                for column in self.categories_
            ]
        }


class SimpleImputer:
    """Replace NaNs column-wise with the mean, median or a constant."""

    def __init__(self, strategy: str = "mean", fill_value: float = 0.0) -> None:
        if strategy not in ("mean", "median", "constant"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.fill_value = fill_value
        self.statistics_: np.ndarray | None = None

    def fit(self, X) -> "SimpleImputer":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
        if X.shape[1] and X.shape[0] == 0:
            raise ValueError("cannot fit SimpleImputer on zero records")
        if self.strategy == "constant":
            self.statistics_ = np.full(X.shape[1], float(self.fill_value))
            return self
        reducer = np.nanmean if self.strategy == "mean" else np.nanmedian
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # All-NaN columns are legitimate input (an entirely-missing
            # attribute); silence numpy's mean-of-empty-slice warning and
            # substitute fill_value below instead of surfacing NaN.
            warnings.simplefilter("ignore", category=RuntimeWarning)
            stats = reducer(X, axis=0) if X.size else np.zeros(X.shape[1])
        stats = np.where(np.isnan(stats), self.fill_value, stats)
        self.statistics_ = stats
        return self

    def transform(self, X) -> np.ndarray:
        if self.statistics_ is None:
            raise RuntimeError("SimpleImputer is not fitted")
        X = np.asarray(X, dtype=np.float64).copy()
        for j in range(X.shape[1]):
            mask = np.isnan(X[:, j])
            X[mask, j] = self.statistics_[j]
        return X

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def export_params(self) -> dict:
        if self.statistics_ is None:
            raise RuntimeError("SimpleImputer is not fitted")
        return {"statistics": self.statistics_.tolist()}
