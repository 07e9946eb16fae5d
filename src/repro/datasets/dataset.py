"""Dataset container for supervised task instances.

A :class:`Dataset` is the paper's "task instance": a table with numeric
attributes, categorical attributes and a target.  It keeps the two attribute
blocks separate because the meta-features of Table III treat them differently,
and exposes an encoded dense matrix for the learners.

The paper studies classification only; this container carries a
:class:`~repro.datasets.task.TaskType` so the same machinery also serves
regression instances (continuous targets, plain — unstratified — resampling).
Classification remains the default and behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2s

import numpy as np

from ..learners.preprocessing import LabelEncoder, OneHotEncoder
from .task import TaskType, resolve_task

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """A supervised task instance.

    Parameters
    ----------
    name:
        Human-readable identifier (used as the key in knowledge pairs).
    numeric:
        ``(n_records, n_numeric)`` float array; may be empty (``shape[1]==0``).
    categorical:
        ``(n_records, n_categorical)`` object array of category values; may be
        empty.
    target:
        Length ``n_records`` array: class labels (any hashable values) for
        classification, real values for regression.
    task:
        ``TaskType.CLASSIFICATION`` (default) or ``TaskType.REGRESSION``;
        plain strings ``"classification"`` / ``"regression"`` are accepted.
    """

    name: str
    numeric: np.ndarray
    categorical: np.ndarray
    target: np.ndarray
    metadata: dict = field(default_factory=dict)
    task: TaskType = TaskType.CLASSIFICATION

    def __post_init__(self) -> None:
        self.task = resolve_task(self.task)
        self.numeric = np.asarray(self.numeric, dtype=np.float64)
        if self.numeric.ndim == 1:
            self.numeric = self.numeric.reshape(-1, 1) if self.numeric.size else self.numeric.reshape(0, 0)
        self.categorical = np.asarray(self.categorical, dtype=object)
        if self.categorical.ndim == 1:
            self.categorical = (
                self.categorical.reshape(-1, 1) if self.categorical.size else self.categorical.reshape(0, 0)
            )
        self.target = np.asarray(self.target)
        if self.task.is_regression:
            self.target = self.target.astype(np.float64)
            if self.target.size and not np.all(np.isfinite(self.target)):
                raise ValueError(f"{self.name}: regression target contains NaN/inf values")
        lengths = {
            block.shape[0]
            for block in (self.numeric, self.categorical)
            if block.size
        }
        lengths.add(self.target.shape[0])
        if len(lengths) > 1:
            raise ValueError(f"{self.name}: inconsistent block lengths {lengths}")
        if self.target.shape[0] == 0:
            raise ValueError(f"{self.name}: empty dataset")
        if self.n_numeric == 0 and self.n_categorical == 0:
            raise ValueError(f"{self.name}: dataset has no attributes")

    # -- identity ---------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content hash identifying this task instance.

        Two datasets with identical attribute blocks, target and task type
        share a fingerprint regardless of their ``name``, so request-time
        caches (meta-feature memoization, the serving dispatcher) recognise
        repeat queries for the same data.  Computed once and memoized —
        datasets are treated as immutable throughout the codebase.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        def framed(values) -> bytes:
            # Length-prefix every entry: a plain joiner would let crafted
            # values collide (['a\x1fb','c'] vs ['a','b\x1fc']), and values
            # are arbitrary client strings on the serving path.
            parts = []
            for value in values:
                encoded = str(value).encode("utf-8")
                parts.append(len(encoded).to_bytes(4, "little"))
                parts.append(encoded)
            return b"".join(parts)

        digest = blake2s(digest_size=16)
        digest.update(self.task.value.encode("utf-8"))
        digest.update(repr(self.numeric.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(self.numeric, dtype=np.float64).tobytes())
        digest.update(repr(self.categorical.shape).encode("utf-8"))
        if self.categorical.size:
            digest.update(framed(self.categorical.ravel()))
        if self.target.dtype == object:
            digest.update(framed(self.target))
        else:
            digest.update(self.target.dtype.str.encode("utf-8"))
            digest.update(np.ascontiguousarray(self.target).tobytes())
        fingerprint = digest.hexdigest()
        self.__dict__["_fingerprint"] = fingerprint
        return fingerprint

    # -- task type --------------------------------------------------------------------
    @property
    def is_classification(self) -> bool:
        return self.task.is_classification

    @property
    def is_regression(self) -> bool:
        return self.task.is_regression

    # -- basic shape ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return int(self.target.shape[0])

    @property
    def n_numeric(self) -> int:
        return int(self.numeric.shape[1]) if self.numeric.size else 0

    @property
    def n_categorical(self) -> int:
        return int(self.categorical.shape[1]) if self.categorical.size else 0

    @property
    def n_attributes(self) -> int:
        return self.n_numeric + self.n_categorical

    @property
    def n_classes(self) -> int:
        return int(len(np.unique(self.target)))

    @property
    def class_counts(self) -> np.ndarray:
        _, counts = np.unique(self.target, return_counts=True)
        return counts

    @property
    def target_mean(self) -> float:
        """Mean of a regression target (raises for categorical labels)."""
        return float(np.asarray(self.target, dtype=np.float64).mean())

    @property
    def target_std(self) -> float:
        """Standard deviation of a regression target."""
        return float(np.asarray(self.target, dtype=np.float64).std())

    # -- encoding ---------------------------------------------------------------------
    def _encoded_target(self) -> np.ndarray:
        """Label-encoded target for classification, ``float64`` for regression."""
        if self.is_regression:
            return np.asarray(self.target, dtype=np.float64)
        return LabelEncoder().fit_transform(self.target)

    def to_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, y)`` with categorical attributes one-hot encoded.

        For classification the target is label-encoded into
        ``0..n_classes-1``; for regression it is returned as ``float64``.

        Missing numeric values are **not** imputed here any more: imputation
        is a searchable pipeline step (:mod:`repro.learners.pipeline`), not
        dataset policy — NaNs pass through so a bare estimator on messy data
        crash-scores honestly while a pipeline's imputer earns its keep.  On
        clean data the output is byte-identical to the historical
        impute-then-encode path (the old mean imputation was a no-op there).
        """
        blocks: list[np.ndarray] = []
        if self.n_numeric:
            blocks.append(np.asarray(self.numeric, dtype=np.float64))
        if self.n_categorical:
            blocks.append(OneHotEncoder().fit_transform(self.categorical))
        return np.hstack(blocks), self._encoded_target()

    def to_raw_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, y)`` with the attribute blocks left raw for pipelines.

        ``X`` keeps numeric columns as floats (NaNs preserved) and
        categorical columns as strings — an object matrix whenever
        categorical attributes exist, the plain float matrix otherwise; the
        column layout matches :meth:`to_matrix` (numeric block first).
        Categorical values are stringified (missing markers preserved)
        because the pipeline re-derives the numeric/categorical split from
        the matrix alone: integer-coded categories would otherwise look
        numeric and get imputed/scaled instead of one-hot encoded.
        :class:`~repro.learners.pipeline.Pipeline` estimators fit their
        preprocessing steps on this per training fold, which is what makes
        imputation/encoding choices part of the searched configuration.
        """
        if not self.n_categorical:
            return np.asarray(self.numeric, dtype=np.float64).copy(), self._encoded_target()
        blocks = []
        if self.n_numeric:
            blocks.append(np.asarray(self.numeric, dtype=np.float64).astype(object))
        categorical = np.array(
            [
                [
                    value
                    if value is None or (isinstance(value, float) and value != value)
                    else str(value)
                    for value in row
                ]
                for row in self.categorical
            ],
            dtype=object,
        ).reshape(self.categorical.shape)
        blocks.append(categorical)
        return np.hstack(blocks), self._encoded_target()

    # -- resampling helpers --------------------------------------------------------------
    def subsample(self, n: int, random_state: int | None = None) -> "Dataset":
        """Return a subsample of at most ``n`` records.

        Classification subsamples are stratified per class; regression
        targets have no classes to preserve, so a plain uniform draw without
        replacement is used instead.
        """
        if n >= self.n_records:
            return self
        rng = np.random.default_rng(random_state)
        if self.is_regression:
            keep_arr = np.sort(rng.choice(self.n_records, size=n, replace=False))
            return self.take(keep_arr, name=f"{self.name}[sub{n}]")
        keep: list[int] = []
        labels, counts = np.unique(self.target, return_counts=True)
        fractions = counts / counts.sum()
        for label, fraction in zip(labels, fractions):
            members = np.flatnonzero(self.target == label)
            take = max(1, int(round(fraction * n)))
            take = min(take, len(members))
            keep.extend(rng.choice(members, size=take, replace=False).tolist())
        keep_arr = np.array(sorted(keep))
        return self.take(keep_arr, name=f"{self.name}[sub{n}]")

    def take(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        """Return a new dataset restricted to ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            name=name or self.name,
            numeric=self.numeric[indices] if self.n_numeric else np.zeros((len(indices), 0)),
            categorical=(
                self.categorical[indices]
                if self.n_categorical
                else np.zeros((len(indices), 0), dtype=object)
            ),
            target=self.target[indices],
            metadata=dict(self.metadata),
            task=self.task,
        )

    def train_test_split(
        self, test_size: float = 0.3, random_state: int | None = None
    ) -> tuple["Dataset", "Dataset"]:
        """Split into train/test datasets (stratified for classification)."""
        rng = np.random.default_rng(random_state)
        if self.is_regression:
            split_point = max(1, int(round((1 - test_size) * self.n_records)))
            split_point = min(split_point, self.n_records - 1)
            order = rng.permutation(self.n_records)
            test_mask = np.zeros(self.n_records, dtype=bool)
            test_mask[order[split_point:]] = True
        else:
            test_idx: list[int] = []
            for label in np.unique(self.target):
                members = rng.permutation(np.flatnonzero(self.target == label))
                take = max(1, int(round(test_size * len(members)))) if len(members) > 1 else 0
                test_idx.extend(members[:take].tolist())
            test_mask = np.zeros(self.n_records, dtype=bool)
            test_mask[test_idx] = True
            if not test_mask.any() or test_mask.all():
                split_point = max(1, int(round((1 - test_size) * self.n_records)))
                order = rng.permutation(self.n_records)
                test_mask = np.zeros(self.n_records, dtype=bool)
                test_mask[order[split_point:]] = True
        train = self.take(np.flatnonzero(~test_mask), name=f"{self.name}[train]")
        test = self.take(np.flatnonzero(test_mask), name=f"{self.name}[test]")
        return train, test

    def summary(self) -> dict:
        """Shape summary in the layout of the paper's Table XI."""
        out = {
            "name": self.name,
            "records": self.n_records,
            "attributes": self.n_attributes,
            "numeric_attributes": self.n_numeric,
            "categorical_attributes": self.n_categorical,
        }
        if self.is_regression:
            out["task"] = self.task.value
            out["target_mean"] = round(self.target_mean, 4)
            out["target_std"] = round(self.target_std, 4)
        else:
            out["classes"] = self.n_classes
        return out

    def __repr__(self) -> str:
        if self.is_regression:
            return (
                f"Dataset({self.name!r}, task='regression', records={self.n_records}, "
                f"numeric={self.n_numeric}, categorical={self.n_categorical})"
            )
        return (
            f"Dataset({self.name!r}, records={self.n_records}, "
            f"numeric={self.n_numeric}, categorical={self.n_categorical}, "
            f"classes={self.n_classes})"
        )
