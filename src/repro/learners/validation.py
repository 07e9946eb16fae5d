"""Resampling helpers: (stratified) k-fold splits and the one CV fold loop.

The paper scores every configuration with k-fold cross-validation accuracy
(10-fold in the evaluation, smaller k inside the GA loops).  The splitters here
draw the folds, and :func:`cross_val_score_folds` scores an estimator over
them; :class:`repro.execution.folds.FoldPlan` fixes the folds once per dataset
and is how every caller in the package computes a CV score.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .. import obs
from .base import BaseClassifier, clone
from .metrics import accuracy_score

__all__ = [
    "KFold",
    "StratifiedKFold",
    "stratified_folds",
    "plain_folds",
    "cross_val_score_folds",
]


class KFold:
    """Plain k-fold splitter yielding ``(train_idx, test_idx)`` pairs."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = np.asarray(X).shape[0]
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        indices = np.arange(n)
        if self.shuffle:
            indices = np.random.default_rng(self.random_state).permutation(indices)
        folds = np.array_split(indices, self.n_splits)
        for i in range(self.n_splits):
            test_idx = folds[i]
            train_idx = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train_idx, test_idx


class StratifiedKFold:
    """K-fold splitter that preserves class proportions across folds."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y)
        n = y.shape[0]
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        rng = np.random.default_rng(self.random_state)
        fold_assignment = np.empty(n, dtype=np.int64)
        for label in np.unique(y):
            members = np.flatnonzero(y == label)
            if self.shuffle:
                members = rng.permutation(members)
            # Deal members round-robin across the folds so each fold gets an
            # approximately equal share of every class.
            fold_assignment[members] = np.arange(len(members)) % self.n_splits
        for i in range(self.n_splits):
            test_idx = np.flatnonzero(fold_assignment == i)
            train_idx = np.flatnonzero(fold_assignment != i)
            if len(test_idx) == 0 or len(train_idx) == 0:
                continue
            yield train_idx, test_idx


def _effective_splits(y: np.ndarray, requested: int) -> int:
    """Clamp the fold count so every training fold can contain every class."""
    _, counts = np.unique(y, return_counts=True)
    n = len(y)
    return max(2, min(requested, int(counts.min()) if counts.min() >= 2 else 2, n // 2))


def stratified_folds(
    y, cv: int = 5, random_state: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Materialise stratified CV folds, the classification protocol.

    Fold computation depends only on ``(y, cv, random_state)``, never on the
    configuration being scored, so the execution engine precomputes the folds
    once per dataset and reuses them for every configuration instead of
    re-splitting inside each evaluation.
    """
    y = np.asarray(y)
    n_splits = _effective_splits(y, cv)
    splitter = StratifiedKFold(n_splits=n_splits, shuffle=True, random_state=random_state)
    return list(splitter.split(np.empty((len(y), 0)), y))


def plain_folds(
    y, cv: int = 5, random_state: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Materialise unstratified k-fold CV splits (the regression protocol).

    Continuous targets have no classes to balance, so the splitter is a plain
    shuffled :class:`KFold`; the fold count is clamped so every fold holds at
    least one record.
    """
    n = np.asarray(y).shape[0]
    n_splits = max(2, min(cv, n // 2)) if n >= 4 else 2
    splitter = KFold(n_splits=n_splits, shuffle=True, random_state=random_state)
    return list(splitter.split(np.empty((n, 0))))


def cross_val_score_folds(
    estimator: BaseClassifier,
    X,
    y,
    folds: Sequence[tuple[np.ndarray, np.ndarray]],
    scoring: Callable[[Sequence, Sequence], float] = accuracy_score,
    error_score: float = 0.0,
) -> np.ndarray:
    """Per-fold scores of ``estimator`` over precomputed ``folds``.

    Folds where the estimator raises are scored ``error_score`` (0.0, the
    worst accuracy, by default) — the HPO layer treats a crashing
    configuration as a very bad one rather than aborting the search,
    mirroring how Auto-WEKA handles failed runs.  Regression scorers pass
    their own worst value here (e.g. -1.0 for R²).

    Object-dtype matrices (raw attribute blocks fed to
    :class:`~repro.learners.pipeline.Pipeline` estimators, which own their
    encoding per fold) pass through untouched; anything else is coerced to
    ``float64`` exactly as before.
    """
    X = np.asarray(X)
    if X.dtype != object:
        X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    scores: list[float] = []
    for train_idx, test_idx in folds:
        model = clone(estimator)
        try:
            model.fit(X[train_idx], y[train_idx])
            predictions = model.predict(X[test_idx])
            scores.append(float(scoring(y[test_idx], predictions)))
        except Exception as exc:  # noqa: BLE001 — a failed fold takes error_score
            obs.error_event("validation.fold", exc)
            scores.append(float(error_score))
    if not scores:
        return np.array([float(error_score)])
    return np.array(scores, dtype=np.float64)
