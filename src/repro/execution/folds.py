"""Precomputed cross-validation fold plans: the package's one CV path.

The paper's objective ``f(λ, A, D)`` is the k-fold cross-validation score of a
configuration on a dataset.  A :class:`FoldPlan` draws the folds once per
``(dataset, cv, random_state)`` and scores every configuration on them through
:func:`repro.learners.validation.cross_val_score_folds`.  Every CV score in the
package goes through one: the engine's
:class:`~repro.execution.objectives.CrossValObjective`, the performance
table's ``P(A, D)``, Table XIV's ``f(T, D)``, and the feature-subset and
architecture scores of Algorithms 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..learners.metrics import accuracy_score
from ..learners.validation import cross_val_score_folds, plain_folds, stratified_folds
from ..obs.profiler import profiled

__all__ = ["FoldPlan"]


@dataclass
class FoldPlan:
    """A reusable list of ``(train_idx, test_idx)`` pairs for one dataset."""

    folds: list[tuple[np.ndarray, np.ndarray]]
    cv: int
    random_state: int | None = None
    metadata: dict = field(default_factory=dict)

    @classmethod
    def stratified(cls, y, cv: int = 5, random_state: int | None = None) -> "FoldPlan":
        """Stratified k-fold plan — the classification CV protocol."""
        return cls(
            folds=stratified_folds(y, cv=cv, random_state=random_state),
            cv=cv,
            random_state=random_state,
        )

    @classmethod
    def kfold(cls, y, cv: int = 5, random_state: int | None = None) -> "FoldPlan":
        """Plain (unstratified) k-fold plan — the regression CV protocol."""
        return cls(
            folds=plain_folds(y, cv=cv, random_state=random_state),
            cv=cv,
            random_state=random_state,
            metadata={"stratified": False},
        )

    @classmethod
    def for_task(
        cls, y, task: str = "classification", cv: int = 5, random_state: int | None = None
    ) -> "FoldPlan":
        """Task-appropriate plan: stratified folds for classification, plain
        k-fold for regression (continuous targets cannot be stratified).
        Unknown task strings raise rather than silently stratifying."""
        from ..datasets.task import resolve_task

        if resolve_task(task).is_regression:
            return cls.kfold(y, cv=cv, random_state=random_state)
        return cls.stratified(y, cv=cv, random_state=random_state)

    @property
    def n_splits(self) -> int:
        return len(self.folds)

    def scores(
        self,
        estimator,
        X,
        y,
        scoring: Callable[[Sequence, Sequence], float] = accuracy_score,
        error_score: float = 0.0,
    ) -> np.ndarray:
        """Per-fold scores of ``estimator`` (crashing folds score ``error_score``)."""
        with profiled("cv_folds"):
            return cross_val_score_folds(estimator, X, y, self.folds, scoring, error_score)

    def score(
        self,
        estimator,
        X,
        y,
        scoring: Callable[[Sequence, Sequence], float] = accuracy_score,
        error_score: float = 0.0,
    ) -> float:
        """Mean CV score — the paper's ``f(λ, A, D)`` on precomputed folds."""
        return float(self.scores(estimator, X, y, scoring, error_score).mean())
