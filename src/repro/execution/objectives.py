"""Glue between the execution engine and the learner/dataset layers.

These helpers build the standard objective of the paper — k-fold
cross-validation score of an estimator on one dataset — with the folds
precomputed once (:class:`~repro.execution.folds.FoldPlan`) and wrap it in a
ready-to-use :class:`~repro.execution.engine.EvaluationEngine`.  The UDR, the
Auto-WEKA baselines and the performance-table builder all construct their
engines through this module, which is what makes their evaluations cacheable
and parallelisable with identical scores.

The objective is task-aware: classification (the default) scores stratified-CV
accuracy exactly as before, while ``task="regression"`` scores unstratified
k-fold R² (or RMSE/MAE, oriented so greater is better) — see
:mod:`repro.learners.metrics`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..datasets.task import resolve_task
from ..learners.metrics import Scorer, resolve_scorer
from . import dataplane
from .engine import EvaluationEngine
from .folds import FoldPlan
from .store import ResultStore

__all__ = [
    "CrossValObjective",
    "estimator_engine",
    "objective_context_suffix",
]


def objective_context_suffix(task: str = "classification", metric: str | Scorer | None = None) -> str:
    """Store-context suffix identifying a non-default objective.

    Empty for the paper's default (classification accuracy), so every
    classification cache/store fingerprint is byte-identical to earlier
    releases; regression (or a non-default metric) appends its identity so a
    persistent store never mixes scores across objectives.
    """
    task = resolve_task(task).value
    if task == "classification" and metric is None:
        return ""
    scorer = resolve_scorer(metric, task)
    return f"-task{task}-metric{scorer.name}"


class CrossValObjective:
    """Objective ``f(config) = mean CV score of build(config)`` on ``(X, y)``.

    The fold plan is computed once at construction and shared by every
    configuration, so repeated evaluations skip the per-call re-splitting of
    the seed code while producing bit-identical scores.  Estimator
    *construction* errors propagate to the engine's crash accounting;
    per-fold fit/predict errors score the metric's worst value on that fold
    (0.0 for accuracy — the Auto-WEKA convention — as before).

    The objective is a *class* (not a closure) so the engine's process
    backend can pickle it, and it participates in the engine's zero-copy
    data plane: ``data_key`` content-fingerprints the dataset payload, and
    with ``detach_payload`` set (by the engine, once it has seeded its pool
    via :func:`repro.execution.dataplane.seed_worker`) pickling drops the
    matrices — per-trial submits carry only the config machinery, and the
    worker re-binds the arrays from its process-local registry.
    """

    def __init__(
        self,
        build: Callable[[dict[str, Any]], Any],
        X,
        y,
        cv: int = 5,
        random_state: int | None = None,
        task: str = "classification",
        metric: str | Scorer | None = None,
    ) -> None:
        X = np.asarray(X)
        if X.dtype != object:
            X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.build = build
        self.task = resolve_task(task).value
        # Classification with no metric is the paper's default: stratified
        # folds and the accuracy scorer, whose crash folds score 0.0.
        self.scorer = resolve_scorer(metric, self.task)
        self.fold_plan = FoldPlan.for_task(y, task=self.task, cv=cv, random_state=random_state)
        self._X = X
        self._y = y
        self.data_key = dataplane.fingerprint({"X": X, "y": y})
        #: Set by the engine after seeding its worker pool with the payload;
        #: from then on ``pickle`` ships this objective without the matrices.
        self.detach_payload = False
        #: Per-unpickled-copy flag: True once this copy re-bound its arrays
        #: from the worker-local registry (read back by ``plane_timed_call``).
        self.plane_attached = False

    def payload(self) -> dict[str, np.ndarray]:
        """The dataset arrays the data plane ships once per worker."""
        return {"X": self._X, "y": self._y}

    def _bind_payload(self) -> None:
        if self._X is not None:
            return
        block = dataplane.local_block(self.data_key)
        if block is None:
            raise RuntimeError(
                f"data-plane payload {self.data_key[:12]}… is not registered in "
                "this process; the objective was pickled without its matrices "
                "but the worker pool was not seeded with them"
            )
        self._X = block["X"]
        self._y = block["y"]
        self.plane_attached = True

    def __call__(self, config: dict[str, Any]) -> float:
        self._bind_payload()
        return self.fold_plan.score(
            self.build(config),
            self._X,
            self._y,
            scoring=self.scorer,
            error_score=self.scorer.error_score,
        )

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        if state.get("detach_payload"):
            state["_X"] = None
            state["_y"] = None
        state["plane_attached"] = False
        return state


def estimator_engine(
    build: Callable[[dict[str, Any]], Any],
    X,
    y,
    *,
    cv: int = 5,
    random_state: int | None = None,
    cache: bool = True,
    n_workers: int = 1,
    backend: str = "thread",
    crash_score: float = float("-inf"),
    name: str = "cv-engine",
    store: ResultStore | None = None,
    store_context: str | None = None,
    warm_start: bool = False,
    task: str = "classification",
    metric: str | Scorer | None = None,
) -> EvaluationEngine:
    """An :class:`EvaluationEngine` over the standard CV objective.

    ``store``/``store_context``/``warm_start`` are forwarded to the engine;
    the context should fingerprint the dataset and CV protocol so a
    persistent store never mixes scores across objectives.  ``task`` and
    ``metric`` select the objective flavour (see :class:`CrossValObjective`);
    non-default flavours are folded into the store context automatically.
    """
    objective = CrossValObjective(
        build, X, y, cv=cv, random_state=random_state, task=task, metric=metric
    )
    suffix = objective_context_suffix(task, metric)
    if suffix and store_context is not None:
        store_context = f"{store_context}{suffix}"
    return EvaluationEngine(
        objective,
        cache=cache,
        n_workers=n_workers,
        backend=backend,
        crash_score=crash_score,
        name=name,
        store=store,
        store_context=store_context,
        warm_start=warm_start,
    )
