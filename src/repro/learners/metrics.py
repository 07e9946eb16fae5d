"""Evaluation metrics used across the reproduction.

The paper evaluates classifiers with k-fold cross-validation accuracy and the
architecture-search step with mean squared error; the additional metrics here
(F1, log-loss, confusion matrix, balanced accuracy) support the wider test and
benchmark suite.  Regression workloads score with R² / RMSE / MAE through the
:class:`Scorer` wrapper, which orients every metric as *greater is better* so
the HPO layer can maximise uniformly regardless of the underlying metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "accuracy_score",
    "error_rate",
    "balanced_accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "f1_score",
    "log_loss",
    "mean_squared_error",
    "mean_absolute_error",
    "root_mean_squared_error",
    "r2_score",
    "Scorer",
    "SCORERS",
    "resolve_scorer",
    "default_metric_for_task",
]


def _check_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape[0] != y_pred.shape[0]:
        raise ValueError(
            f"y_true and y_pred have different lengths: "
            f"{y_true.shape[0]} != {y_pred.shape[0]}"
        )
    if y_true.shape[0] == 0:
        raise ValueError("empty label arrays")
    return y_true, y_pred


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of exactly matching labels."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def error_rate(y_true, y_pred) -> float:
    """1 - accuracy."""
    return 1.0 - accuracy_score(y_true, y_pred)


def confusion_matrix(y_true, y_pred, labels=None) -> np.ndarray:
    """Return the ``(n_labels, n_labels)`` confusion matrix (rows = truth)."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    labels = np.asarray(labels)
    index = {label: i for i, label in enumerate(labels.tolist())}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        if t in index and p in index:
            matrix[index[t], index[p]] += 1
    return matrix


def balanced_accuracy_score(y_true, y_pred) -> float:
    """Mean per-class recall; robust to class imbalance."""
    matrix = confusion_matrix(y_true, y_pred)
    support = matrix.sum(axis=1)
    recalls = np.divide(
        np.diag(matrix), support, out=np.zeros(len(matrix)), where=support > 0
    )
    present = support > 0
    if not np.any(present):
        return 0.0
    return float(recalls[present].mean())


def precision_recall_f1(y_true, y_pred, average: str = "macro") -> tuple[float, float, float]:
    """Return (precision, recall, f1) aggregated with macro or micro averaging."""
    if average not in ("macro", "micro"):
        raise ValueError(f"unknown average {average!r}; use 'macro' or 'micro'")
    matrix = confusion_matrix(y_true, y_pred)
    tp = np.diag(matrix).astype(np.float64)
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    if average == "micro":
        tp_sum, fp_sum, fn_sum = tp.sum(), fp.sum(), fn.sum()
        precision = tp_sum / (tp_sum + fp_sum) if tp_sum + fp_sum > 0 else 0.0
        recall = tp_sum / (tp_sum + fn_sum) if tp_sum + fn_sum > 0 else 0.0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            per_precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
            per_recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        precision = float(per_precision.mean())
        recall = float(per_recall.mean())
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return float(precision), float(recall), float(f1)


def f1_score(y_true, y_pred, average: str = "macro") -> float:
    """Macro- or micro-averaged F1."""
    return precision_recall_f1(y_true, y_pred, average=average)[2]


def log_loss(y_true, proba, labels=None, eps: float = 1e-15) -> float:
    """Cross-entropy between integer labels and a probability matrix."""
    y_true = np.asarray(y_true)
    proba = np.asarray(proba, dtype=np.float64)
    if labels is None:
        labels = np.unique(y_true)
    labels = np.asarray(labels)
    if proba.ndim != 2 or proba.shape[1] != len(labels):
        raise ValueError(
            f"proba has shape {proba.shape}, expected (n_samples, {len(labels)})"
        )
    index = {label: i for i, label in enumerate(labels.tolist())}
    rows = np.array([index[label] for label in y_true.tolist()])
    clipped = np.clip(proba, eps, 1.0)
    clipped = clipped / clipped.sum(axis=1, keepdims=True)
    return float(-np.mean(np.log(clipped[np.arange(len(rows)), rows])))


def mean_squared_error(y_true, y_pred) -> float:
    """Mean squared error; accepts 1-D or 2-D targets."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.mean((y_true - y_pred) ** 2))


def mean_absolute_error(y_true, y_pred) -> float:
    """Mean absolute error; accepts 1-D or 2-D targets."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.mean(np.abs(y_true - y_pred)))


def root_mean_squared_error(y_true, y_pred) -> float:
    """Square root of the mean squared error."""
    return float(np.sqrt(mean_squared_error(y_true, y_pred)))


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    residual = np.sum((y_true - y_pred) ** 2)
    total = np.sum((y_true - y_true.mean()) ** 2)
    if total == 0:
        return 0.0 if residual > 0 else 1.0
    return float(1.0 - residual / total)


# -- task-aware scoring ----------------------------------------------------------------


@dataclass(frozen=True)
class Scorer:
    """A metric oriented so that *greater is always better*.

    ``fn`` is the raw metric; when ``greater_is_better`` is ``False`` the
    scorer negates it, so every objective in the HPO layer stays a
    maximisation regardless of the metric chosen.  ``error_score`` is the
    oriented value a crashed fold receives: bounded metrics use their true
    worst (0.0 for accuracy, the seed convention); metrics unbounded below
    (R², negated RMSE/MAE) use a huge finite negative sentinel, so a
    crashing configuration ranks beneath every genuinely-fitted one yet
    never injects ``-inf`` into mean/table statistics.
    """

    name: str
    fn: Callable[..., float]
    greater_is_better: bool = True
    error_score: float = 0.0
    task: str = "classification"

    def __post_init__(self) -> None:
        # Searches that end with no finite score report error_score as is.
        if not np.isfinite(self.error_score):
            raise ValueError(
                f"scorer {self.name!r} needs a finite error_score, got {self.error_score!r}"
            )

    def __call__(self, y_true, y_pred) -> float:
        value = float(self.fn(y_true, y_pred))
        return value if self.greater_is_better else -value


# Finite "catastrophically bad" sentinel for unbounded-below error metrics:
# it must rank beneath any real negated RMSE/MAE while staying finite, so a
# crash can never score 0.0 (the *best* oriented error score) and never
# injects -inf/NaN into performance-table statistics.
_ERROR_METRIC_WORST = -1e12

SCORERS: dict[str, Scorer] = {
    "accuracy": Scorer("accuracy", accuracy_score, True, 0.0, "classification"),
    "balanced_accuracy": Scorer(
        "balanced_accuracy", balanced_accuracy_score, True, 0.0, "classification"
    ),
    "f1": Scorer("f1", f1_score, True, 0.0, "classification"),
    # R² is unbounded below (a diverging fit can legitimately score -10), so
    # its crash sentinel must sit beneath any real score, not at -1.0.
    "r2": Scorer("r2", r2_score, True, _ERROR_METRIC_WORST, "regression"),
    "rmse": Scorer(
        "rmse", root_mean_squared_error, False, _ERROR_METRIC_WORST, "regression"
    ),
    "mae": Scorer("mae", mean_absolute_error, False, _ERROR_METRIC_WORST, "regression"),
}

_TASK_DEFAULT_METRIC = {"classification": "accuracy", "regression": "r2"}


def _task_key(task: str) -> str:
    """Local task normalisation (this module cannot import datasets.task
    without a circular import: datasets.dataset pulls in the learners
    package)."""
    return str(getattr(task, "value", task)).strip().lower()


def default_metric_for_task(task: str) -> str:
    """The metric a task scores with when none is given (paper default: accuracy)."""
    key = _task_key(task)
    if key not in _TASK_DEFAULT_METRIC:
        raise ValueError(
            f"unknown task {task!r}; known: {sorted(_TASK_DEFAULT_METRIC)}"
        )
    return _TASK_DEFAULT_METRIC[key]


def resolve_scorer(metric: "str | Scorer | None", task: str = "classification") -> Scorer:
    """Look up a :class:`Scorer` by name, defaulting per task type.

    Name-resolved scorers must belong to the requested task — scoring
    label-encoded classes with RMSE (or continuous targets with accuracy)
    is numerically plausible but meaningless, so it raises here instead of
    producing silent nonsense.  A caller-constructed :class:`Scorer`
    instance is trusted as-is.
    """
    if isinstance(metric, Scorer):
        return metric
    name = metric if metric is not None else default_metric_for_task(task)
    if name not in SCORERS:
        raise ValueError(f"unknown metric {name!r}; known: {sorted(SCORERS)}")
    scorer = SCORERS[name]
    key = _task_key(task)
    if scorer.task != key:
        matching = sorted(s.name for s in SCORERS.values() if s.task == key)
        raise ValueError(
            f"metric {name!r} is a {scorer.task} metric and cannot score a "
            f"{key} task; metrics for {key}: {matching}"
        )
    return scorer
