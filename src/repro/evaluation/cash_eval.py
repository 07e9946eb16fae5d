"""Evaluation of CASH tools under time limits (the Table X protocol).

Table XIV defines ``f(T, D)`` as the 10-fold cross-validation accuracy of the
solution ``T(D)`` (the algorithm + hyperparameter setting a CASH technique
returns for ``D``).  :func:`evaluate_cash_tool` runs a tool under a time limit
and scores the returned configuration with
:func:`~repro.evaluation.performance.evaluate_algorithm`, the performance
table's own CV score (R² on a regression dataset); :func:`compare_tools` runs
several tools over several datasets and budgets, producing the rows of
Table X.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..datasets.dataset import Dataset
from ..learners.registry import AlgorithmRegistry
from ..learners.regression_registry import registry_for_task
from .performance import evaluate_algorithm

__all__ = ["CASHTool", "CASHEvaluation", "evaluate_cash_tool", "compare_tools", "ComparisonResult"]


class CASHTool(Protocol):
    """Anything that answers a CASH query: Auto-Model's responder or a baseline."""

    def run(self, dataset: Dataset, time_limit: float | None, max_evaluations: int | None): ...


@dataclass
class CASHEvaluation:
    """Outcome of one (tool, dataset, budget) cell."""

    tool: str
    dataset: str
    time_limit: float | None
    algorithm: str
    config: dict
    f_score: float
    search_score: float
    n_evaluations: int
    elapsed: float


def _run_tool(tool, dataset: Dataset, time_limit: float | None, max_evaluations: int | None):
    """Dispatch over the two solution interfaces (UDR uses respond, baselines use run)."""
    if hasattr(tool, "respond"):
        return tool.respond(dataset, time_limit=time_limit, max_evaluations=max_evaluations)
    return tool.run(dataset, time_limit=time_limit, max_evaluations=max_evaluations)


def evaluate_cash_tool(
    tool,
    dataset: Dataset,
    tool_name: str,
    time_limit: float | None = 30.0,
    max_evaluations: int | None = None,
    cv: int = 10,
    registry: AlgorithmRegistry | None = None,
    eval_max_records: int | None = 800,
    random_state: int | None = 0,
) -> CASHEvaluation:
    """Run a CASH tool on ``dataset`` and compute ``f(T, D)`` for its solution.

    The solution is scored on the dataset's own task (its default metric) over
    the catalogue for that task unless ``registry`` is given; a solution that
    fails to re-evaluate scores the metric's ``error_score``.
    """
    registry = registry or registry_for_task(dataset.task)
    start = time.monotonic()
    solution = _run_tool(tool, dataset, time_limit, max_evaluations)
    elapsed = time.monotonic() - start
    f_score = evaluate_algorithm(
        registry,
        solution.algorithm,
        dataset,
        config=solution.config,
        cv=cv,
        max_records=eval_max_records,
        random_state=random_state,
        task=dataset.task,
    )
    return CASHEvaluation(
        tool=tool_name,
        dataset=dataset.name,
        time_limit=time_limit,
        algorithm=solution.algorithm,
        config=dict(solution.config),
        f_score=float(f_score),
        search_score=float(solution.cv_score),
        n_evaluations=solution.n_evaluations,
        elapsed=elapsed,
    )


@dataclass
class ComparisonResult:
    """Grid of evaluations over tools × datasets × time limits (Table X shape)."""

    evaluations: list[CASHEvaluation] = field(default_factory=list)

    def add(self, evaluation: CASHEvaluation) -> None:
        self.evaluations.append(evaluation)

    def f_score(self, tool: str, dataset: str, time_limit: float | None) -> float:
        for evaluation in self.evaluations:
            if (
                evaluation.tool == tool
                and evaluation.dataset == dataset
                and evaluation.time_limit == time_limit
            ):
                return evaluation.f_score
        raise KeyError(f"no evaluation for ({tool}, {dataset}, {time_limit})")

    def tools(self) -> list[str]:
        seen: dict[str, None] = {}
        for evaluation in self.evaluations:
            seen.setdefault(evaluation.tool, None)
        return list(seen)

    def datasets(self) -> list[str]:
        seen: dict[str, None] = {}
        for evaluation in self.evaluations:
            seen.setdefault(evaluation.dataset, None)
        return list(seen)

    def time_limits(self) -> list[float | None]:
        seen: dict[float | None, None] = {}
        for evaluation in self.evaluations:
            seen.setdefault(evaluation.time_limit, None)
        return list(seen)

    def table(self) -> list[dict]:
        """Rows: one per (time limit, tool) with per-dataset f scores (Table X layout)."""
        rows = []
        for time_limit in self.time_limits():
            for tool in self.tools():
                row: dict = {"time_limit": time_limit, "tool": tool}
                for dataset in self.datasets():
                    try:
                        row[dataset] = round(self.f_score(tool, dataset, time_limit), 3)
                    except KeyError:
                        row[dataset] = None
                rows.append(row)
        return rows

    def win_counts(self, time_limit: float | None = None) -> dict[str, int]:
        """How many datasets each tool wins (or ties) on, per time limit."""
        wins = {tool: 0 for tool in self.tools()}
        limits = [time_limit] if time_limit is not None else self.time_limits()
        for limit in limits:
            for dataset in self.datasets():
                scores = {}
                for tool in self.tools():
                    try:
                        scores[tool] = self.f_score(tool, dataset, limit)
                    except KeyError:
                        continue
                if not scores:
                    continue
                best = max(scores.values())
                for tool, score in scores.items():
                    if np.isclose(score, best, atol=1e-9):
                        wins[tool] += 1
        return wins

    def mean_f_score(self, tool: str, time_limit: float | None = None) -> float:
        values = [
            evaluation.f_score
            for evaluation in self.evaluations
            if evaluation.tool == tool
            and (time_limit is None or evaluation.time_limit == time_limit)
        ]
        if not values:
            raise KeyError(f"no evaluations for tool {tool!r}")
        return float(np.mean(values))


def compare_tools(
    tools: dict[str, object],
    datasets: list[Dataset],
    time_limits: list[float | None] = (30.0,),
    max_evaluations: int | None = None,
    cv: int = 10,
    registry: AlgorithmRegistry | None = None,
    eval_max_records: int | None = 800,
    random_state: int | None = 0,
) -> ComparisonResult:
    """Evaluate every tool on every dataset under every time limit."""
    result = ComparisonResult()
    for time_limit in time_limits:
        for dataset in datasets:
            for name, tool in tools.items():
                result.add(
                    evaluate_cash_tool(
                        tool,
                        dataset,
                        tool_name=name,
                        time_limit=time_limit,
                        max_evaluations=max_evaluations,
                        cv=cv,
                        registry=registry,
                        eval_max_records=eval_max_records,
                        random_state=random_state,
                    )
                )
    return result
