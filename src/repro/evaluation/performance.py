"""Per-(algorithm, dataset) performance tables.

The paper's Section IV notation ``P(A, D)`` is the 10-fold cross-validation
accuracy of algorithm ``A`` on dataset ``D`` after tuning its hyperparameters
with a GA under a time limit.  A :class:`PerformanceTable` materialises this
quantity for a catalogue of algorithms over a collection of datasets; it backs

* the PORatio / Pmax / Pavg statistics of Tables VI–IX and XII–XIII,
* the synthetic paper-corpus generator (papers "report" noisy observations of
  these accuracies), and
* the single-best-algorithm baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..datasets.dataset import Dataset
from ..datasets.task import resolve_task
from ..execution import EvaluationEngine, FoldPlan, ResultStore, WorkCoordinator, estimator_engine
from ..execution.objectives import objective_context_suffix
from ..hpo.base import Budget, HPOProblem
from ..hpo.genetic import GeneticAlgorithm
from ..learners.metrics import resolve_scorer
from ..learners.pipeline import registry_context_suffix, training_matrix
from ..learners.registry import AlgorithmRegistry
from ..learners.regression_registry import registry_for_task

__all__ = ["PerformanceTable", "evaluate_algorithm", "tune_algorithm"]


def evaluate_algorithm(
    registry: AlgorithmRegistry,
    algorithm: str,
    dataset: Dataset,
    config: dict | None = None,
    cv: int = 5,
    max_records: int | None = 400,
    random_state: int | None = 0,
    task: str = "classification",
    metric: str | None = None,
) -> float:
    """Cross-validation score of one algorithm configuration on one dataset.

    Classification (the default) scores stratified-CV accuracy;
    ``task="regression"`` scores unstratified-CV R² (or the given metric,
    oriented greater-is-better).  The folds are the :class:`FoldPlan` the
    engine's objective would draw for the same data.  Failures (an algorithm
    that cannot handle the dataset) score the scorer's ``error_score`` — 0.0
    for accuracy, matching how the CASH searches treat crashed configurations.
    Pipeline catalogue entries are scored on the raw attribute blocks (their
    steps preprocess per fold); bare estimators keep the encoded matrix.
    """
    task = resolve_task(task).value
    scorer = resolve_scorer(metric, task)
    data = dataset.subsample(max_records, random_state=random_state) if max_records else dataset
    try:
        spec = registry.get(algorithm)
    except KeyError:
        # Unknown algorithms have always scored as failures, not raised.
        return scorer.error_score
    X, y = training_matrix(data, spec)
    try:
        plan = FoldPlan.for_task(y, task=task, cv=cv, random_state=random_state)
        return plan.score(registry.build(algorithm, config), X, y, scorer, scorer.error_score)
    except Exception as exc:  # noqa: BLE001 — failed algorithms score worst
        obs.error_event("performance.evaluate", exc)
        return scorer.error_score


def tune_algorithm(
    registry: AlgorithmRegistry,
    algorithm: str,
    dataset: Dataset,
    max_evaluations: int = 12,
    time_limit: float | None = None,
    cv: int = 3,
    max_records: int | None = 300,
    random_state: int | None = 0,
    task: str = "classification",
    metric: str | None = None,
) -> tuple[dict, float]:
    """GA-tune one algorithm on one dataset; return (best config, CV score).

    This reproduces the paper's ``P(A, D)`` protocol (GA with a time limit);
    the default budget is expressed in evaluations so results are deterministic
    across machines, but a wall-clock ``time_limit`` can be given as well.
    """
    spec = registry.get(algorithm)
    data = dataset.subsample(max_records, random_state=random_state) if max_records else dataset
    X, y = training_matrix(data, spec)
    # One engine per (algorithm, dataset) cell: the CV folds are computed once
    # and shared by every configuration the GA proposes.
    engine = estimator_engine(
        spec.build,
        X,
        y,
        cv=cv,
        random_state=random_state,
        name=f"tune-{algorithm}-{dataset.name}",
        task=task,
        metric=metric,
    )
    problem = HPOProblem(spec.space, name=f"tune-{algorithm}-{dataset.name}", engine=engine)
    optimizer = GeneticAlgorithm(
        population_size=min(8, max(4, max_evaluations // 2)),
        n_generations=max(1, max_evaluations // 4),
        random_state=random_state,
    )
    budget = Budget(max_evaluations=max_evaluations, time_limit=time_limit)
    result = optimizer.optimize(problem, budget)
    if not np.isfinite(result.best_score):
        return spec.default_config(), resolve_scorer(metric, task).error_score
    return result.best_config, float(result.best_score)


@dataclass
class PerformanceTable:
    """Dense table of ``P(A, D)`` scores with the paper's summary statistics."""

    algorithms: list[str]
    datasets: list[str]
    scores: np.ndarray  # shape (n_datasets, n_algorithms)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.datasets), len(self.algorithms)):
            raise ValueError(
                f"scores shape {self.scores.shape} does not match "
                f"({len(self.datasets)}, {len(self.algorithms)})"
            )

    # -- construction ---------------------------------------------------------------
    @classmethod
    def compute(
        cls,
        datasets: list[Dataset],
        registry: AlgorithmRegistry | None = None,
        tune: bool = False,
        cv: int = 3,
        max_records: int | None = 300,
        max_evaluations: int = 8,
        random_state: int = 0,
        n_workers: int = 1,
        store: ResultStore | None = None,
        warm_start: bool = True,
        task: str = "classification",
        metric: str | None = None,
        coordinator: WorkCoordinator | None = None,
    ) -> "PerformanceTable":
        """Evaluate every catalogue algorithm on every dataset.

        With ``tune=False`` (default) each algorithm is scored with its default
        configuration — far cheaper and sufficient for corpus generation and
        relative comparisons.  With ``tune=True`` each entry is GA-tuned first,
        matching the paper's ``P(A, D)`` definition more closely.

        The (algorithm, dataset) cells are independent, so they run through
        one :class:`EvaluationEngine` batch: ``n_workers > 1`` evaluates cells
        concurrently.  Per-cell seeds are drawn from one generator in a fixed
        order, so parallelism adds no nondeterminism of its own (learners that
        default to an unseeded ``random_state``, e.g. ``RandomTree``, vary
        between runs at any worker count, exactly as they always have).

        With a ``store``, every finished cell is persisted and (under
        ``warm_start``, the default) reloaded on the next call, so a repeat —
        or a run interrupted midway, or one extended with more datasets
        appended to the list — resumes from the cells already on disk instead
        of recomputing the whole table.  Cells are keyed by dataset name,
        algorithm and per-cell seed, and the shard context fingerprints the
        measurement protocol, so a store can never leak scores between
        incompatible tables.

        ``task="regression"`` computes the same table over a regressor
        catalogue with CV R² cells (or the given ``metric``); every dataset
        must carry the matching task type.

        A ``coordinator`` replaces the in-process engine with the fleet
        protocol: this call becomes one worker of a fleet whose members all
        invoke ``compute`` with identical arguments over a shared store
        backend (the coordinator's own store; ``store``/``n_workers`` are
        ignored).  Cells are leased, stolen and persisted through the store
        under the *same* context and fingerprints as the engine path, so
        coordinated and serial builds produce identical tables and resume
        each other's partial progress.
        """
        task = resolve_task(task).value
        worst = resolve_scorer(metric, task).error_score
        registry = registry if registry is not None else registry_for_task(task)
        rng = np.random.default_rng(random_state)
        names = registry.names
        dataset_by_name = {dataset.name: dataset for dataset in datasets}
        if len(dataset_by_name) != len(datasets):
            # Cells (and table rows) are keyed by name; silently collapsing
            # duplicates would score the wrong data.
            raise ValueError("dataset names must be unique to compute a table")
        mismatched = [d.name for d in datasets if getattr(d.task, "value", d.task) != task]
        if mismatched:
            raise ValueError(
                f"datasets {mismatched} do not carry task={task!r}; "
                "a performance table mixes one task type only"
            )
        cells = []
        for dataset in datasets:
            # The cell fingerprint carries the dataset's shape so a store
            # never replays scores for a same-named dataset whose contents
            # changed (e.g. the suite was regenerated with more records).
            # Classification keeps its historical class-count suffix so
            # existing store fingerprints stay valid.
            target_tag = dataset.n_classes if task == "classification" else "reg"
            shape = f"{dataset.n_records}x{dataset.n_attributes}x{target_tag}"
            for algorithm in names:
                seed = int(rng.integers(0, 2**31 - 1))
                cells.append(
                    {
                        "dataset": dataset.name,
                        "shape": shape,
                        "algorithm": algorithm,
                        "seed": seed,
                    }
                )

        def cell_objective(cell: dict) -> float:
            dataset = dataset_by_name[cell["dataset"]]
            if tune:
                _, score = tune_algorithm(
                    registry,
                    cell["algorithm"],
                    dataset,
                    max_evaluations=max_evaluations,
                    cv=cv,
                    max_records=max_records,
                    random_state=cell["seed"],
                    task=task,
                    metric=metric,
                )
                return score
            return evaluate_algorithm(
                registry,
                cell["algorithm"],
                dataset,
                cv=cv,
                max_records=max_records,
                random_state=cell["seed"],
                task=task,
                metric=metric,
            )

        # Pipeline catalogues append their structure tag: cells are keyed by
        # algorithm *name*, and "J48" the pipeline is a different measurement
        # than "J48" the bare tree.  Bare registries contribute nothing, so
        # historical shard contexts stay byte-identical.
        context = (
            f"performance-table-tune{tune}-cv{cv}-sub{max_records}"
            f"-evals{max_evaluations if tune else 0}-rs{random_state}"
            f"{objective_context_suffix(task, metric)}"
            f"{registry_context_suffix(registry)}"
        )
        dataset_index = {dataset.name: i for i, dataset in enumerate(datasets)}
        scores = np.zeros((len(datasets), len(names)))
        with obs.span(
            "table.compute",
            attrs={
                "n_datasets": len(datasets),
                "n_algorithms": len(names),
                "tuned": tune,
                "mode": "coordinator" if coordinator is not None else "engine",
            },
        ):
            if coordinator is not None:
                by_key = coordinator.run(context, cells, cell_objective, crash_score=worst)
                for cell in cells:
                    j = names.index(cell["algorithm"])
                    score = by_key[WorkCoordinator.cell_key(cell)]
                    scores[dataset_index[cell["dataset"]], j] = score
                execution_stats = {"coordinator": coordinator.stats.as_dict()}
            else:
                engine = EvaluationEngine(
                    cell_objective,
                    n_workers=n_workers,
                    crash_score=worst,
                    name="performance-table",
                    store=store,
                    store_context=context,
                    warm_start=warm_start,
                )
                outcomes = engine.evaluate_many(cells)
                for cell, outcome in zip(cells, outcomes):
                    j = names.index(cell["algorithm"])
                    scores[dataset_index[cell["dataset"]], j] = outcome.score
                execution_stats = {"engine": engine.stats.as_dict()}
        table_metadata = {
            "tuned": tune,
            "cv": cv,
            "max_records": max_records,
            **execution_stats,
        }
        if task != "classification" or metric is not None:
            table_metadata["task"] = task
            table_metadata["metric"] = resolve_scorer(metric, task).name
        return cls(
            algorithms=list(names),
            datasets=[d.name for d in datasets],
            scores=scores,
            metadata=table_metadata,
        )

    # -- lookups --------------------------------------------------------------------
    def _dataset_index(self, dataset: str) -> int:
        try:
            return self.datasets.index(dataset)
        except ValueError as exc:
            raise KeyError(f"unknown dataset {dataset!r}") from exc

    def _algorithm_index(self, algorithm: str) -> int:
        try:
            return self.algorithms.index(algorithm)
        except ValueError as exc:
            raise KeyError(f"unknown algorithm {algorithm!r}") from exc

    def score(self, algorithm: str, dataset: str) -> float:
        """``P(A, D)``."""
        return float(self.scores[self._dataset_index(dataset), self._algorithm_index(algorithm)])

    def dataset_scores(self, dataset: str) -> dict[str, float]:
        row = self.scores[self._dataset_index(dataset)]
        return {a: float(s) for a, s in zip(self.algorithms, row)}

    def best_algorithm(self, dataset: str) -> str:
        """``argmax_A P(A, D)``."""
        row = self.scores[self._dataset_index(dataset)]
        return self.algorithms[int(np.argmax(row))]

    def p_max(self, dataset: str) -> float:
        """``Pmax(D)`` — the best score any catalogue algorithm achieves on D."""
        return float(self.scores[self._dataset_index(dataset)].max())

    def p_avg(self, dataset: str) -> float:
        """``Pavg(D)`` — average score of the algorithms that can process D (score > 0)."""
        row = self.scores[self._dataset_index(dataset)]
        valid = row[row > 0]
        return float(valid.mean()) if valid.size else 0.0

    def poratio(self, algorithm: str, dataset: str) -> float:
        """Definition 1 (PORatio): fraction of catalogue algorithms not better than A on D."""
        row = self.scores[self._dataset_index(dataset)]
        score = self.score(algorithm, dataset)
        return float(np.mean(row <= score + 1e-12))

    def ranking(self, dataset: str) -> list[str]:
        """Algorithms sorted from best to worst on ``dataset``."""
        row = self.scores[self._dataset_index(dataset)]
        return [self.algorithms[i] for i in np.argsort(row)[::-1]]

    def average_poratio_of_algorithm(self, algorithm: str) -> float:
        """Average PORatio of one algorithm across all datasets in the table."""
        return float(np.mean([self.poratio(algorithm, d) for d in self.datasets]))

    def average_score_of_algorithm(self, algorithm: str) -> float:
        """Average ``P(A, D)`` of one algorithm across all datasets in the table."""
        j = self._algorithm_index(algorithm)
        return float(self.scores[:, j].mean())

    def top_algorithms(self, k: int = 3, by: str = "poratio") -> list[tuple[str, float]]:
        """Top-k single algorithms by average PORatio or average score (Tables VIII/IX)."""
        if by == "poratio":
            values = [(a, self.average_poratio_of_algorithm(a)) for a in self.algorithms]
        elif by == "score":
            values = [(a, self.average_score_of_algorithm(a)) for a in self.algorithms]
        else:
            raise ValueError("by must be 'poratio' or 'score'")
        return sorted(values, key=lambda t: t[1], reverse=True)[:k]

    # -- persistence -------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "algorithms": self.algorithms,
            "datasets": self.datasets,
            "scores": self.scores.tolist(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PerformanceTable":
        return cls(
            algorithms=list(payload["algorithms"]),
            datasets=list(payload["datasets"]),
            scores=np.array(payload["scores"], dtype=np.float64),
            metadata=dict(payload.get("metadata", {})),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "PerformanceTable":
        return cls.from_dict(json.loads(Path(path).read_text()))
