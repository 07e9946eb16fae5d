"""Simpler CASH baselines: pure random joint search and single-best-algorithm."""

from __future__ import annotations

import time

import numpy as np

from ..core.udr import CASHSolution
from ..datasets.dataset import Dataset
from ..datasets.task import resolve_task
from ..evaluation.performance import PerformanceTable
from ..execution import estimator_engine
from ..hpo.base import Budget, HPOProblem
from ..hpo.genetic import GeneticAlgorithm
from ..learners.metrics import resolve_scorer
from ..learners.pipeline import training_matrix
from ..learners.registry import AlgorithmRegistry
from ..learners.regression_registry import registry_for_task
from .autoweka import AutoWekaBaseline

__all__ = ["RandomCASH", "SingleBestBaseline"]


class RandomCASH(AutoWekaBaseline):
    """Random search over the joint algorithm+hyperparameter space.

    The weakest reasonable CASH baseline: identical search space to Auto-WEKA,
    no model guidance at all.
    """

    def __init__(
        self,
        registry: AlgorithmRegistry | None = None,
        cv: int = 5,
        tuning_max_records: int | None = 400,
        random_state: int | None = 0,
        n_workers: int = 1,
        backend: str = "thread",
        task: str = "classification",
        metric: str | None = None,
    ) -> None:
        super().__init__(
            registry=registry,
            strategy="random",
            cv=cv,
            tuning_max_records=tuning_max_records,
            random_state=random_state,
            n_workers=n_workers,
            backend=backend,
            task=task,
            metric=metric,
        )


class SingleBestBaseline:
    """Always pick the algorithm with the best *average* knowledge-pool performance.

    This is the "Top1 single algorithm" column of Tables VIII/IX and XII/XIII:
    no per-dataset selection, just the globally strongest catalogue member,
    optionally tuned on the target dataset.
    """

    def __init__(
        self,
        performance: PerformanceTable,
        registry: AlgorithmRegistry | None = None,
        cv: int = 5,
        tuning_max_records: int | None = 400,
        random_state: int | None = 0,
        n_workers: int = 1,
        backend: str = "thread",
        task: str = "classification",
        metric: str | None = None,
    ) -> None:
        self.task = resolve_task(task).value
        self.metric = metric
        self.performance = performance
        self.registry = registry if registry is not None else registry_for_task(self.task)
        self.cv = cv
        self.tuning_max_records = tuning_max_records
        self.random_state = random_state
        self.n_workers = n_workers
        self.backend = backend
        self.algorithm = performance.top_algorithms(k=1, by="score")[0][0]

    def run(
        self,
        dataset: Dataset,
        time_limit: float | None = 30.0,
        max_evaluations: int | None = 20,
    ) -> CASHSolution:
        """Tune the single globally-best algorithm on ``dataset``."""
        start = time.monotonic()
        spec = self.registry.get(self.algorithm)
        data = (
            dataset.subsample(self.tuning_max_records, random_state=self.random_state)
            if self.tuning_max_records
            else dataset
        )
        X, y = training_matrix(data, spec)
        engine = estimator_engine(
            spec.build,
            X,
            y,
            cv=self.cv,
            random_state=self.random_state,
            n_workers=self.n_workers,
            backend=self.backend,
            name=f"single-best-{dataset.name}",
            task=self.task,
            metric=self.metric,
        )
        problem = HPOProblem(spec.space, name=f"single-best-{dataset.name}", engine=engine)
        optimizer = GeneticAlgorithm(
            population_size=10, n_generations=20, random_state=self.random_state
        )
        budget = Budget(max_evaluations=max_evaluations, time_limit=time_limit)
        result = optimizer.optimize(problem, budget)
        if np.isfinite(result.best_score):
            config, score = result.best_config, float(result.best_score)
        else:
            config = spec.default_config()
            score = resolve_scorer(self.metric, self.task).error_score
        return CASHSolution(
            algorithm=self.algorithm,
            config=config,
            cv_score=score,
            optimizer="single-best",
            n_evaluations=result.n_evaluations,
            elapsed=time.monotonic() - start,
            history=result,
            engine_stats=result.engine_stats,
        )
