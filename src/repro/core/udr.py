"""User Demand Responser — Algorithm 5 (``AutoModelUDR``).

Given a user task instance, the UDR

1. asks the trained decision model ``SNA`` for the suitable algorithm ``SA``
   (pruning the CASH search space to a single algorithm),
2. builds one :class:`~repro.execution.engine.EvaluationEngine` for
   ``(SA, I)`` — precomputed CV folds, score cache, optional parallel
   workers — that every subsequent evaluation runs through,
3. picks GA or BO according to the cost of a single configuration evaluation
   on a small sample (the paper's 10-minute rule); the probes are charged
   against the user's budget and their results seed the engine cache, and
4. optimises under the user's time/evaluation budget, returning the selected
   algorithm with the best hyperparameter setting found so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import obs
from ..datasets.dataset import Dataset
from ..datasets.task import resolve_task
from ..execution import (
    EvaluationEngine,
    ResultStore,
    estimator_engine,
    objective_context_suffix,
)
from ..hpo.base import Budget, HPOProblem, OptimizationResult
from ..hpo.selector import HPOTechniqueSelector
from ..learners.base import BaseClassifier
from ..learners.metrics import resolve_scorer
from ..learners.pipeline import pipeline_context_suffix, training_matrix
from ..learners.registry import AlgorithmRegistry
from ..learners.regression_registry import registry_for_task
from .architecture_search import DecisionModel

__all__ = ["CASHSolution", "UserDemandResponser", "first_supported_algorithm"]


def first_supported_algorithm(ranking: list[str], registry: AlgorithmRegistry) -> str:
    """The best-ranked algorithm the catalogue can actually build.

    Shared selection policy of the UDR and the serving dispatcher — change it
    here and both the in-process and the HTTP paths follow.
    """
    for algorithm in ranking:
        if algorithm in registry:
            return algorithm
    raise RuntimeError(
        "the decision model only recommends algorithms outside the catalogue; "
        "notify the user to implement the recommended algorithm "
        f"({ranking[0]!r})"
    )


@dataclass
class CASHSolution:
    """The solution Auto-Model hands back to the user: ``(SA, OHS)`` plus context."""

    algorithm: str
    config: dict[str, Any]
    cv_score: float
    optimizer: str
    n_evaluations: int
    elapsed: float
    estimator: BaseClassifier | None = None
    history: OptimizationResult | None = field(default=None, repr=False)
    engine_stats: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "config": self.config,
            "cv_score": round(self.cv_score, 4),
            "optimizer": self.optimizer,
            "n_evaluations": self.n_evaluations,
            "elapsed_seconds": round(self.elapsed, 3),
        }
        if self.engine_stats:
            out["cache_hit_rate"] = self.engine_stats.get("cache_hit_rate")
            out["evals_per_second"] = self.engine_stats.get("evals_per_second")
        return out


class UserDemandResponser:
    """The online half of Auto-Model.

    ``n_workers``/``backend`` configure the evaluation engine: with more than
    one worker the GA populations and BO initial designs of the tuning step
    are evaluated concurrently (deterministic trajectories either way).

    With a ``store`` (a :class:`~repro.execution.ResultStore`), every tuning
    evaluation is persisted and, when ``warm_start`` is on, repeat requests
    for the same (algorithm, dataset, CV protocol) replay prior scores from
    disk instead of re-running cross-validation; ``warm_start_top_k`` prior
    bests additionally seed the GA population / BO initial design (re-ranked
    before fresh sampling).
    """

    def __init__(
        self,
        model: DecisionModel,
        registry: AlgorithmRegistry | None = None,
        cv: int = 5,
        tuning_max_records: int | None = 400,
        probe_time_threshold: float = 2.0,
        random_state: int | None = 0,
        n_workers: int = 1,
        backend: str = "thread",
        store: ResultStore | None = None,
        warm_start: bool = True,
        warm_start_top_k: int = 3,
        task: str = "classification",
        metric: str | None = None,
    ) -> None:
        self.task = resolve_task(task).value
        self.metric = metric
        self.model = model
        self.registry = registry if registry is not None else registry_for_task(self.task)
        self.cv = cv
        self.tuning_max_records = tuning_max_records
        self.probe_time_threshold = probe_time_threshold
        self.random_state = random_state
        self.n_workers = n_workers
        self.backend = backend
        self.store = store
        self.warm_start = warm_start
        self.warm_start_top_k = int(warm_start_top_k)

    # -- algorithm selection (Algorithm 5, line 1) --------------------------------------------
    def select_algorithm(self, dataset: Dataset) -> str:
        """``SA = SNA(KFs(I))``, constrained to algorithms present in the catalogue."""
        return first_supported_algorithm(self.model.rank(dataset), self.registry)

    def select_algorithms(self, datasets: list[Dataset]) -> list[str]:
        """Batched :meth:`select_algorithm`: one decision-model forward pass."""
        return [
            first_supported_algorithm(ranking, self.registry)
            for ranking in self.model.rank_many(datasets)
        ]

    # -- hyperparameter optimisation (lines 2-4) ------------------------------------------------
    def _store_context(self, dataset: Dataset, algorithm: str) -> str:
        """Shard key fingerprinting the tuning objective.

        Everything that changes ``f(λ, SA, I)`` is folded in — dataset
        identity/shape, the subsample cap, the CV protocol and the seed — so
        a persistent store never replays scores across distinct objectives.
        Pipeline catalogues additionally append their step structure
        (:func:`~repro.learners.pipeline.pipeline_context_suffix`): the same
        algorithm name means a different objective when it denotes a
        pipeline, while bare-estimator shard keys stay byte-identical.
        """
        return (
            f"udr-{algorithm}-{dataset.name}-{dataset.n_records}x{dataset.n_attributes}"
            f"-sub{self.tuning_max_records}-cv{self.cv}-rs{self.random_state}"
            f"{pipeline_context_suffix(self.registry.get(algorithm))}"
        )

    def store_context(self, dataset: Dataset, algorithm: str) -> str:
        """The full store shard key tuning evaluations land under.

        Includes the objective suffix :func:`estimator_engine` appends for
        non-default task/metric combinations, so callers (e.g. the serving
        dispatcher looking up previously tuned configurations) read exactly
        the shard :meth:`respond` writes.
        """
        return self._store_context(dataset, algorithm) + objective_context_suffix(
            self.task, self.metric
        )

    def tuned_best(self, dataset: Dataset, algorithm: str, k: int = 1) -> list[tuple[dict[str, Any], float]]:
        """Best previously tuned ``(config, score)`` pairs from the store.

        Empty when no store is attached or nothing was tuned yet; this is how
        async refine jobs make their results servable — the dispatcher
        consults it instead of falling back to default configurations.
        """
        if self.store is None:
            return []
        return self.store.top_k(self.store_context(dataset, algorithm), k=k)

    def _make_engine(self, dataset: Dataset, algorithm: str):
        """One shared engine per (algorithm, dataset): folds, cache, workers, store."""
        spec = self.registry.get(algorithm)
        data = (
            dataset.subsample(self.tuning_max_records, random_state=self.random_state)
            if self.tuning_max_records
            else dataset
        )
        # Pipelines tune on the raw attribute blocks (their own steps impute
        # and encode per fold); bare estimators keep the encoded matrix.
        X, y = training_matrix(data, spec)
        # estimator_engine folds the task/metric identity into the store
        # context when it differs from the classification-accuracy default,
        # so classification shard names stay byte-identical to prior releases.
        engine = estimator_engine(
            spec.build,
            X,
            y,
            cv=self.cv,
            random_state=self.random_state,
            n_workers=self.n_workers,
            backend=self.backend,
            name=f"udr-{algorithm}-{dataset.name}",
            store=self.store,
            store_context=self._store_context(dataset, algorithm),
            warm_start=self.warm_start,
            task=self.task,
            metric=self.metric,
        )
        return spec, engine

    def optimize_hyperparameters(
        self,
        dataset: Dataset,
        algorithm: str,
        time_limit: float | None = 30.0,
        max_evaluations: int | None = None,
        engine: EvaluationEngine | None = None,
    ) -> tuple[dict[str, Any], OptimizationResult, str]:
        """Tune ``algorithm`` on ``dataset``; returns (best config, history, optimizer name)."""
        if engine is None:
            spec, engine = self._make_engine(dataset, algorithm)
        else:
            spec = self.registry.get(algorithm)
        budget = Budget(max_evaluations=max_evaluations, time_limit=time_limit)
        budget.start()
        # Warm-start seeding only kicks in when the engine actually reads its
        # store (a store attached with warm_start=False is record-only), so
        # trajectories without warm starts stay bit-identical to earlier
        # releases.
        warm_k = self.warm_start_top_k if engine.warm_start else 0
        selector = HPOTechniqueSelector(
            time_threshold=self.probe_time_threshold,
            random_state=self.random_state,
            warm_start=warm_k,
        )
        # Probes run through the engine: charged to the budget, cached for
        # reuse as the optimizer's default-configuration anchor trial.
        optimizer = selector.select(spec.space, engine=engine, budget=budget)
        problem = HPOProblem(
            spec.space, name=f"udr-{algorithm}-{dataset.name}", engine=engine
        )
        result = optimizer.optimize(problem, budget)
        config = (
            result.best_config if np.isfinite(result.best_score) else spec.default_config()
        )
        return config, result, optimizer.name

    # -- Algorithm 5 -----------------------------------------------------------------------------------
    def respond(
        self,
        dataset: Dataset,
        time_limit: float | None = 30.0,
        max_evaluations: int | None = None,
        fit_final_estimator: bool = True,
        algorithm: str | None = None,
    ) -> CASHSolution:
        """Full UDR run: select an algorithm, tune it, and return the solution.

        ``algorithm`` preselects the algorithm (skipping the decision-model
        forward pass), which is how :meth:`respond_many` amortises selection
        over a batch; it must be a catalogue member.
        """
        start = time.monotonic()
        if algorithm is None:
            algorithm = self.select_algorithm(dataset)
        elif algorithm not in self.registry:
            raise KeyError(f"preselected algorithm {algorithm!r} not in the catalogue")
        config, history, optimizer_name = self.optimize_hyperparameters(
            dataset, algorithm, time_limit=time_limit, max_evaluations=max_evaluations
        )
        estimator: BaseClassifier | None = None
        if fit_final_estimator:
            X, y = training_matrix(dataset, self.registry.get(algorithm))
            estimator = self.registry.build(algorithm, config)
            try:
                estimator.fit(X, y)
            except Exception as exc:  # noqa: BLE001 — a failed refit returns no estimator
                obs.error_event("udr.final_fit", exc)
                estimator = None
        if np.isfinite(history.best_score):
            cv_score = history.best_score
        else:
            cv_score = resolve_scorer(self.metric, self.task).error_score
        return CASHSolution(
            algorithm=algorithm,
            config=config,
            cv_score=float(cv_score),
            optimizer=optimizer_name,
            n_evaluations=history.n_evaluations,
            elapsed=time.monotonic() - start,
            estimator=estimator,
            history=history,
            engine_stats=history.engine_stats,
        )

    def respond_many(
        self,
        datasets: list[Dataset],
        time_limit: float | None = 30.0,
        max_evaluations: int | None = None,
        fit_final_estimator: bool = True,
    ) -> list[CASHSolution]:
        """Answer a batch of CASH queries.

        Algorithm selection is vectorized into a single decision-model
        forward pass (:meth:`select_algorithms`); tuning still runs
        per-dataset, each under its own ``time_limit``/``max_evaluations``.
        """
        algorithms = self.select_algorithms(datasets)
        return [
            self.respond(
                dataset,
                time_limit=time_limit,
                max_evaluations=max_evaluations,
                fit_final_estimator=fit_final_estimator,
                algorithm=algorithm,
            )
            for dataset, algorithm in zip(datasets, algorithms)
        ]
