"""Auto-WEKA-style baseline: one joint hierarchical CASH search.

Auto-WEKA (Thornton et al., KDD 2013) treats the algorithm choice itself as a
top-level categorical hyperparameter and runs a single hyperparameter
optimisation over the combined space of all algorithms and all of their
hyperparameters.  This module reproduces that formulation over our catalogue:

* :func:`joint_space` builds the hierarchical space — a root ``__algorithm__``
  categorical plus every algorithm's hyperparameters, each conditioned on the
  root selecting that algorithm (name-mangled to stay unique).
* :class:`AutoWekaBaseline` searches it with a SMAC-like strategy: random
  initialisation followed by surrogate-guided proposals (GP-EI over the joint
  encoding) interleaved with random restarts, under a wall-clock budget —
  which is what the paper's Table X comparison runs under 30 s / 5 min limits.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from .. import obs
from ..core.udr import CASHSolution
from ..datasets.dataset import Dataset
from ..datasets.task import resolve_task
from ..execution import EvaluationEngine, estimator_engine
from ..hpo.base import Budget, HPOProblem
from ..hpo.bayesian import BayesianOptimization
from ..hpo.random_search import RandomSearch
from ..hpo.space import AndCondition, CategoricalParam, Condition, ConfigSpace
from ..learners.base import BaseClassifier
from ..learners.metrics import resolve_scorer
from ..learners.pipeline import registry_training_matrix, training_matrix
from ..learners.registry import AlgorithmRegistry
from ..learners.regression_registry import registry_for_task

__all__ = [
    "joint_space",
    "split_joint_config",
    "JointBuilder",
    "AutoWekaBaseline",
]

ALGORITHM_KEY = "__algorithm__"
_SEPARATOR = "::"


def joint_space(registry: AlgorithmRegistry) -> ConfigSpace:
    """Hierarchical CASH space: algorithm choice + all per-algorithm hyperparameters.

    Each algorithm's space is namespaced ``<algorithm>::<name>``.  A
    parameter's own activation condition (pipeline specs gate e.g.
    ``encoder:min_frequency`` on ``encoder:group_rare``) is preserved — the
    joint space requires *both* the root selecting the algorithm and the
    original condition, so dead knobs of unselected branches never burn
    evaluations or split cache fingerprints.
    """
    space = ConfigSpace([CategoricalParam(ALGORITHM_KEY, registry.names)])
    for spec in registry:
        gate = Condition(ALGORITHM_KEY, (spec.name,))
        branch = spec.space.prefixed(spec.name, sep=_SEPARATOR)
        for param in branch:
            original = branch.condition(param.name)
            space.add(param, condition=gate if original is None else AndCondition((gate, original)))
    return space


def split_joint_config(config: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """Extract (algorithm, its own hyperparameters) from a joint configuration."""
    algorithm = config[ALGORITHM_KEY]
    return algorithm, ConfigSpace.split_config(config, sep=_SEPARATOR).get(algorithm, {})


class JointBuilder:
    """Picklable joint-space builder: config → estimator of the chosen branch.

    A class rather than a local closure so the evaluation engine's process
    backend (and its zero-copy data plane) can pickle the CV objective instead
    of silently falling back to threads.
    """

    def __init__(self, registry: AlgorithmRegistry) -> None:
        self.registry = registry

    def __call__(self, config: dict[str, Any]) -> BaseClassifier:
        algorithm, params = split_joint_config(config)
        return self.registry.build(algorithm, params)


class AutoWekaBaseline:
    """Joint-space CASH optimizer in the style of Auto-WEKA.

    Parameters
    ----------
    registry:
        Algorithm catalogue to search over (defaults to the full catalogue).
    strategy:
        ``"smac"`` (GP-EI over the joint space with random interleaving, the
        default) or ``"random"`` (pure random search over the joint space).
    cv:
        Folds used to score each candidate configuration.
    tuning_max_records:
        Stratified subsample cap applied to the dataset during the search.
    """

    def __init__(
        self,
        registry: AlgorithmRegistry | None = None,
        strategy: str = "smac",
        cv: int = 5,
        tuning_max_records: int | None = 400,
        random_state: int | None = 0,
        n_workers: int = 1,
        backend: str = "thread",
        task: str = "classification",
        metric: str | None = None,
    ) -> None:
        if strategy not in ("smac", "random"):
            raise ValueError("strategy must be 'smac' or 'random'")
        self.task = resolve_task(task).value
        self.metric = metric
        self.registry = registry if registry is not None else registry_for_task(self.task)
        self.strategy = strategy
        self.cv = cv
        self.tuning_max_records = tuning_max_records
        self.random_state = random_state
        self.n_workers = n_workers
        self.backend = backend

    def _make_engine(self, dataset: Dataset) -> EvaluationEngine:
        """Auto-WEKA's shared evaluator: one engine for the whole joint space.

        The CV fold plan is computed once for the dataset and reused by every
        (algorithm, hyperparameter) candidate, and duplicate candidates across
        the search are served from the score cache.
        """
        data = (
            dataset.subsample(self.tuning_max_records, random_state=self.random_state)
            if self.tuning_max_records
            else dataset
        )
        X, y = registry_training_matrix(data, self.registry)
        return estimator_engine(
            JointBuilder(self.registry),
            X,
            y,
            cv=self.cv,
            random_state=self.random_state,
            n_workers=self.n_workers,
            backend=self.backend,
            name=f"autoweka-{dataset.name}",
            task=self.task,
            metric=self.metric,
        )

    def run(
        self,
        dataset: Dataset,
        time_limit: float | None = 30.0,
        max_evaluations: int | None = None,
        fit_final_estimator: bool = False,
    ) -> CASHSolution:
        """Search the joint space on ``dataset`` under the given budget."""
        start = time.monotonic()
        space = joint_space(self.registry)
        engine = self._make_engine(dataset)
        problem = HPOProblem(space, name=f"autoweka-{dataset.name}", engine=engine)
        if self.strategy == "random":
            optimizer = RandomSearch(random_state=self.random_state)
        else:
            optimizer = BayesianOptimization(
                n_initial=10, n_candidates=128, random_state=self.random_state
            )
        budget = Budget(max_evaluations=max_evaluations, time_limit=time_limit)
        result = optimizer.optimize(problem, budget)
        if np.isfinite(result.best_score):
            best_joint = result.best_config
            best_score = float(result.best_score)
        else:
            best_joint = space.default_configuration()
            best_score = resolve_scorer(self.metric, self.task).error_score
        algorithm, params = split_joint_config(best_joint)
        estimator: BaseClassifier | None = None
        if fit_final_estimator:
            X, y = training_matrix(dataset, self.registry.get(algorithm))
            try:
                estimator = self.registry.build(algorithm, params)
                estimator.fit(X, y)
            except Exception as exc:  # noqa: BLE001 — a failed final fit returns no estimator
                obs.error_event("autoweka.final_fit", exc)
                estimator = None
        return CASHSolution(
            algorithm=algorithm,
            config=params,
            cv_score=best_score,
            optimizer=f"autoweka-{self.strategy}",
            n_evaluations=result.n_evaluations,
            elapsed=time.monotonic() - start,
            estimator=estimator,
            history=result,
            engine_stats=result.engine_stats,
        )
