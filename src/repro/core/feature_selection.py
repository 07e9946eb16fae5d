"""Instance-feature selection (Algorithm 2).

The problem of choosing which of the 23 Table III features should represent a
task instance is cast as an HPO problem: every feature becomes a boolean
hyperparameter ("include this feature or not"), the model is an MLP classifier
with a default architecture, and the score of a feature subset is the k-fold
cross-validation accuracy of that MLP on the knowledge dataset
``{(F_sub(I_i), OA_{I_i})}``.  The paper solves this HPO problem with a GA
(group size 50, 100 epochs); the sizes are parameters here so tests can run
with smaller budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..execution.folds import FoldPlan
from ..hpo.base import Budget, HPOProblem
from ..hpo.genetic import GeneticAlgorithm
from ..hpo.space import BoolParam, ConfigSpace
from ..learners.neural import MLPClassifier
from ..metafeatures.extractor import FeatureExtractor
from .concepts import KnowledgeBase

__all__ = ["FeatureSelectionResult", "FeatureSelector"]


@dataclass
class FeatureSelectionResult:
    """Outcome of Algorithm 2: the key features and the search diagnostics."""

    selected: list[str]
    score: float
    all_features_score: float
    n_evaluations: int

    @property
    def n_selected(self) -> int:
        return len(self.selected)


class FeatureSelector:
    """GA-driven selection of the key instance features (``KFs``)."""

    def __init__(
        self,
        candidate_features: list[str] | None = None,
        population_size: int = 50,
        n_generations: int = 100,
        max_evaluations: int | None = 300,
        cv: int = 3,
        mlp_max_iter: int = 60,
        random_state: int | None = 0,
    ) -> None:
        self.extractor = FeatureExtractor(candidate_features)
        self.population_size = population_size
        self.n_generations = n_generations
        self.max_evaluations = max_evaluations
        self.cv = cv
        self.mlp_max_iter = mlp_max_iter
        self.random_state = random_state

    # -- objective --------------------------------------------------------------------
    def _subset_score(
        self, mask: list[bool], features: np.ndarray, labels: np.ndarray, plan: FoldPlan
    ) -> float:
        """CV accuracy of the default MLP on the selected feature columns."""
        columns = np.flatnonzero(mask)
        if columns.size == 0:
            return 0.0
        model = MLPClassifier(
            hidden_layer=1,
            hidden_layer_size=32,
            max_iter=self.mlp_max_iter,
            random_state=self.random_state,
        )
        return plan.score(model, features[:, columns], labels)

    # -- Algorithm 2 -------------------------------------------------------------------
    def select(self, knowledge: KnowledgeBase) -> FeatureSelectionResult:
        """Run Algorithm 2 over a knowledge base and return the key features."""
        if len(knowledge) < 4:
            raise ValueError(
                f"knowledge base has only {len(knowledge)} pairs; "
                "feature selection needs at least 4"
            )
        self.extractor.fit(knowledge.datasets)
        features = self.extractor.transform_many(knowledge.datasets)
        labels = knowledge.label_indices()
        names = self.extractor.feature_names
        # Every subset is scored on the same folds: they depend on the labels only.
        plan = FoldPlan.stratified(labels, cv=self.cv, random_state=self.random_state)

        space = ConfigSpace([BoolParam(name) for name in names])

        def objective(config: dict) -> float:
            mask = [bool(config[name]) for name in names]
            return self._subset_score(mask, features, labels, plan)

        problem = HPOProblem(space, objective, name="feature-selection")
        optimizer = GeneticAlgorithm(
            population_size=self.population_size,
            n_generations=self.n_generations,
            random_state=self.random_state,
        )
        budget = Budget(max_evaluations=self.max_evaluations)
        result = optimizer.optimize(problem, budget)

        selected = [name for name in names if result.best_config.get(name)]
        if not selected:
            # Degenerate search outcome: fall back to all candidate features.
            selected = list(names)
        all_features_score = self._subset_score([True] * len(names), features, labels, plan)
        return FeatureSelectionResult(
            selected=selected,
            score=float(result.best_score),
            all_features_score=float(all_features_score),
            n_evaluations=result.n_evaluations,
        )
