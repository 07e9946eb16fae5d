"""Decision-model architecture search (Algorithm 3) and the SNA model.

Algorithm 3 searches the ten MLP hyperparameters of Table II with a GA.  The
training data are ``(KFs(I_i), OneHot'(OA_{I_i}))`` pairs, the model is an MLP
*regressor*, and the quality of an architecture is its k-fold cross-validation
mean squared error (the GA stops as soon as an architecture reaches the
``Precision`` threshold, -0.0015 in the paper — scores are negated MSE so the
problem stays a maximisation).

``OneHot'`` (footnote 1 of the paper) is a one-hot encoding of the winning
algorithm where the positions of algorithms that *cannot handle* the instance
are set to -1; at prediction time the algorithm with the largest regressed
output is selected, so inapplicable algorithms are actively pushed away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.profiler import profiled
from ..datasets.dataset import Dataset
from ..execution.folds import FoldPlan
from ..hpo.base import Budget, HPOProblem
from ..hpo.genetic import GeneticAlgorithm
from ..hpo.space import CategoricalParam, ConfigSpace, Condition, FloatParam, IntParam
from ..learners.neural import MLPRegressor
from ..metafeatures.extractor import FeatureExtractor
from .concepts import KnowledgeBase

__all__ = [
    "mlp_architecture_space",
    "one_hot_prime",
    "ArchitectureSearchResult",
    "ArchitectureSearch",
    "DecisionModel",
]


def mlp_architecture_space(max_hidden_layers: int = 20, max_layer_size: int = 100) -> ConfigSpace:
    """The Table II search space (ten hyperparameters, with SGD-only conditionals)."""
    space = ConfigSpace(
        [
            IntParam("hidden_layer", 1, max_hidden_layers),
            IntParam("hidden_layer_size", 5, max_layer_size),
            CategoricalParam("activation", ["relu", "tanh", "logistic", "identity"]),
            CategoricalParam("solver", ["lbfgs", "sgd", "adam"]),
            CategoricalParam("learning_rate", ["constant", "invscaling", "adaptive"]),
            IntParam("max_iter", 100, 500),
            FloatParam("momentum", 0.01, 0.99),
            FloatParam("validation_fraction", 0.01, 0.99),
            FloatParam("beta_1", 0.01, 0.99),
            FloatParam("beta_2", 0.01, 0.99),
        ]
    )
    # Table II: learning_rate and momentum are only used when solver is 'sgd';
    # beta_1/beta_2 are the Adam decay rates.
    space.add_condition("learning_rate", Condition("solver", ("sgd",)))
    space.add_condition("momentum", Condition("solver", ("sgd",)))
    space.add_condition("beta_1", Condition("solver", ("adam",)))
    space.add_condition("beta_2", Condition("solver", ("adam",)))
    return space


def one_hot_prime(
    algorithm: str,
    labels: list[str],
    dataset: Dataset | None = None,
    applicability: Callable[[str, Dataset], bool] | None = None,
) -> np.ndarray:
    """The paper's ``OneHot'`` target encoding.

    The winning algorithm's position is 1, all others 0, except that positions
    of algorithms deemed unable to process the instance are set to -1.
    """
    if algorithm not in labels:
        raise ValueError(f"algorithm {algorithm!r} not in label vocabulary")
    target = np.zeros(len(labels), dtype=np.float64)
    target[labels.index(algorithm)] = 1.0
    if applicability is not None and dataset is not None:
        for position, name in enumerate(labels):
            if name != algorithm and not applicability(name, dataset):
                target[position] = -1.0
    return target


def _neg_mse(Y: np.ndarray, predictions: np.ndarray) -> float:
    """Negated mean squared error of one fold's predictions (the GA maximises)."""
    predictions = np.asarray(predictions).reshape(len(Y), -1)
    return -float(np.mean((predictions - Y) ** 2))


@dataclass
class ArchitectureSearchResult:
    """Outcome of Algorithm 3: the chosen architecture and search diagnostics."""

    config: dict
    mse: float
    n_evaluations: int
    reached_precision: bool


class ArchitectureSearch:
    """GA search over the Table II space, scored by CV mean squared error."""

    def __init__(
        self,
        precision: float = -0.0015,
        population_size: int = 50,
        n_generations: int = 20,
        max_evaluations: int | None = 120,
        cv: int = 3,
        max_hidden_layers: int = 20,
        max_layer_size: int = 100,
        max_iter_cap: int | None = 200,
        random_state: int | None = 0,
        applicability: Callable[[str, Dataset], bool] | None = None,
    ) -> None:
        self.precision = precision
        self.population_size = population_size
        self.n_generations = n_generations
        self.max_evaluations = max_evaluations
        self.cv = cv
        self.space = mlp_architecture_space(max_hidden_layers, max_layer_size)
        self.max_iter_cap = max_iter_cap
        self.random_state = random_state
        self.applicability = applicability

    # -- data preparation ---------------------------------------------------------------
    def _targets(self, knowledge: KnowledgeBase, labels: list[str]) -> np.ndarray:
        return np.vstack(
            [
                one_hot_prime(algorithm, labels, dataset, self.applicability)
                for dataset, algorithm in knowledge
            ]
        )

    def _build_regressor(self, config: dict) -> MLPRegressor:
        max_iter = int(config["max_iter"])
        if self.max_iter_cap is not None:
            max_iter = min(max_iter, self.max_iter_cap)
        return MLPRegressor(
            hidden_layer=int(config["hidden_layer"]),
            hidden_layer_size=int(config["hidden_layer_size"]),
            activation=config["activation"],
            solver=config["solver"],
            learning_rate=config["learning_rate"],
            max_iter=max_iter,
            momentum=float(config["momentum"]),
            validation_fraction=float(config["validation_fraction"]),
            beta_1=float(config["beta_1"]),
            beta_2=float(config["beta_2"]),
            random_state=self.random_state,
        )

    # -- Algorithm 3 ------------------------------------------------------------------------
    def search(
        self, knowledge: KnowledgeBase, extractor: FeatureExtractor
    ) -> ArchitectureSearchResult:
        """Search for a suitable architecture on ``(KFs(I), OneHot'(OA_I))`` data."""
        if len(knowledge) < 4:
            raise ValueError("architecture search needs at least 4 knowledge pairs")
        labels = knowledge.algorithm_labels
        X = extractor.transform_many(knowledge.datasets)
        Y = self._targets(knowledge, labels)
        plan = FoldPlan.kfold(Y, cv=self.cv, random_state=self.random_state)

        def objective(config: dict) -> float:
            # A failed fold scores -inf, so a failing architecture ranks last.
            return plan.score(self._build_regressor(config), X, Y, _neg_mse, float("-inf"))

        problem = HPOProblem(self.space, objective, name="architecture-search")
        optimizer = GeneticAlgorithm(
            population_size=self.population_size,
            n_generations=self.n_generations,
            target_score=self.precision,
            random_state=self.random_state,
        )
        budget = Budget(max_evaluations=self.max_evaluations)
        result = optimizer.optimize(problem, budget)
        best_config = result.best_config
        best_score = result.best_score if np.isfinite(result.best_score) else float("-inf")
        return ArchitectureSearchResult(
            config=best_config,
            mse=float(-best_score) if np.isfinite(best_score) else float("inf"),
            n_evaluations=result.n_evaluations,
            reached_precision=bool(best_score >= self.precision),
        )

    # -- final model ---------------------------------------------------------------------------
    def train_decision_model(
        self,
        knowledge: KnowledgeBase,
        extractor: FeatureExtractor,
        config: dict,
    ) -> "DecisionModel":
        """Train the final SNA regressor on all knowledge pairs (Algorithm 4, line 5)."""
        labels = knowledge.algorithm_labels
        X = extractor.transform_many(knowledge.datasets)
        Y = self._targets(knowledge, labels)
        model = self._build_regressor(config)
        model.fit(X, Y)
        return DecisionModel(
            regressor=model,
            labels=labels,
            extractor=extractor,
            architecture=dict(config),
        )


@dataclass
class DecisionModel:
    """The trained decision-making model ``SNA``.

    Maps a task instance to the predicted best algorithm by regressing the
    OneHot' target and taking the argmax over the label vocabulary.
    """

    regressor: MLPRegressor
    labels: list[str]
    extractor: FeatureExtractor
    architecture: dict

    def scores(self, dataset: Dataset) -> dict[str, float]:
        """Per-algorithm regression scores for a dataset."""
        return self.scores_many([dataset])[0]

    def scores_matrix(self, datasets: list[Dataset]) -> np.ndarray:
        """``(n_datasets, n_labels)`` regression scores in one forward pass.

        This is the micro-batched inference path of the serving subsystem: N
        queued requests become one feature matrix and one regressor forward
        pass instead of N scalar calls.
        """
        if not datasets:
            return np.zeros((0, len(self.labels)), dtype=np.float64)
        with profiled("scores_matrix"):
            matrix = self.extractor.transform_many(datasets)
            return np.asarray(self.regressor.predict(matrix)).reshape(len(datasets), -1)

    def scores_many(self, datasets: list[Dataset]) -> list[dict[str, float]]:
        """Per-algorithm score dicts for a batch of datasets (one forward pass)."""
        output = self.scores_matrix(datasets)
        return [
            {label: float(score) for label, score in zip(self.labels, row)}
            for row in output
        ]

    def select(self, dataset: Dataset) -> str:
        """``SNA(KFs(I))``: the recommended algorithm for a task instance."""
        scores = self.scores(dataset)
        return max(scores, key=scores.get)

    def select_many(self, datasets: list[Dataset]) -> list[str]:
        """Batched :meth:`select` (one forward pass for the whole batch)."""
        return [max(scores, key=scores.get) for scores in self.scores_many(datasets)]

    def rank(self, dataset: Dataset) -> list[str]:
        """All algorithms ordered from most to least recommended."""
        scores = self.scores(dataset)
        return sorted(scores, key=scores.get, reverse=True)

    def rank_many(self, datasets: list[Dataset]) -> list[list[str]]:
        """Batched :meth:`rank` (one forward pass for the whole batch)."""
        return [
            sorted(scores, key=scores.get, reverse=True)
            for scores in self.scores_many(datasets)
        ]

    @property
    def key_features(self) -> list[str]:
        return list(self.extractor.feature_names)
