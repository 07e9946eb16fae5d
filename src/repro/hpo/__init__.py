"""Hyperparameter-optimization substrate (Section II of the paper).

Provides the configuration-space abstraction plus the four HPO techniques the
paper discusses — Grid Search, Random Search, the Genetic Algorithm and
GP-based Bayesian Optimization — together with the GA-vs-BO selection rule
used by Auto-Model's UDR stage.
"""

from .base import BaseOptimizer, Budget, HPOProblem, OptimizationResult, Trial
from .bayesian import BayesianOptimization, expected_improvement
from .genetic import GeneticAlgorithm
from .gp import GaussianProcess
from .grid_search import GridSearch
from .random_search import RandomSearch
from .selector import HPOTechniqueSelector, choose_hpo_technique
from .space import (
    BoolParam,
    CategoricalParam,
    Condition,
    ConfigSpace,
    FloatParam,
    Hyperparameter,
    IntParam,
)

__all__ = [
    "BaseOptimizer",
    "Budget",
    "HPOProblem",
    "OptimizationResult",
    "Trial",
    "BayesianOptimization",
    "expected_improvement",
    "GeneticAlgorithm",
    "GaussianProcess",
    "GridSearch",
    "RandomSearch",
    "HPOTechniqueSelector",
    "choose_hpo_technique",
    "BoolParam",
    "CategoricalParam",
    "Condition",
    "ConfigSpace",
    "FloatParam",
    "Hyperparameter",
    "IntParam",
]
