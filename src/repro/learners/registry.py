"""The classifier catalogue ("CAList") and its hyperparameter spaces.

This is the reproduction's stand-in for Table IV: the set of classification
algorithms the CASH techniques choose between.  Every entry declares

* a factory that builds the estimator from a configuration dict, and
* a :class:`~repro.hpo.space.ConfigSpace` describing its tunable
  hyperparameters,

which is exactly the information both Auto-Model's UDR step (tune one selected
algorithm) and the Auto-WEKA baseline (tune the joint algorithm+hyperparameter
space) need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..hpo.space import CategoricalParam, ConfigSpace, Condition, FloatParam, IntParam
from .base import BaseClassifier
from .bayes import AODE, HNB, BayesNet, NaiveBayes, NaiveBayesMultinomial
from .ensemble import (
    AdaBoostM1,
    Bagging,
    LogitBoost,
    MultiBoostAB,
    RandomCommittee,
    RandomSubSpace,
    RotationForest,
    StackingC,
    VotingEnsemble,
)
from .forest import ExtraTrees, RandomForest
from .lazy import IB1, IBk, KStar, LWL
from .linear import LDA, LogisticRegression, SimpleLogistic
from .misc import ClassificationViaClustering, ClassificationViaRegression, HyperPipes, VFI
from .neural import MLPClassifier, MultilayerPerceptron, RBFNetwork
from .rules import JRip, OneR, PART, Ridor, ZeroR
from .svm import SMO, LibSVMClassifier
from .tree import BFTree, DecisionStump, J48, REPTree, RandomTree, SimpleCart

__all__ = ["AlgorithmSpec", "AlgorithmRegistry", "default_registry", "CAList"]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One catalogue entry: name, Weka-style group, factory and search space."""

    name: str
    group: str
    factory: Callable[..., BaseClassifier]
    space: ConfigSpace
    # Relative cost class used by tests/benchmarks to pick cheap subsets.
    cost: str = "cheap"

    def build(self, config: dict[str, Any] | None = None) -> BaseClassifier:
        """Instantiate the estimator from a (possibly partial) configuration."""
        config = dict(config or {})
        unknown = [k for k in config if k not in self.space.names]
        if unknown:
            raise ValueError(f"{self.name}: unknown hyperparameters {unknown}")
        estimator = self.factory(**config)
        if getattr(estimator, "random_state", 0) is None:
            # An unseeded stochastic learner draws fresh OS entropy on every
            # fit, so identical configurations score differently across
            # engines, workers and warm restarts — breaking the evaluation
            # layer's replay-equivalence contract.  Catalogue builds pin a
            # fixed seed; an explicit integer seed is never overridden.
            estimator.random_state = 0
        return estimator

    def default_config(self) -> dict[str, Any]:
        return self.space.default_configuration()


def _space(*params, conditions: dict[str, Condition] | None = None) -> ConfigSpace:
    space = ConfigSpace(list(params))
    for name, condition in (conditions or {}).items():
        space.add_condition(name, condition)
    return space


def _build_specs() -> list[AlgorithmSpec]:
    specs: list[AlgorithmSpec] = []

    # -- trees ---------------------------------------------------------------------
    specs.append(
        AlgorithmSpec("J48", "trees", J48, _space(
            IntParam("max_depth", 2, 25),
            IntParam("min_samples_leaf", 1, 10),
            IntParam("min_samples_split", 2, 20),
            FloatParam("min_impurity_decrease", 0.0, 0.05),
        ))
    )
    specs.append(
        AlgorithmSpec("SimpleCart", "trees", SimpleCart, _space(
            IntParam("max_depth", 2, 25),
            IntParam("min_samples_leaf", 1, 10),
            IntParam("min_samples_split", 2, 20),
            FloatParam("min_impurity_decrease", 0.0, 0.05),
        ))
    )
    specs.append(
        AlgorithmSpec("REPTree", "trees", REPTree, _space(
            IntParam("max_depth", 2, 15),
            IntParam("min_samples_leaf", 2, 12),
            IntParam("min_samples_split", 4, 24),
        ))
    )
    specs.append(
        AlgorithmSpec("RandomTree", "trees", RandomTree, _space(
            IntParam("max_depth", 2, 25),
            IntParam("min_samples_leaf", 1, 8),
            CategoricalParam("max_features", ["sqrt", "log2", None]),
        ))
    )
    specs.append(
        AlgorithmSpec("BFTree", "trees", BFTree, _space(
            IntParam("max_nodes", 4, 64),
            IntParam("min_samples_leaf", 1, 10),
        ))
    )
    specs.append(
        AlgorithmSpec("DecisionStump", "trees", DecisionStump, _space(
            CategoricalParam("criterion", ["gini", "entropy"]),
        ))
    )

    # -- forests / meta ensembles -----------------------------------------------------
    specs.append(
        AlgorithmSpec("RandomForest", "meta", RandomForest, _space(
            IntParam("n_estimators", 10, 80),
            CategoricalParam("max_features", ["sqrt", "log2"]),
            IntParam("max_depth", 3, 25),
            IntParam("min_samples_leaf", 1, 6),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("ExtraTrees", "meta", ExtraTrees, _space(
            IntParam("n_estimators", 10, 80),
            CategoricalParam("max_features", ["sqrt", "log2"]),
            IntParam("max_depth", 3, 25),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("Bagging", "meta", Bagging, _space(
            IntParam("n_estimators", 5, 30),
            FloatParam("max_samples", 0.5, 1.0),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("AdaBoostM1", "meta", AdaBoostM1, _space(
            IntParam("n_estimators", 10, 60),
            FloatParam("learning_rate", 0.1, 2.0),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("MultiBoostAB", "meta", MultiBoostAB, _space(
            IntParam("n_estimators", 10, 60),
            IntParam("n_committees", 2, 6),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("LogitBoost", "meta", LogitBoost, _space(
            IntParam("n_estimators", 10, 60),
            FloatParam("learning_rate", 0.05, 1.0),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("RandomSubSpace", "meta", RandomSubSpace, _space(
            IntParam("n_estimators", 5, 30),
            FloatParam("subspace_fraction", 0.3, 1.0),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("RandomCommittee", "meta", RandomCommittee, _space(
            IntParam("n_estimators", 5, 30),
            IntParam("max_depth", 3, 25),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("RotationForest", "meta", RotationForest, _space(
            IntParam("n_estimators", 4, 20),
            IntParam("n_groups", 2, 5),
        ), cost="expensive")
    )
    specs.append(
        AlgorithmSpec("StackingC", "meta", StackingC, _space(
            IntParam("cv", 2, 5),
        ), cost="expensive")
    )
    specs.append(
        AlgorithmSpec("VotingEnsemble", "meta", VotingEnsemble, _space(
            CategoricalParam("estimators", [None]),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec(
            "ClassificationViaRegression", "meta", ClassificationViaRegression, _space(
                FloatParam("alpha", 0.01, 10.0, log=True),
            )
        )
    )
    specs.append(
        AlgorithmSpec(
            "ClassificationViaClustering", "meta", ClassificationViaClustering, _space(
                IntParam("n_clusters", 2, 16),
            )
        )
    )

    # -- bayes ----------------------------------------------------------------------
    specs.append(
        AlgorithmSpec("NaiveBayes", "bayes", NaiveBayes, _space(
            FloatParam("var_smoothing", 1e-10, 1e-4, log=True),
        ))
    )
    specs.append(
        AlgorithmSpec("NaiveBayesMultinomial", "bayes", NaiveBayesMultinomial, _space(
            FloatParam("alpha", 0.01, 10.0, log=True),
        ))
    )
    specs.append(
        AlgorithmSpec("BayesNet", "bayes", BayesNet, _space(
            IntParam("n_bins", 3, 10),
            FloatParam("alpha", 0.1, 5.0),
        ))
    )
    specs.append(
        AlgorithmSpec("AODE", "bayes", AODE, _space(
            IntParam("n_bins", 3, 8),
            FloatParam("alpha", 0.1, 5.0),
            IntParam("max_parents", 2, 10),
        ), cost="moderate")
    )
    specs.append(
        AlgorithmSpec("HNB", "bayes", HNB, _space(
            IntParam("n_bins", 4, 10),
            FloatParam("alpha", 0.1, 5.0),
            IntParam("max_parents", 2, 12),
        ), cost="moderate")
    )

    # -- lazy -----------------------------------------------------------------------
    specs.append(
        AlgorithmSpec("IBk", "lazy", IBk, _space(
            IntParam("n_neighbors", 1, 30),
            CategoricalParam("weighting", ["uniform", "distance"]),
            CategoricalParam("p", [1, 2]),
        ))
    )
    specs.append(AlgorithmSpec("IB1", "lazy", IB1, _space(CategoricalParam("_dummy", [0]))))
    specs.append(
        AlgorithmSpec("KStar", "lazy", KStar, _space(
            FloatParam("blend", 0.05, 1.0),
        ))
    )
    specs.append(
        AlgorithmSpec("LWL", "lazy", LWL, _space(
            IntParam("n_neighbors", 5, 60),
        ))
    )

    # -- functions --------------------------------------------------------------------
    specs.append(
        AlgorithmSpec("Logistic", "functions", LogisticRegression, _space(
            FloatParam("C", 0.01, 100.0, log=True),
            IntParam("max_iter", 50, 400),
        ))
    )
    specs.append(
        AlgorithmSpec("SimpleLogistic", "functions", SimpleLogistic, _space(
            FloatParam("C", 0.001, 1.0, log=True),
            IntParam("max_iter", 20, 150),
        ))
    )
    specs.append(
        AlgorithmSpec("LDA", "functions", LDA, _space(
            FloatParam("shrinkage", 0.0, 0.9),
        ))
    )
    specs.append(
        AlgorithmSpec("SMO", "functions", SMO, _space(
            FloatParam("C", 0.01, 100.0, log=True),
            IntParam("max_passes", 1, 5),
        ), cost="expensive")
    )
    specs.append(
        AlgorithmSpec("LibSVM", "functions", LibSVMClassifier, _space(
            FloatParam("C", 0.01, 100.0, log=True),
            FloatParam("gamma", 0.001, 10.0, log=True),
            IntParam("max_passes", 1, 5),
        ), cost="expensive")
    )
    specs.append(
        AlgorithmSpec("MultilayerPerceptron", "functions", MultilayerPerceptron, _space(
            IntParam("hidden_layer_size", 4, 64),
            FloatParam("learning_rate_init", 0.001, 0.5, log=True),
            IntParam("max_iter", 50, 300),
            FloatParam("momentum", 0.1, 0.95),
        ), cost="expensive")
    )
    specs.append(
        AlgorithmSpec("MLP", "functions", MLPClassifier, _space(
            IntParam("hidden_layer", 1, 3),
            IntParam("hidden_layer_size", 5, 100),
            CategoricalParam("activation", ["relu", "tanh", "logistic"]),
            CategoricalParam("solver", ["adam", "sgd"]),
            FloatParam("learning_rate_init", 0.001, 0.3, log=True),
            IntParam("max_iter", 50, 300),
            FloatParam("momentum", 0.1, 0.95),
        ), cost="expensive", )
    )
    specs.append(
        AlgorithmSpec("RBFNetwork", "functions", RBFNetwork, _space(
            IntParam("n_centers", 3, 40),
            IntParam("max_iter", 50, 250),
        ), cost="moderate")
    )

    # -- rules ----------------------------------------------------------------------
    specs.append(AlgorithmSpec("ZeroR", "rules", ZeroR, _space(CategoricalParam("_dummy", [0]))))
    specs.append(
        AlgorithmSpec("OneR", "rules", OneR, _space(
            IntParam("n_bins", 2, 12),
        ))
    )
    specs.append(AlgorithmSpec("JRip", "rules", JRip, _space(CategoricalParam("random_state", [None]))))
    specs.append(AlgorithmSpec("PART", "rules", PART, _space(CategoricalParam("random_state", [None]))))
    specs.append(AlgorithmSpec("Ridor", "rules", Ridor, _space(CategoricalParam("random_state", [None]))))

    # -- misc -----------------------------------------------------------------------
    specs.append(AlgorithmSpec("HyperPipes", "misc", HyperPipes, _space(CategoricalParam("_dummy", [0]))))
    specs.append(
        AlgorithmSpec("VFI", "misc", VFI, _space(
            IntParam("n_bins", 4, 20),
        ))
    )
    return specs


class _DummyStripper:
    """Strip the placeholder '_dummy' hyperparameter used by parameter-free learners."""

    def __init__(self, factory: Callable[..., BaseClassifier]) -> None:
        self.factory = factory

    def __call__(self, **config: Any) -> BaseClassifier:
        config.pop("_dummy", None)
        return self.factory(**config)


class AlgorithmRegistry:
    """Named lookup over the algorithm catalogue."""

    def __init__(self, specs: list[AlgorithmSpec] | None = None) -> None:
        raw = specs if specs is not None else _build_specs()
        self._specs: dict[str, AlgorithmSpec] = {}
        for spec in raw:
            if "_dummy" in spec.space.names:
                spec = AlgorithmSpec(
                    name=spec.name,
                    group=spec.group,
                    factory=_DummyStripper(spec.factory),
                    space=spec.space,
                    cost=spec.cost,
                )
            if spec.name in self._specs:
                raise ValueError(f"duplicate algorithm name {spec.name!r}")
            self._specs[spec.name] = spec

    # -- lookup ---------------------------------------------------------------------
    @property
    def names(self) -> list[str]:
        return list(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def get(self, name: str) -> AlgorithmSpec:
        if name not in self._specs:
            raise KeyError(f"unknown algorithm {name!r}; known: {sorted(self._specs)}")
        return self._specs[name]

    def build(self, name: str, config: dict[str, Any] | None = None) -> BaseClassifier:
        return self.get(name).build(config)

    def space(self, name: str) -> ConfigSpace:
        return self.get(name).space

    def subset(self, names: list[str]) -> "AlgorithmRegistry":
        """Return a registry restricted to ``names`` (order preserved)."""
        return AlgorithmRegistry([self.get(name) for name in names])

    def by_cost(self, *costs: str) -> "AlgorithmRegistry":
        """Return a registry restricted to the given cost classes."""
        return AlgorithmRegistry([s for s in self._specs.values() if s.cost in costs])

    def groups(self) -> dict[str, list[str]]:
        """Map Weka-style group -> list of algorithm names."""
        out: dict[str, list[str]] = {}
        for spec in self._specs.values():
            out.setdefault(spec.group, []).append(spec.name)
        return out


_DEFAULT: AlgorithmRegistry | None = None


def default_registry() -> AlgorithmRegistry:
    """Return the shared default catalogue (built lazily once)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = AlgorithmRegistry()
    return _DEFAULT


def CAList() -> list[str]:
    """Names of every algorithm in the default catalogue (paper's ``CAList``)."""
    return default_registry().names
