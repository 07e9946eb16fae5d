"""Shared machinery for HPO optimizers: problems, trials, budgets, results.

Section II-B of the paper defines an HPO problem ``P = (D, A, PN)`` whose goal
is ``argmax f(λ, A, D)``.  Here the problem is abstracted one step further:
an :class:`HPOProblem` wraps *any* objective ``f(config) -> float`` to be
maximised over a :class:`~repro.hpo.space.ConfigSpace`, because the paper
reuses the same machinery for feature selection (Algorithm 2), architecture
search (Algorithm 3) and hyperparameter tuning (Algorithm 5).

Every evaluation is executed by a
:class:`~repro.execution.engine.EvaluationEngine` (one is created implicitly
when a plain objective is given), which provides memoization, batch/parallel
evaluation and centralized budget + crash accounting.  Optimizers implement
``_optimize``; the public :meth:`BaseOptimizer.optimize` entry always starts
the budget clock, so elapsed times never include setup work done before the
search began.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .. import obs
from ..execution.budget import Budget
from ..execution.cache import config_fingerprint
from ..execution.engine import EvaluationEngine
from .space import ConfigSpace

__all__ = ["Trial", "HPOProblem", "OptimizationResult", "Budget", "BaseOptimizer"]


@dataclass
class Trial:
    """One evaluated configuration."""

    config: dict[str, Any]
    score: float
    elapsed: float = 0.0
    iteration: int = 0
    cached: bool = False


class HPOProblem:
    """A black-box maximisation problem over a configuration space.

    Either a plain ``objective`` callable or a pre-built ``engine`` may be
    given; with a plain objective the problem constructs a serial, cached
    :class:`EvaluationEngine` around it.  Passing an engine lets callers share
    one cache/fold-plan/worker pool across probes, seeding and optimization
    (the UDR and the baselines do exactly that).
    """

    def __init__(
        self,
        space: ConfigSpace,
        objective: Callable[[dict[str, Any]], float] | None = None,
        name: str = "hpo-problem",
        engine: EvaluationEngine | None = None,
    ) -> None:
        if len(space) == 0:
            raise ValueError("configuration space is empty")
        if engine is None:
            if objective is None:
                raise ValueError("either objective or engine must be given")
            engine = EvaluationEngine(objective, name=name)
        self.space = space
        self.engine = engine
        self.name = name

    @property
    def objective(self) -> Callable[[dict[str, Any]], float]:
        return self.engine.objective

    def evaluate(self, config: dict[str, Any]) -> float:
        """Evaluate ``config``; crashes count as the worst possible score."""
        return self.engine.evaluate(config).score

    def evaluate_many(
        self, configs: Sequence[dict[str, Any]], budget: Budget | None = None
    ):
        """Batch-evaluate ``configs`` (see :meth:`EvaluationEngine.evaluate_many`)."""
        return self.engine.evaluate_many(configs, budget=budget)


@dataclass
class OptimizationResult:
    """Outcome of an optimizer run: best configuration plus the full history."""

    best_config: dict[str, Any]
    best_score: float
    trials: list[Trial] = field(default_factory=list)
    elapsed: float = 0.0
    optimizer: str = ""
    engine_stats: dict = field(default_factory=dict)

    @property
    def n_evaluations(self) -> int:
        return len(self.trials)

    def history(self) -> np.ndarray:
        """Running best score after each evaluation (for convergence plots)."""
        best = -np.inf
        out = []
        for trial in self.trials:
            best = max(best, trial.score)
            out.append(best)
        return np.array(out)

    def top_k(self, k: int = 5) -> list[Trial]:
        return sorted(self.trials, key=lambda t: t.score, reverse=True)[:k]


class BaseOptimizer:
    """Interface shared by GridSearch, RandomSearch, GeneticAlgorithm and BO.

    ``warm_start`` asks the optimizer to seed its search with up to that many
    of the best configurations a prior run left in the engine's
    :class:`~repro.execution.store.ResultStore` (0, the default, disables
    seeding and keeps trajectories identical to earlier releases).  Seeded
    configurations are re-evaluated through the engine — on a warm-started
    engine that re-ranking costs only store lookups — before fresh sampling
    begins, so a repeat run starts from the previous run's frontier instead
    of from scratch.
    """

    name = "base"

    def __init__(self, random_state: int | None = None, warm_start: int = 0) -> None:
        if warm_start < 0:
            raise ValueError("warm_start must be >= 0")
        self.random_state = random_state
        self.warm_start = int(warm_start)

    def optimize(self, problem: HPOProblem, budget: Budget) -> OptimizationResult:
        """Run the search; the budget clock always starts here.

        ``Budget.start`` is idempotent, so evaluations already recorded against
        the budget (e.g. the UDR's probe evaluations) keep counting.
        """
        budget.start()
        with obs.span(
            "optimizer.run",
            attrs={"optimizer": self.name, "problem": problem.name},
        ) as span:
            result = self._optimize(problem, budget)
            span.set_attribute("best_score", result.best_score)
            span.set_attribute("n_trials", result.n_evaluations)
            return result

    def _optimize(self, problem: HPOProblem, budget: Budget) -> OptimizationResult:
        raise NotImplementedError

    # -- helpers shared by subclasses ------------------------------------------------
    def _warm_start_configs(self, problem: HPOProblem) -> list[dict[str, Any]]:
        """Valid, deduplicated prior-run bests to seed the search with.

        Keys outside the problem's space are stripped before validation;
        anything that no longer fits the space — the store may predate a space
        change — is silently dropped.
        """
        if not self.warm_start:
            return []
        seeds: list[dict[str, Any]] = []
        seen: set[tuple] = set()
        for config in problem.engine.warm_start_configs(self.warm_start):
            config = {k: v for k, v in config.items() if k in problem.space}
            if not problem.space.validate(config):
                continue
            fingerprint = config_fingerprint(config)
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            seeds.append(config)
        return seeds

    def _evaluate(
        self,
        problem: HPOProblem,
        config: dict[str, Any],
        budget: Budget,
        trials: list[Trial],
        iteration: int,
    ) -> float:
        with obs.span(
            "optimizer.iteration",
            attrs={"optimizer": self.name, "iteration": iteration, "n_configs": 1},
        ):
            outcome = problem.engine.evaluate(config, budget=budget)
        trials.append(
            Trial(
                config=dict(config),
                score=outcome.score,
                elapsed=outcome.elapsed,
                iteration=iteration,
                cached=outcome.cached,
            )
        )
        return outcome.score

    def _evaluate_many(
        self,
        problem: HPOProblem,
        configs: Sequence[dict[str, Any]],
        budget: Budget,
        trials: list[Trial],
        iteration: int | Sequence[int] = 0,
    ) -> list[float | None]:
        """Batch-evaluate ``configs``, appending trials for evaluated ones.

        Returns one score per input configuration; entries skipped because the
        budget ran out mid-batch are ``None`` (always a suffix).  ``iteration``
        may be a single number or a per-config sequence.
        """
        iterations = (
            list(iteration)
            if isinstance(iteration, Sequence)
            else [iteration] * len(configs)
        )
        with obs.span(
            "optimizer.iteration",
            attrs={
                "optimizer": self.name,
                "iteration": iterations[0] if iterations else 0,
                "n_configs": len(configs),
            },
        ):
            outcomes = problem.engine.evaluate_many(configs, budget=budget)
        scores: list[float | None] = []
        for config, outcome, it in zip(configs, outcomes, iterations):
            if outcome is None:
                scores.append(None)
                continue
            trials.append(
                Trial(
                    config=dict(config),
                    score=outcome.score,
                    elapsed=outcome.elapsed,
                    iteration=it,
                    cached=outcome.cached,
                )
            )
            scores.append(outcome.score)
        return scores

    @staticmethod
    def _finalize(
        trials: list[Trial], budget: Budget, problem: HPOProblem, optimizer: str
    ) -> OptimizationResult:
        valid = [t for t in trials if np.isfinite(t.score)]
        if valid:
            best = max(valid, key=lambda t: t.score)
            best_config, best_score = best.config, best.score
        else:
            best_config, best_score = problem.space.default_configuration(), float("-inf")
        return OptimizationResult(
            best_config=best_config,
            best_score=best_score,
            trials=trials,
            elapsed=budget.elapsed,
            optimizer=optimizer,
            engine_stats=problem.engine.stats.as_dict(),
        )
