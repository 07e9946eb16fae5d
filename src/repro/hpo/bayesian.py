"""Bayesian Optimization (BO) with a GP surrogate and Expected Improvement.

Section II-A: "BO works by fitting a probabilistic surrogate model to all
observations of the target black box function made so far, and then using the
predictive distribution of the probabilistic model, to decide which point to
evaluate next."  The surrogate is :class:`~repro.hpo.gp.GaussianProcess`, the
acquisition function is Expected Improvement maximised over a random candidate
pool (a standard, derivative-free approach well suited to mixed spaces).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.special import ndtr

from .. import obs
from .base import BaseOptimizer, Budget, HPOProblem, OptimizationResult, Trial
from .gp import GaussianProcess

__all__ = ["BayesianOptimization", "expected_improvement"]


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """Expected improvement of candidates over the incumbent ``best`` (maximisation).

    The standard normal CDF and PDF are the expressions ``scipy.stats.norm``
    evaluates (``ndtr`` and ``exp(-z²/2)/√(2π)``), written out so importing
    the package never pulls in ``scipy.stats``.
    """
    std = np.clip(std, 1e-12, None)
    improvement = mean - best - xi
    z = improvement / std
    pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
    return improvement * ndtr(z) + std * pdf


class BayesianOptimization(BaseOptimizer):
    """GP-EI Bayesian optimization over a :class:`~repro.hpo.space.ConfigSpace`.

    Parameters
    ----------
    n_initial:
        Number of random configurations evaluated before the surrogate is used.
    n_candidates:
        Size of the random candidate pool scored by the acquisition function at
        each iteration.
    xi:
        Exploration bonus in the EI acquisition.
    max_model_size:
        The GP is cubic in the number of observations; older observations are
        subsampled beyond this size to bound per-iteration analysis time.
    """

    name = "bayesian-optimization"

    def __init__(
        self,
        n_initial: int = 8,
        n_candidates: int = 256,
        xi: float = 0.01,
        kernel: str = "matern52",
        max_model_size: int = 200,
        random_state: int | None = None,
        warm_start: int = 0,
    ) -> None:
        super().__init__(random_state=random_state, warm_start=warm_start)
        if n_initial < 2:
            raise ValueError("n_initial must be >= 2")
        if n_candidates < 8:
            raise ValueError("n_candidates must be >= 8")
        self.n_initial = n_initial
        self.n_candidates = n_candidates
        self.xi = xi
        self.kernel = kernel
        self.max_model_size = max_model_size

    def _suggest(
        self,
        problem: HPOProblem,
        observed_X: list[np.ndarray],
        observed_y: list[float],
        rng: np.random.Generator,
    ) -> dict[str, Any]:
        space = problem.space
        finite = [(x, y) for x, y in zip(observed_X, observed_y) if np.isfinite(y)]
        if len(finite) < 2:
            return space.sample(rng)
        if len(finite) > self.max_model_size:
            keep = rng.choice(len(finite), size=self.max_model_size, replace=False)
            finite = [finite[i] for i in keep]
        X = np.vstack([x for x, _ in finite])
        y = np.array([y for _, y in finite])
        try:
            surrogate = GaussianProcess(kernel=self.kernel).fit(X, y)
        except Exception as exc:  # noqa: BLE001 — fall back to random sampling
            obs.error_event("bayesian.surrogate_fit", exc)
            return space.sample(rng)
        candidates = [space.sample(rng) for _ in range(self.n_candidates)]
        # Local perturbations of the incumbent sharpen exploitation.
        incumbent = space.from_vector(X[int(np.argmax(y))])
        candidates += [
            space.mutate(incumbent, rng, mutation_rate=0.3, scale=0.1) for _ in range(16)
        ]
        candidate_matrix = np.vstack([space.to_vector(c) for c in candidates])
        mean, std = surrogate.predict(candidate_matrix)
        acquisition = expected_improvement(mean, std, best=float(np.max(y)), xi=self.xi)
        return candidates[int(np.argmax(acquisition))]

    def _optimize(self, problem: HPOProblem, budget: Budget) -> OptimizationResult:
        rng = np.random.default_rng(self.random_state)
        space = problem.space
        trials: list[Trial] = []
        observed_X: list[np.ndarray] = []
        observed_y: list[float] = []

        # The initial design is model-free, so it is one engine batch and
        # runs in parallel when the engine has workers.  Prior-run bests are
        # folded in ahead of random samples: the surrogate then conditions on
        # the previous run's frontier from its very first proposal.
        initial = [space.default_configuration()]
        initial += self._warm_start_configs(problem)
        initial += [
            space.sample(rng) for _ in range(self.n_initial - len(initial))
        ]
        scores = self._evaluate_many(problem, initial, budget, trials, iteration=0)
        for config, score in zip(initial, scores):
            if score is None:
                break
            observed_X.append(space.to_vector(config))
            observed_y.append(score)
        # The surrogate-guided phase is inherently sequential: each proposal
        # conditions on every observation made so far.
        iteration = 0
        while not budget.exhausted():
            iteration += 1
            config = self._suggest(problem, observed_X, observed_y, rng)
            score = self._evaluate(problem, config, budget, trials, iteration)
            observed_X.append(space.to_vector(config))
            observed_y.append(score)
        if not trials:
            self._evaluate(problem, space.default_configuration(), budget, trials, 0)
        return self._finalize(trials, budget, problem, self.name)
