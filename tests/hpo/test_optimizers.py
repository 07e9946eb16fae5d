"""Tests for the HPO optimizers (GS, RS, GA, BO) on analytic objectives."""

import numpy as np
import pytest

from repro.hpo import (
    BayesianOptimization,
    Budget,
    GeneticAlgorithm,
    GridSearch,
    HPOProblem,
    RandomSearch,
)
from repro.hpo.space import CategoricalParam, ConfigSpace, FloatParam, IntParam


def quadratic_space() -> ConfigSpace:
    return ConfigSpace([FloatParam("x", -5.0, 5.0), FloatParam("y", -5.0, 5.0)])


def quadratic_objective(config: dict) -> float:
    """Maximum 0.0 at (1, -2)."""
    return -((config["x"] - 1.0) ** 2) - (config["y"] + 2.0) ** 2


def mixed_space() -> ConfigSpace:
    return ConfigSpace(
        [
            IntParam("k", 1, 20),
            CategoricalParam("mode", ["good", "bad"]),
            FloatParam("scale", 0.1, 10.0, log=True),
        ]
    )


def mixed_objective(config: dict) -> float:
    bonus = 1.0 if config["mode"] == "good" else 0.0
    return bonus - abs(config["k"] - 7) * 0.05 - abs(np.log10(config["scale"]))


class TestBudget:
    def test_evaluation_budget(self):
        budget = Budget(max_evaluations=3)
        budget.start()
        assert not budget.exhausted()
        for _ in range(3):
            budget.record_evaluation()
        assert budget.exhausted()

    def test_time_budget(self):
        budget = Budget(time_limit=0.0)
        budget.start()
        assert budget.exhausted()

    def test_unlimited_budget(self):
        budget = Budget()
        budget.start()
        for _ in range(10):
            budget.record_evaluation()
        assert not budget.exhausted()


class TestProblem:
    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            HPOProblem(ConfigSpace(), lambda c: 0.0)

    def test_crashing_objective_scores_minus_inf(self):
        problem = HPOProblem(quadratic_space(), lambda c: 1 / 0)
        assert problem.evaluate({"x": 0, "y": 0}) == float("-inf")


class TestRandomSearch:
    def test_respects_evaluation_budget(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        result = RandomSearch(random_state=0).optimize(problem, Budget(max_evaluations=25))
        assert result.n_evaluations <= 26  # default config + budgeted samples
        assert result.best_score <= 0.0

    def test_improves_with_more_budget(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        small = RandomSearch(random_state=0).optimize(problem, Budget(max_evaluations=5))
        large = RandomSearch(random_state=0).optimize(problem, Budget(max_evaluations=200))
        assert large.best_score >= small.best_score

    def test_history_is_monotone(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        result = RandomSearch(random_state=1).optimize(problem, Budget(max_evaluations=30))
        history = result.history()
        assert np.all(np.diff(history) >= -1e-12)


class TestGridSearch:
    def test_covers_categorical_choices(self):
        problem = HPOProblem(mixed_space(), mixed_objective)
        result = GridSearch(resolution=3).optimize(problem, Budget(max_evaluations=200))
        assert result.best_config["mode"] == "good"

    def test_finds_near_optimum_of_quadratic(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        result = GridSearch(resolution=11).optimize(problem, Budget(max_evaluations=500))
        assert result.best_score > -1.0

    def test_budget_cuts_off_grid(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        result = GridSearch(resolution=21).optimize(problem, Budget(max_evaluations=10))
        assert result.n_evaluations <= 10


class TestGeneticAlgorithm:
    def test_finds_good_quadratic_solution(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        optimizer = GeneticAlgorithm(population_size=20, n_generations=10, random_state=0)
        result = optimizer.optimize(problem, Budget(max_evaluations=200))
        assert result.best_score > -0.5
        assert abs(result.best_config["x"] - 1.0) < 1.0

    def test_beats_random_search_on_same_budget(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        budget_size = 120
        ga = GeneticAlgorithm(population_size=15, n_generations=20, random_state=0).optimize(
            HPOProblem(quadratic_space(), quadratic_objective), Budget(max_evaluations=budget_size)
        )
        rs = RandomSearch(random_state=0).optimize(problem, Budget(max_evaluations=budget_size))
        assert ga.best_score >= rs.best_score - 0.05

    def test_target_score_stops_early(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        optimizer = GeneticAlgorithm(
            population_size=10, n_generations=50, target_score=-10.0, random_state=0
        )
        result = optimizer.optimize(problem, Budget(max_evaluations=1000))
        # -10 is easy to reach; the search should stop long before the budget.
        assert result.n_evaluations < 1000

    def test_handles_categorical_space(self):
        problem = HPOProblem(mixed_space(), mixed_objective)
        optimizer = GeneticAlgorithm(population_size=12, n_generations=8, random_state=0)
        result = optimizer.optimize(problem, Budget(max_evaluations=100))
        assert result.best_config["mode"] == "good"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(population_size=1)
        with pytest.raises(ValueError):
            GeneticAlgorithm(mutation_rate=1.5)
        with pytest.raises(ValueError):
            GeneticAlgorithm(n_generations=0)

    def test_all_crashing_objective_returns_default(self):
        problem = HPOProblem(quadratic_space(), lambda c: 1 / 0)
        result = GeneticAlgorithm(population_size=5, n_generations=2, random_state=0).optimize(
            problem, Budget(max_evaluations=10)
        )
        assert result.best_config == quadratic_space().default_configuration()


class TestBayesianOptimization:
    def test_finds_good_quadratic_solution(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        optimizer = BayesianOptimization(n_initial=6, n_candidates=64, random_state=0)
        result = optimizer.optimize(problem, Budget(max_evaluations=40))
        assert result.best_score > -1.0

    def test_beats_random_search_on_small_budget(self):
        budget_size = 30
        bo = BayesianOptimization(n_initial=6, n_candidates=64, random_state=0).optimize(
            HPOProblem(quadratic_space(), quadratic_objective), Budget(max_evaluations=budget_size)
        )
        rs = RandomSearch(random_state=0).optimize(
            HPOProblem(quadratic_space(), quadratic_objective), Budget(max_evaluations=budget_size)
        )
        assert bo.best_score >= rs.best_score - 0.1

    def test_handles_mixed_space(self):
        problem = HPOProblem(mixed_space(), mixed_objective)
        result = BayesianOptimization(n_initial=6, n_candidates=64, random_state=0).optimize(
            problem, Budget(max_evaluations=30)
        )
        assert result.best_config["mode"] == "good"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BayesianOptimization(n_initial=1)
        with pytest.raises(ValueError):
            BayesianOptimization(n_candidates=2)

    def test_survives_partially_crashing_objective(self):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("flaky evaluation")
            return quadratic_objective(config)

        problem = HPOProblem(quadratic_space(), flaky)
        result = BayesianOptimization(n_initial=5, random_state=0).optimize(
            problem, Budget(max_evaluations=25)
        )
        assert np.isfinite(result.best_score)


class TestResultObject:
    def test_top_k_sorted(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        result = RandomSearch(random_state=0).optimize(problem, Budget(max_evaluations=20))
        top = result.top_k(5)
        scores = [t.score for t in top]
        assert scores == sorted(scores, reverse=True)
        assert result.best_score == scores[0]


class TestWarmStartSeeding:
    """All four optimizers accept warm_start=k and evaluate prior bests early."""

    @staticmethod
    def _optimizers():
        return [
            GridSearch(resolution=3, warm_start=2),
            RandomSearch(random_state=0, warm_start=2),
            GeneticAlgorithm(
                population_size=6, n_generations=2, random_state=0, warm_start=2
            ),
            BayesianOptimization(n_initial=4, random_state=0, warm_start=2),
        ]

    @pytest.mark.parametrize(
        "optimizer", _optimizers.__func__(), ids=lambda o: o.name
    )
    def test_seeded_best_is_recovered(self, optimizer, tmp_path):
        from repro.execution import EvaluationEngine, ResultStore
        from repro.execution.cache import config_fingerprint

        store = ResultStore(tmp_path / "s")
        best = {"x": 1.0, "y": -2.0}  # the analytic optimum
        store.put(
            "seeded", config_fingerprint(best), quadratic_objective(best), config=best
        )
        engine = EvaluationEngine(
            quadratic_objective, store=store, warm_start=True, name="seeded"
        )
        problem = HPOProblem(quadratic_space(), engine=engine)
        result = optimizer.optimize(problem, Budget(max_evaluations=30))
        # The stored optimum is re-evaluated (a store replay) and wins.
        assert result.best_score == pytest.approx(0.0)
        assert any(t.config == best for t in result.trials)

    def test_negative_warm_start_rejected(self):
        with pytest.raises(ValueError):
            RandomSearch(warm_start=-1)

    def test_warm_start_is_noop_without_store(self):
        problem = HPOProblem(quadratic_space(), quadratic_objective)
        seeded = RandomSearch(random_state=0, warm_start=5)
        plain = RandomSearch(random_state=0)
        a = seeded.optimize(problem, Budget(max_evaluations=10))
        problem2 = HPOProblem(quadratic_space(), quadratic_objective)
        b = plain.optimize(problem2, Budget(max_evaluations=10))
        assert [t.score for t in a.trials] == [t.score for t in b.trials]
