"""Tests for the Auto-WEKA-style joint CASH baselines."""

import pytest

from repro.baselines import (
    ALGORITHM_KEY,
    AutoWekaBaseline,
    RandomCASH,
    SingleBestBaseline,
    joint_space,
    split_joint_config,
)


class TestJointSpace:
    def test_contains_algorithm_root_and_all_params(self, small_registry):
        space = joint_space(small_registry)
        assert ALGORITHM_KEY in space
        assert set(space[ALGORITHM_KEY].choices) == set(small_registry.names)
        total_params = sum(len(spec.space) for spec in small_registry)
        assert len(space) == total_params + 1

    def test_sampled_config_splits_cleanly(self, small_registry):
        import numpy as np

        space = joint_space(small_registry)
        rng = np.random.default_rng(0)
        for _ in range(20):
            config = space.sample(rng)
            algorithm, params = split_joint_config(config)
            assert algorithm in small_registry.names
            assert small_registry.space(algorithm).validate(params)

    def test_inactive_branches_do_not_affect_selected_algorithm(self, small_registry):
        space = joint_space(small_registry)
        config = space.default_configuration()
        config[ALGORITHM_KEY] = "J48"
        algorithm, params = split_joint_config(config)
        assert algorithm == "J48"
        assert set(params) == set(small_registry.space("J48").names)


class TestAutoWekaBaseline:
    def test_invalid_strategy_rejected(self, small_registry):
        with pytest.raises(ValueError):
            AutoWekaBaseline(registry=small_registry, strategy="hillclimb")

    def test_run_returns_valid_solution(self, small_registry, blobs_dataset):
        baseline = AutoWekaBaseline(
            registry=small_registry, strategy="random", cv=2,
            tuning_max_records=80, random_state=0,
        )
        solution = baseline.run(blobs_dataset, time_limit=None, max_evaluations=8)
        assert solution.algorithm in small_registry.names
        assert small_registry.space(solution.algorithm).validate(solution.config)
        assert 0.0 <= solution.cv_score <= 1.0
        assert solution.n_evaluations <= 9

    def test_smac_strategy_runs(self, small_registry, blobs_dataset):
        baseline = AutoWekaBaseline(
            registry=small_registry, strategy="smac", cv=2,
            tuning_max_records=80, random_state=0,
        )
        solution = baseline.run(blobs_dataset, time_limit=None, max_evaluations=12)
        assert solution.optimizer == "autoweka-smac"
        assert solution.cv_score > 0.0

    def test_fit_final_estimator(self, small_registry, blobs_dataset):
        baseline = AutoWekaBaseline(
            registry=small_registry, strategy="random", cv=2,
            tuning_max_records=80, random_state=0,
        )
        solution = baseline.run(
            blobs_dataset, time_limit=None, max_evaluations=4, fit_final_estimator=True
        )
        assert solution.estimator is not None
        X, _ = blobs_dataset.to_matrix()
        assert len(solution.estimator.predict(X[:5])) == 5

    def test_more_budget_does_not_hurt(self, small_registry, blobs_dataset):
        small = AutoWekaBaseline(
            registry=small_registry, strategy="random", cv=2,
            tuning_max_records=80, random_state=0,
        ).run(blobs_dataset, time_limit=None, max_evaluations=3)
        large = AutoWekaBaseline(
            registry=small_registry, strategy="random", cv=2,
            tuning_max_records=80, random_state=0,
        ).run(blobs_dataset, time_limit=None, max_evaluations=25)
        assert large.cv_score >= small.cv_score - 1e-9


class TestOtherBaselines:
    def test_random_cash_is_random_strategy(self, small_registry):
        assert RandomCASH(registry=small_registry).strategy == "random"

    def test_single_best_uses_globally_best_algorithm(
        self, small_registry, small_performance, blobs_dataset
    ):
        baseline = SingleBestBaseline(
            small_performance, registry=small_registry, cv=2,
            tuning_max_records=80, random_state=0,
        )
        expected = small_performance.top_algorithms(k=1, by="score")[0][0]
        assert baseline.algorithm == expected
        solution = baseline.run(blobs_dataset, time_limit=None, max_evaluations=5)
        assert solution.algorithm == expected
        assert solution.optimizer == "single-best"


class TestFallbackScore:
    """A search that ends with no finite score reports the scorer's error score."""

    @staticmethod
    def broken_registry():
        from repro.hpo.space import ConfigSpace, FloatParam
        from repro.learners.registry import AlgorithmRegistry, AlgorithmSpec

        def broken(**config):
            raise RuntimeError("cannot build")

        space = ConfigSpace([FloatParam("alpha", 0.1, 1.0)])
        return AlgorithmRegistry([AlgorithmSpec("Broken", "functions", broken, space)])

    def test_every_tool_reports_the_regression_error_score(self, linear_regression_dataset):
        from repro import UserDemandResponser
        from repro.evaluation import PerformanceTable
        from repro.learners.metrics import resolve_scorer

        registry = self.broken_registry()
        error_score = resolve_scorer(None, "regression").error_score
        single_best = SingleBestBaseline(
            PerformanceTable(["Broken"], ["lin-reg"], [[0.5]]),
            registry=registry, cv=3, task="regression",
        ).run(linear_regression_dataset, time_limit=None, max_evaluations=3)
        autoweka = AutoWekaBaseline(registry=registry, cv=3, task="regression").run(
            linear_regression_dataset, time_limit=None, max_evaluations=3
        )
        udr = UserDemandResponser(model=None, registry=registry, cv=3, task="regression").respond(
            linear_regression_dataset, time_limit=None, max_evaluations=3,
            fit_final_estimator=False, algorithm="Broken",
        )
        assert error_score == -1e12
        assert single_best.cv_score == error_score
        assert autoweka.cv_score == error_score
        assert udr.cv_score == error_score
