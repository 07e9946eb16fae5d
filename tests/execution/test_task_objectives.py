"""Task-aware objectives, and the classification-unchanged guarantees.

The regression tentpole must not perturb classification behaviour: store
contexts, cache fingerprints and scores for classification runs are asserted
here to match the historical (pre-task-abstraction) formats and values.
"""

import numpy as np
import pytest

from repro.execution import (
    CrossValObjective,
    FoldPlan,
    estimator_engine,
    objective_context_suffix,
)
from repro.execution.cache import config_fingerprint
from repro.learners import default_regression_registry, default_registry
from repro.learners.metrics import SCORERS, Scorer, r2_score, resolve_scorer
from repro.learners.validation import plain_folds, stratified_folds


class TestObjectiveContextSuffix:
    def test_classification_default_is_empty(self):
        assert objective_context_suffix() == ""
        assert objective_context_suffix("classification", None) == ""

    def test_regression_default_names_task_and_metric(self):
        assert objective_context_suffix("regression") == "-taskregression-metricr2"

    def test_explicit_metric_always_tagged(self):
        assert (
            objective_context_suffix("classification", "balanced_accuracy")
            == "-taskclassification-metricbalanced_accuracy"
        )
        assert objective_context_suffix("regression", "rmse") == "-taskregression-metricrmse"


class TestClassificationUnchanged:
    """Classification runs must keep their historical fingerprints and scores."""

    def test_udr_store_context_format_unchanged(self, blobs_dataset):
        from repro.core.udr import UserDemandResponser

        responder = UserDemandResponser.__new__(UserDemandResponser)
        responder.tuning_max_records = 400
        responder.cv = 5
        responder.random_state = 0
        responder.registry = default_registry()  # bare catalogue: no pipeline suffix
        context = responder._store_context(blobs_dataset, "J48")
        # The exact pre-task-abstraction format, no task/metric/pipeline suffix.
        assert context == (
            f"udr-J48-blobs-{blobs_dataset.n_records}x{blobs_dataset.n_attributes}"
            "-sub400-cv5-rs0"
        )

    def test_estimator_engine_classification_context_has_no_suffix(self, simple_xy):
        X, y = simple_xy
        spec = default_registry().get("ZeroR")
        engine = estimator_engine(
            spec.build, X, y, cv=3, random_state=0, store_context="my-context"
        )
        assert engine.store_context == "my-context"

    def test_estimator_engine_regression_context_gets_suffix(self, regression_xy):
        X, y = regression_xy
        spec = default_regression_registry().get("Ridge")
        engine = estimator_engine(
            spec.build, X, y, cv=3, random_state=0,
            store_context="my-context", task="regression",
        )
        assert engine.store_context == "my-context-taskregression-metricr2"

    def test_classification_objective_scores_identical_to_foldplan(self, simple_xy):
        X, y = simple_xy
        spec = default_registry().get("NaiveBayes")
        objective = CrossValObjective(spec.build, X, y, cv=3, random_state=0)
        plan = FoldPlan.stratified(y, cv=3, random_state=0)
        config = spec.default_config()
        assert objective(config) == plan.score(spec.build(config), X, y)

    def test_config_fingerprints_do_not_change_with_task_plumbing(self):
        # The fingerprint is a pure function of the configuration; the task
        # lives in the context, never in the key.
        config = {"max_depth": 5, "min_samples_leaf": 2}
        assert config_fingerprint(config) == config_fingerprint(dict(config))

    def test_performance_table_context_format_unchanged(
        self, knowledge_datasets, small_registry, tmp_path
    ):
        from repro.execution import ResultStore

        store = ResultStore(tmp_path / "store")
        from repro.evaluation import PerformanceTable

        PerformanceTable.compute(
            knowledge_datasets[:1],
            registry=small_registry.subset(["ZeroR"]),
            cv=2,
            max_records=50,
            random_state=0,
            store=store,
        )
        contexts = store.contexts()
        assert contexts == ["performance-table-tuneFalse-cv2-sub50-evals0-rs0"]


class TestRegressionObjective:
    def test_regression_objective_uses_plain_folds(self, regression_xy):
        X, y = regression_xy
        spec = default_regression_registry().get("Ridge")
        objective = CrossValObjective(
            spec.build, X, y, cv=4, random_state=0, task="regression"
        )
        plan = objective.fold_plan
        assert plan.metadata.get("stratified") is False
        expected = plain_folds(y, cv=4, random_state=0)
        assert len(plan.folds) == len(expected)
        for (train_a, test_a), (train_b, test_b) in zip(plan.folds, expected):
            np.testing.assert_array_equal(train_a, train_b)
            np.testing.assert_array_equal(test_a, test_b)

    def test_regression_objective_maximizes_r2(self, regression_xy):
        X, y = regression_xy
        registry = default_regression_registry()
        ridge = CrossValObjective(
            registry.get("Ridge").build, X, y, cv=3, random_state=0, task="regression"
        )
        dummy = CrossValObjective(
            registry.get("DummyRegressor").build, X, y, cv=3, random_state=0,
            task="regression",
        )
        assert ridge({"alpha": 1.0}) > dummy({"strategy": "mean"})

    def test_rmse_metric_is_negated(self, regression_xy):
        X, y = regression_xy
        spec = default_regression_registry().get("Ridge")
        objective = CrossValObjective(
            spec.build, X, y, cv=3, random_state=0, task="regression", metric="rmse"
        )
        score = objective({"alpha": 1.0})
        assert score < 0.0  # oriented: greater is better, so -RMSE

    def test_stratified_folds_would_degenerate_on_continuous_targets(self, regression_xy):
        # The motivation for task-aware folds: stratifying a continuous target
        # treats every value as its own class (singleton strata).
        _, y = regression_xy
        strat = stratified_folds(y, cv=5, random_state=0)
        assert len(strat) == 0  # singleton strata leave no usable folds at all
        plain = plain_folds(y, cv=5, random_state=0)
        assert len(plain) == 5

    def test_unknown_task_rejected(self, regression_xy):
        X, y = regression_xy
        spec = default_regression_registry().get("Ridge")
        with pytest.raises(ValueError, match="unknown task"):
            CrossValObjective(spec.build, X, y, task="ranking")


class TestScorers:
    def test_every_scorer_is_oriented_greater_is_better(self):
        y_true = np.array([1.0, 2.0, 3.0, 4.0])
        good = y_true.copy()
        bad = y_true + 10.0
        for name in ("r2", "rmse", "mae"):
            scorer = SCORERS[name]
            assert scorer(y_true, good) > scorer(y_true, bad), name

    def test_error_scores(self):
        assert SCORERS["accuracy"].error_score == 0.0
        # Metrics unbounded below (R², negated RMSE/MAE): hugely negative but
        # FINITE — a crash must rank beneath every genuinely-fitted score
        # (even a diverging R² of -10) without poisoning means with -inf.
        for name in ("r2", "rmse", "mae"):
            assert SCORERS[name].error_score == -1e12
            assert np.isfinite(SCORERS[name].error_score)

    def test_crash_never_outranks_working_configs_on_error_metrics(self, regression_xy):
        from repro.evaluation.performance import evaluate_algorithm
        from repro.datasets import make_linear_response
        from repro.learners import default_regression_registry

        dataset = make_linear_response("crash-rank", n_records=80, n_numeric=4,
                                       random_state=0)
        registry = default_regression_registry()
        working = evaluate_algorithm(
            registry, "Ridge", dataset, cv=2, max_records=60, random_state=0,
            task="regression", metric="rmse",
        )
        crashed = evaluate_algorithm(
            registry, "Ridge", dataset, config={"alpha": -1.0},  # build-time crash
            cv=2, max_records=60, random_state=0, task="regression", metric="rmse",
        )
        assert np.isfinite(crashed)
        assert crashed < working  # the crash can never win the table

    def test_classification_with_custom_metric_keeps_stratified_folds(self, blobs_dataset):
        from repro.evaluation.performance import evaluate_algorithm
        from repro.learners import default_registry
        from repro.learners.metrics import SCORERS
        from repro.learners.validation import cross_val_score_folds, stratified_folds

        registry = default_registry()
        score = evaluate_algorithm(
            registry, "NaiveBayes", blobs_dataset, cv=3, max_records=None,
            random_state=0, metric="balanced_accuracy",
        )
        X, y = blobs_dataset.to_matrix()
        folds = stratified_folds(y, cv=3, random_state=0)
        expected = cross_val_score_folds(
            registry.build("NaiveBayes"), X, y, folds,
            SCORERS["balanced_accuracy"], error_score=0.0,
        ).mean()
        assert score == float(expected)

    def test_resolve_scorer_defaults_per_task(self):
        assert resolve_scorer(None, "classification").name == "accuracy"
        assert resolve_scorer(None, "regression").name == "r2"
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_scorer("nope", "regression")

    def test_resolve_scorer_rejects_cross_task_metrics(self):
        # RMSE over label-encoded classes (or accuracy over floats) is
        # numerically plausible nonsense; it must raise, not silently score.
        with pytest.raises(ValueError, match="regression metric"):
            resolve_scorer("rmse", "classification")
        with pytest.raises(ValueError, match="classification metric"):
            resolve_scorer("accuracy", "regression")
        # Caller-constructed Scorer instances are trusted as-is.
        custom = SCORERS["rmse"]
        assert resolve_scorer(custom, "classification") is custom

    def test_task_strings_are_normalised_everywhere(self, regression_xy):
        X, y = regression_xy
        # Case/whitespace variants resolve instead of silently falling back
        # to classification stratification.
        plan = FoldPlan.for_task(y, task=" Regression ", cv=4, random_state=0)
        assert plan.metadata.get("stratified") is False
        with pytest.raises(ValueError, match="unknown task"):
            FoldPlan.for_task(y, task="bogus")

    @pytest.mark.parametrize("error_score", [float("-inf"), float("inf"), float("nan")])
    def test_non_finite_error_score_is_rejected(self, error_score):
        # A search that ends with no finite score reports the error score as
        # is, so a scorer cannot be built without a finite one.
        with pytest.raises(ValueError, match="finite error_score"):
            Scorer("custom", r2_score, True, error_score, "regression")
