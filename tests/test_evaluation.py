"""Tests for performance tables, PORatio analysis, CASH evaluation and reporting."""

import numpy as np
import pytest

from repro.evaluation import (
    PerformanceTable,
    analyze_selection,
    compare_tools,
    evaluate_algorithm,
    format_histogram,
    format_key_values,
    format_table,
    poratio_histogram,
    tune_algorithm,
)
from repro.evaluation.cash_eval import evaluate_cash_tool


class TestPerformanceTable:
    def test_shape_and_lookup(self, small_performance, knowledge_datasets, small_registry):
        assert small_performance.scores.shape == (
            len(knowledge_datasets),
            len(small_registry),
        )
        name = knowledge_datasets[0].name
        algorithm = small_registry.names[0]
        assert 0.0 <= small_performance.score(algorithm, name) <= 1.0

    def test_unknown_keys_raise(self, small_performance):
        with pytest.raises(KeyError):
            small_performance.score("Nope", small_performance.datasets[0])
        with pytest.raises(KeyError):
            small_performance.p_max("not-a-dataset")

    def test_pmax_is_maximum(self, small_performance):
        for dataset in small_performance.datasets:
            scores = small_performance.dataset_scores(dataset)
            assert small_performance.p_max(dataset) == pytest.approx(max(scores.values()))

    def test_pavg_between_min_and_max(self, small_performance):
        for dataset in small_performance.datasets:
            assert (
                0.0
                <= small_performance.p_avg(dataset)
                <= small_performance.p_max(dataset) + 1e-12
            )

    def test_poratio_definition(self, small_performance):
        dataset = small_performance.datasets[0]
        best = small_performance.best_algorithm(dataset)
        assert small_performance.poratio(best, dataset) == pytest.approx(1.0)
        worst = small_performance.ranking(dataset)[-1]
        assert small_performance.poratio(worst, dataset) <= small_performance.poratio(best, dataset)

    def test_ranking_sorted_by_score(self, small_performance):
        dataset = small_performance.datasets[0]
        ranking = small_performance.ranking(dataset)
        scores = [small_performance.score(a, dataset) for a in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_top_algorithms(self, small_performance):
        top = small_performance.top_algorithms(k=3, by="poratio")
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]
        with pytest.raises(ValueError):
            small_performance.top_algorithms(by="magic")

    def test_serialisation_roundtrip(self, small_performance, tmp_path):
        path = tmp_path / "table.json"
        small_performance.save(path)
        restored = PerformanceTable.load(path)
        np.testing.assert_allclose(restored.scores, small_performance.scores)
        assert restored.algorithms == small_performance.algorithms

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PerformanceTable(algorithms=["a"], datasets=["d1", "d2"], scores=np.zeros((1, 1)))


class TestPerformanceTableResume:
    def test_warm_rerun_is_identical_and_execution_free(
        self, knowledge_datasets, small_registry, tmp_path
    ):
        from repro.execution import ResultStore

        kwargs = dict(
            registry=small_registry, tune=False, cv=3, max_records=80, random_state=0
        )
        cold = PerformanceTable.compute(
            knowledge_datasets[:3], store=ResultStore(tmp_path / "s"), **kwargs
        )
        warm = PerformanceTable.compute(
            knowledge_datasets[:3], store=ResultStore(tmp_path / "s"), **kwargs
        )
        np.testing.assert_array_equal(cold.scores, warm.scores)
        assert warm.metadata["engine"]["n_executions"] == 0
        assert warm.metadata["engine"]["n_store_hits"] == cold.scores.size

    def test_partial_table_resumes_from_store(
        self, knowledge_datasets, small_registry, tmp_path
    ):
        """A table extended with more datasets only pays for the new cells."""
        from repro.execution import ResultStore

        kwargs = dict(
            registry=small_registry, tune=False, cv=3, max_records=80, random_state=0
        )
        partial = PerformanceTable.compute(
            knowledge_datasets[:2], store=ResultStore(tmp_path / "s"), **kwargs
        )
        full = PerformanceTable.compute(
            knowledge_datasets[:4], store=ResultStore(tmp_path / "s"), **kwargs
        )
        np.testing.assert_array_equal(full.scores[:2], partial.scores)
        n_new_cells = 2 * len(small_registry)
        assert full.metadata["engine"]["n_executions"] == n_new_cells

    def test_incompatible_protocol_never_reuses_scores(
        self, knowledge_datasets, small_registry, tmp_path
    ):
        from repro.execution import ResultStore

        store_dir = tmp_path / "s"
        PerformanceTable.compute(
            knowledge_datasets[:2],
            registry=small_registry,
            cv=3,
            max_records=80,
            random_state=0,
            store=ResultStore(store_dir),
        )
        other = PerformanceTable.compute(
            knowledge_datasets[:2],
            registry=small_registry,
            cv=2,  # different CV protocol → different shard context
            max_records=80,
            random_state=0,
            store=ResultStore(store_dir),
        )
        assert other.metadata["engine"]["n_store_hits"] == 0


class TestEvaluateAndTune:
    def test_evaluate_algorithm_in_unit_interval(self, small_registry, blobs_dataset):
        score = evaluate_algorithm(small_registry, "NaiveBayes", blobs_dataset, cv=3)
        assert 0.0 <= score <= 1.0

    def test_evaluate_unknown_algorithm_is_zero(self, small_registry, blobs_dataset):
        assert evaluate_algorithm(small_registry, "Missing", blobs_dataset) == 0.0

    def test_tune_algorithm_returns_valid_config(self, small_registry, blobs_dataset):
        config, score = tune_algorithm(
            small_registry, "J48", blobs_dataset, max_evaluations=6, cv=2, max_records=80
        )
        assert small_registry.space("J48").validate(config)
        assert 0.0 <= score <= 1.0

    def test_tuning_does_not_hurt_much(self, small_registry, blobs_dataset):
        default_score = evaluate_algorithm(
            small_registry, "IBk", blobs_dataset, cv=3, max_records=100, random_state=0
        )
        _, tuned_score = tune_algorithm(
            small_registry, "IBk", blobs_dataset, max_evaluations=10, cv=3,
            max_records=100, random_state=0,
        )
        assert tuned_score >= default_score - 0.1


class TestPORatioAnalysis:
    def test_histogram_bins_sum_to_100(self):
        histogram = poratio_histogram([0.1, 0.3, 0.5, 0.85, 0.95, 1.0])
        assert sum(histogram.values()) == pytest.approx(100.0)
        assert len(histogram) == 5

    def test_histogram_empty_rejected(self):
        with pytest.raises(ValueError):
            poratio_histogram([])

    def test_analysis_of_best_selection_is_perfect(self, small_performance):
        selection = {
            dataset: small_performance.best_algorithm(dataset)
            for dataset in small_performance.datasets
        }
        analysis = analyze_selection(selection, small_performance)
        assert analysis.average_poratio == pytest.approx(1.0)
        assert analysis.beats_single_algorithms()
        rows = analysis.per_dataset_rows()
        assert len(rows) == len(small_performance.datasets)
        for row in rows:
            assert row["performance"] <= row["p_max"] + 1e-9

    def test_analysis_of_worst_selection_is_low(self, small_performance):
        selection = {
            dataset: small_performance.ranking(dataset)[-1]
            for dataset in small_performance.datasets
        }
        analysis = analyze_selection(selection, small_performance)
        assert analysis.average_poratio < 0.6

    def test_unknown_algorithm_counts_as_miss(self, small_performance):
        selection = {small_performance.datasets[0]: "NotInCatalogue"}
        analysis = analyze_selection(selection, small_performance)
        assert analysis.poratios[small_performance.datasets[0]] == 0.0

    def test_disjoint_selection_rejected(self, small_performance):
        with pytest.raises(ValueError):
            analyze_selection({"unknown-dataset": "J48"}, small_performance)


class TestCashEvaluation:
    class _FixedTool:
        """A fake CASH tool that always returns the same (algorithm, config)."""

        def __init__(self, algorithm: str, config: dict | None = None):
            self.algorithm = algorithm
            self.config = config or {}

        def run(self, dataset, time_limit=None, max_evaluations=None):
            from repro import CASHSolution

            return CASHSolution(
                algorithm=self.algorithm,
                config=dict(self.config),
                cv_score=0.5,
                optimizer="fixed",
                n_evaluations=1,
                elapsed=0.0,
            )

    def test_evaluate_fixed_tool(self, blobs_dataset, small_registry):
        tool = self._FixedTool("NaiveBayes")
        evaluation = evaluate_cash_tool(
            tool, blobs_dataset, tool_name="fixed", time_limit=None,
            cv=3, registry=small_registry, eval_max_records=120,
        )
        assert evaluation.algorithm == "NaiveBayes"
        assert 0.0 <= evaluation.f_score <= 1.0

    def test_compare_tools_table_and_wins(self, blobs_dataset, rules_dataset, small_registry):
        tools = {
            "good": self._FixedTool("IBk"),
            "trivial": self._FixedTool("ZeroR"),
        }
        result = compare_tools(
            tools, [blobs_dataset, rules_dataset], time_limits=[None],
            cv=3, registry=small_registry, eval_max_records=120,
        )
        assert set(result.tools()) == {"good", "trivial"}
        assert len(result.table()) == 2
        assert result.mean_f_score("good") >= result.mean_f_score("trivial")
        wins = result.win_counts()
        assert wins["good"] >= wins["trivial"]

    @pytest.mark.parametrize("pass_registry", [True, False])
    def test_regression_f_score_is_the_solutions_r2(
        self, pass_registry, linear_regression_dataset, small_regression_registry
    ):
        from repro.baselines import RandomCASH
        from repro.learners import default_regression_registry

        tool = RandomCASH(
            registry=small_regression_registry, cv=3, random_state=0, task="regression"
        )
        evaluation = evaluate_cash_tool(
            tool, linear_regression_dataset, tool_name="random", time_limit=None,
            max_evaluations=4, cv=3,
            registry=small_regression_registry if pass_registry else None,
        )
        r2 = evaluate_algorithm(
            default_regression_registry(), evaluation.algorithm, linear_regression_dataset,
            config=evaluation.config, cv=3, max_records=800, random_state=0,
            task="regression",
        )
        assert evaluation.f_score == r2
        assert evaluation.f_score != 0.0

    def test_missing_cell_raises(self, blobs_dataset, small_registry):
        result = compare_tools(
            {"only": self._FixedTool("ZeroR")}, [blobs_dataset], time_limits=[None],
            cv=2, registry=small_registry, eval_max_records=80,
        )
        with pytest.raises(KeyError):
            result.f_score("missing-tool", blobs_dataset.name, None)
        with pytest.raises(KeyError):
            result.mean_f_score("missing-tool")


class TestReporting:
    def test_format_table_alignment_and_missing_values(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 20, "b": None}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "0.500" in text
        assert "-" in text

    def test_format_table_empty(self):
        assert "(empty table)" in format_table([])

    def test_format_histogram_bars(self):
        text = format_histogram({"[0.0,0.2)": 10.0, "[0.8,1.0]": 90.0}, title="Fig3")
        assert "Fig3" in text and "#" in text and "90.0%" in text

    def test_format_key_values(self):
        text = format_key_values({"pairs": 69, "mse": 0.0012}, title="summary")
        assert "pairs" in text and "0.0012" in text
