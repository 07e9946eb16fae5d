"""Golden scores: the package's cross-validation scores, pinned bit for bit.

Every CV score the package computes goes through one fold plan
(:class:`repro.execution.folds.FoldPlan`): the performance table's cells
``P(A, D)``, Algorithm 2's feature-subset accuracies, Algorithm 3's
architecture MSEs and Table XIV's ``f(T, D)``.  Before that, each of those
callers drew its own folds.  ``tests/fixtures/cv_path_golden.json`` holds what
the earlier per-caller code computed on the ``tests/conftest.py`` fixtures:

* every performance-table cell of the classification and regression
  knowledge pools;
* the DMD's results on ``small_corpus``: Algorithm 2's selected features,
  score, all-features score and evaluation count; Algorithm 3's
  configuration, MSE and evaluation count; the SHA-256 of the final decision
  model's weights; its picks;
* ``f(T, D)`` of a seeded ``RandomCASH`` run on four classification datasets.

Floats are compared through ``float.hex``, so a score that moved by one ulp
fails.  Never regenerate the fixture from the code under test: it exists to
show that the single fold path reproduces every score of the copies it
replaced.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import RandomCASH
from repro.core import DecisionMakingModelDesigner
from repro.evaluation import PerformanceTable, evaluate_cash_tool

GOLDEN_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "cv_path_golden.json"


def table_cells(table: PerformanceTable) -> dict[str, str]:
    """``"dataset/algorithm" -> float.hex(P(A, D))`` for every cell."""
    return {
        f"{dataset}/{algorithm}": table.score(algorithm, dataset).hex()
        for dataset in table.datasets
        for algorithm in table.algorithms
    }


def regression_table(datasets, registry) -> PerformanceTable:
    return PerformanceTable.compute(
        datasets, registry=registry, cv=3, max_records=100, random_state=0, task="regression"
    )


def dmd_record(corpus, lookup) -> dict:
    """Algorithms 2 and 3, the final model's weights and its picks."""
    result = DecisionMakingModelDesigner(
        feature_population=8,
        feature_generations=3,
        feature_max_evaluations=25,
        architecture_population=6,
        architecture_generations=2,
        architecture_max_evaluations=8,
        cv=3,
        random_state=0,
    ).run(corpus, lookup)
    selection = result.feature_selection
    architecture = result.architecture
    weights = json.dumps(result.model.regressor.export_params(), sort_keys=True)
    return {
        "selected": selection.selected,
        "selection_score": selection.score.hex(),
        "all_features_score": selection.all_features_score.hex(),
        "selection_evaluations": selection.n_evaluations,
        "architecture": repr(sorted(architecture.config.items())),
        "architecture_mse": architecture.mse.hex(),
        "architecture_evaluations": architecture.n_evaluations,
        "weights_sha256": hashlib.sha256(weights.encode()).hexdigest(),
        "picks": result.model.select_many(list(lookup.values())),
    }


def cash_record(datasets, registry) -> dict:
    """``f(T, D)`` of a seeded random joint search, per dataset."""
    tool = RandomCASH(registry=registry, cv=3, tuning_max_records=120, random_state=0)
    record = {}
    for dataset in datasets:
        evaluation = evaluate_cash_tool(
            tool,
            dataset,
            "random",
            time_limit=None,
            max_evaluations=6,
            cv=5,
            registry=registry,
            eval_max_records=150,
            random_state=0,
        )
        record[dataset.name] = {
            "algorithm": evaluation.algorithm,
            "config": repr(sorted(evaluation.config.items())),
            "f_score": evaluation.f_score.hex(),
            "search_score": evaluation.search_score.hex(),
        }
    return record


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(GOLDEN_FIXTURE.read_text())


def test_classification_table_cells(expected, small_performance):
    assert table_cells(small_performance) == expected["classification_cells"]


def test_regression_table_cells(
    expected, regression_knowledge_datasets, small_regression_registry
):
    table = regression_table(regression_knowledge_datasets, small_regression_registry)
    assert table_cells(table) == expected["regression_cells"]


def test_dmd_on_the_small_corpus(expected, small_corpus, dataset_lookup):
    assert dmd_record(small_corpus, dataset_lookup) == expected["dmd"]


def test_cash_tool_f_scores(
    expected, small_registry, blobs_dataset, rules_dataset, rings_dataset, categorical_dataset
):
    datasets = [blobs_dataset, rules_dataset, rings_dataset, categorical_dataset]
    assert cash_record(datasets, small_registry) == expected["cash_f_scores"]
