"""Integration tests: DMD (Algorithm 4), UDR (Algorithm 5) and the AutoModel facade."""

import numpy as np
import pytest

from repro.core import AutoModel, DecisionMakingModelDesigner, UserDemandResponser
from repro.core.concepts import KnowledgeBase, KnowledgePair
from repro.core.udr import CASHSolution
from repro.datasets import make_gaussian_clusters


@pytest.fixture(scope="module")
def fast_dmd() -> DecisionMakingModelDesigner:
    return DecisionMakingModelDesigner(
        feature_population=8,
        feature_generations=3,
        feature_max_evaluations=25,
        architecture_population=6,
        architecture_generations=2,
        architecture_max_evaluations=8,
        cv=2,
        random_state=0,
    )


@pytest.fixture(scope="module")
def dmd_result(fast_dmd, small_corpus, dataset_lookup):
    return fast_dmd.run(small_corpus, dataset_lookup)


@pytest.fixture(scope="module")
def fitted_automodel(dmd_result, small_registry, small_corpus, small_performance):
    return AutoModel(
        dmd_result=dmd_result,
        registry=small_registry,
        performance=small_performance,
        corpus=small_corpus,
    )


@pytest.fixture(scope="module")
def target_dataset():
    return make_gaussian_clusters(
        "target", n_records=120, n_numeric=5, n_categorical=1, n_classes=3, random_state=42
    )


class TestDMD:
    def test_pipeline_produces_model_and_diagnostics(self, dmd_result):
        assert len(dmd_result.knowledge_pairs) >= 3
        assert len(dmd_result.knowledge_base) >= 3
        assert 1 <= len(dmd_result.key_features) <= 23
        assert dmd_result.model is not None
        assert dmd_result.diagnostics["n_resolved_pairs"] == len(dmd_result.knowledge_base)

    def test_model_selects_known_algorithms(self, dmd_result, dataset_lookup):
        labels = set(dmd_result.knowledge_base.algorithm_labels)
        for dataset in list(dataset_lookup.values())[:4]:
            assert dmd_result.model.select(dataset) in labels

    def test_skip_feature_selection_uses_all_candidates(self, small_corpus, dataset_lookup):
        dmd = DecisionMakingModelDesigner(
            skip_feature_selection=True,
            architecture_population=4,
            architecture_generations=1,
            architecture_max_evaluations=4,
            cv=2,
            random_state=0,
        )
        result = dmd.run(small_corpus, dataset_lookup)
        assert len(result.key_features) == 23

    @pytest.mark.parametrize("n_resolved", [0, 3])
    def test_fails_when_too_few_pairs_resolve(
        self, fast_dmd, small_corpus, dataset_lookup, n_resolved
    ):
        pairs = fast_dmd.acquire_knowledge(small_corpus)
        lookup = {pair.instance: dataset_lookup[pair.instance] for pair in pairs[:n_resolved]}
        assert len(KnowledgeBase.from_pairs(pairs, lookup)) == n_resolved
        with pytest.raises(ValueError, match=f"only {n_resolved} knowledge pairs"):
            fast_dmd.run(small_corpus, dataset_lookup=lookup)

    def test_single_label_knowledge_picks_that_label(
        self, fast_dmd, small_corpus, dataset_lookup, monkeypatch
    ):
        pairs = [KnowledgePair(instance=name, algorithm="J48") for name in dataset_lookup]
        monkeypatch.setattr(fast_dmd, "acquire_knowledge", lambda corpus: pairs)
        result = fast_dmd.run(small_corpus, dataset_lookup)
        assert result.knowledge_base.algorithm_labels == ["J48"]
        # One class: every fold's softmax is 1.0 on it, so Algorithm 2 scores
        # every feature subset a perfect 1.0.
        assert result.feature_selection.score == 1.0
        datasets = list(dataset_lookup.values())
        assert result.model.select_many(datasets) == ["J48"] * len(datasets)
        assert result.diagnostics["training_selection_agreement"] == 1.0


class TestUDR:
    def test_respond_returns_valid_solution(self, dmd_result, small_registry, target_dataset):
        responder = UserDemandResponser(
            model=dmd_result.model, registry=small_registry, cv=3,
            tuning_max_records=100, random_state=0,
        )
        solution = responder.respond(target_dataset, time_limit=None, max_evaluations=8)
        assert isinstance(solution, CASHSolution)
        assert solution.algorithm in small_registry.names
        assert small_registry.space(solution.algorithm).validate(solution.config)
        assert 0.0 <= solution.cv_score <= 1.0
        assert solution.n_evaluations > 0
        assert solution.estimator is not None

    def test_selected_algorithm_restricted_to_catalogue(self, dmd_result, small_registry, target_dataset):
        responder = UserDemandResponser(
            model=dmd_result.model, registry=small_registry, random_state=0
        )
        assert responder.select_algorithm(target_dataset) in small_registry.names

    def test_optimizer_name_reported(self, dmd_result, small_registry, target_dataset):
        responder = UserDemandResponser(
            model=dmd_result.model, registry=small_registry, cv=2,
            tuning_max_records=80, random_state=0,
        )
        solution = responder.respond(target_dataset, time_limit=None, max_evaluations=5,
                                     fit_final_estimator=False)
        assert solution.optimizer in ("genetic-algorithm", "bayesian-optimization")
        assert solution.estimator is None

    def test_summary_is_serialisable(self, dmd_result, small_registry, target_dataset):
        responder = UserDemandResponser(
            model=dmd_result.model, registry=small_registry, cv=2,
            tuning_max_records=80, random_state=0,
        )
        solution = responder.respond(target_dataset, time_limit=None, max_evaluations=4,
                                     fit_final_estimator=False)
        summary = solution.summary()
        assert summary["algorithm"] == solution.algorithm
        assert isinstance(summary["cv_score"], float)


class TestAutoModelFacade:
    def test_fit_from_datasets_end_to_end(self, knowledge_datasets, small_registry, small_performance):
        dmd = DecisionMakingModelDesigner(
            feature_population=6, feature_generations=2, feature_max_evaluations=12,
            architecture_population=4, architecture_generations=1,
            architecture_max_evaluations=4, cv=2, random_state=0,
        )
        auto_model = AutoModel.fit_from_datasets(
            knowledge_datasets,
            registry=small_registry,
            dmd=dmd,
            performance=small_performance,
        )
        assert auto_model.knowledge_size >= 3
        assert auto_model.performance is small_performance
        description = auto_model.describe()
        assert description["catalogue_size"] == len(small_registry)
        assert description["knowledge_pairs"] == auto_model.knowledge_size

    def test_fit_with_existing_corpus(self, small_corpus, dataset_lookup, small_registry, fast_dmd):
        auto_model = AutoModel.fit(
            small_corpus, dataset_lookup, registry=small_registry, dmd=fast_dmd
        )
        assert auto_model.corpus is small_corpus

    def test_recommend_full_loop(self, fitted_automodel, target_dataset):
        solution = fitted_automodel.recommend(
            target_dataset, time_limit=None, max_evaluations=6, cv=2, tuning_max_records=80
        )
        assert solution.algorithm in fitted_automodel.registry.names
        assert solution.cv_score > 0.0

    def test_select_algorithm_shortcut(self, fitted_automodel, target_dataset):
        assert fitted_automodel.select_algorithm(target_dataset) in fitted_automodel.registry.names

    def test_key_features_exposed(self, fitted_automodel):
        assert set(fitted_automodel.key_features).issubset(
            {f"f{i}" for i in range(1, 24)}
        )


@pytest.mark.slow
class TestSelectionQuality:
    def test_sna_selection_beats_average_algorithm(
        self, fitted_automodel, small_performance, knowledge_datasets
    ):
        """The §IV-A2 claim, on training-pool datasets: P(SNA(D), D) >= Pavg(D) on average."""
        gaps = []
        for dataset in knowledge_datasets:
            chosen = fitted_automodel.select_algorithm(dataset)
            if chosen not in small_performance.algorithms:
                continue
            gaps.append(
                small_performance.score(chosen, dataset.name)
                - small_performance.p_avg(dataset.name)
            )
        assert gaps, "no overlap between selections and the performance table"
        assert float(np.mean(gaps)) > -0.02
