"""Acceptance path for the pipeline PR.

A corrupted dataset (missing values + unseen/rare categories + scale skew)
that crash-scores with every bare estimator must complete the full
knowledge-driven loop — corpus → performance table → DMD → UDR → HTTP
``/recommend`` — returning a tuned *pipeline*, while bare-estimator
fingerprints, store contexts and scores stay byte-identical.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro import AutoModel
from repro.core import DecisionMakingModelDesigner
from repro.core.udr import UserDemandResponser
from repro.datasets import corrupt, make_dataset
from repro.evaluation import PerformanceTable
from repro.execution import ResultStore
from repro.execution.cache import config_fingerprint
from repro.learners import (
    default_registry,
    pipeline_registry,
    registry_has_pipelines,
)
from repro.learners.pipeline import Pipeline

# Knowledge acquisition needs strictly more than 5 distinct algorithms per
# instance, so the test catalogue carries 7 cheap ones.
PIPELINE_CATALOGUE = [
    "J48", "NaiveBayes", "IBk", "Logistic", "ZeroR", "OneR", "DecisionStump",
]

_FAMILIES = [
    "gaussian_clusters",
    "hypercube_rules",
    "categorical_rules",
    "noisy_linear",
    "gaussian_clusters",
    "categorical_rules",
]


@pytest.fixture(scope="module")
def bare_catalogue():
    return default_registry().subset(PIPELINE_CATALOGUE)


@pytest.fixture(scope="module")
def messy_knowledge(bare_catalogue):
    """Six corrupted knowledge datasets spanning several concept families."""
    datasets = []
    for i, family in enumerate(_FAMILIES):
        clean = make_dataset(
            family,
            name=f"MK{i + 1:02d}",
            n_records=110,
            n_numeric=4,
            n_categorical=2,
            n_classes=2 + (i % 2),
            random_state=100 + i,
        )
        datasets.append(
            corrupt(
                clean,
                missing_rate=0.2,
                rare_rate=0.12,
                scale_skew=1.0,
                random_state=200 + i,
                name=clean.name,
            )
        )
    return datasets


@pytest.fixture(scope="module")
def messy_user_dataset():
    clean = make_dataset(
        "gaussian_clusters",
        name="messy-user",
        n_records=120,
        n_numeric=4,
        n_categorical=2,
        n_classes=3,
        random_state=77,
    )
    return corrupt(clean, missing_rate=0.3, rare_rate=0.15, scale_skew=1.0, random_state=78)


@pytest.fixture(scope="module")
def fast_dmd():
    return DecisionMakingModelDesigner(
        feature_population=6,
        feature_generations=2,
        feature_max_evaluations=12,
        architecture_population=4,
        architecture_generations=1,
        architecture_max_evaluations=4,
        cv=2,
        random_state=0,
    )


@pytest.fixture(scope="module")
def pipeline_automodel(messy_knowledge, bare_catalogue, fast_dmd, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("pipeline-automodel")
    return AutoModel.fit_from_datasets(
        messy_knowledge,
        registry=bare_catalogue,
        dmd=fast_dmd,
        cv=2,
        max_records=90,
        cache_dir=cache_dir,
        pipelines=True,
    )


class TestBareEstimatorsCrashScore:
    def test_every_bare_algorithm_scores_zero_on_the_messy_dataset(
        self, bare_catalogue, messy_user_dataset
    ):
        table = PerformanceTable.compute(
            [messy_user_dataset], registry=bare_catalogue, cv=2, max_records=90, random_state=0
        )
        row = table.dataset_scores(messy_user_dataset.name)
        assert all(score == 0.0 for score in row.values()), row

    def test_pipeline_catalogue_scores_the_same_dataset(
        self, bare_catalogue, messy_user_dataset
    ):
        table = PerformanceTable.compute(
            [messy_user_dataset],
            registry=pipeline_registry(bare_catalogue),
            cv=2,
            max_records=90,
            random_state=0,
        )
        row = table.dataset_scores(messy_user_dataset.name)
        assert max(row.values()) > 0.5, row


class TestFullLoop:
    def test_automodel_is_pipeline_backed(self, pipeline_automodel):
        assert registry_has_pipelines(pipeline_automodel.registry)
        assert pipeline_automodel.describe()["pipelines"] is True
        assert pipeline_automodel.knowledge_size > 0

    def test_corpus_and_table_cover_pipelines(self, pipeline_automodel, messy_knowledge):
        table = pipeline_automodel.performance
        assert table.algorithms == PIPELINE_CATALOGUE
        # Pipelines rescue the corrupted knowledge pool: real signal, not a
        # wall of crash scores.
        assert float(table.scores.max()) > 0.5

    def test_recommend_returns_tuned_pipeline(self, pipeline_automodel, messy_user_dataset):
        solution = pipeline_automodel.recommend(
            messy_user_dataset, time_limit=None, max_evaluations=12, cv=2
        )
        assert solution.algorithm in PIPELINE_CATALOGUE
        assert solution.cv_score > 0.0
        assert any(key.startswith("imputer:") for key in solution.config)
        assert any(key.startswith("estimator:") for key in solution.config)
        assert isinstance(solution.estimator, Pipeline)
        # The tuned pipeline actually serves predictions on raw messy data.
        X, y = messy_user_dataset.to_raw_matrix()
        assert solution.estimator.predict(X).shape == y.shape

    def test_cache_roundtrip_restores_pipeline_registry(self, pipeline_automodel):
        restored = AutoModel.load(pipeline_automodel.cache_dir)
        # Catalogue subsets were never persisted (unchanged); what the
        # manifest records is that this model serves *pipelines*, so the
        # restore wraps the task's default catalogue accordingly.
        assert registry_has_pipelines(restored.registry)
        assert set(PIPELINE_CATALOGUE) <= set(restored.registry.names)

    def test_tuning_evaluations_land_in_pipeline_store_shard(
        self, pipeline_automodel, messy_user_dataset
    ):
        responder = pipeline_automodel.responder(cv=2)
        algorithm = responder.select_algorithm(messy_user_dataset)
        context = responder.store_context(messy_user_dataset, algorithm)
        assert context.endswith("-pipeline[imputer+scaler+encoder]")
        assert responder.tuned_best(messy_user_dataset, algorithm, k=1)


class TestServingLoop:
    @pytest.fixture(scope="class")
    def service_server(self, pipeline_automodel, tmp_path_factory):
        from repro.service import ModelRegistry
        from repro.service.http import RecommendationService, serve_in_thread

        registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
        registry.publish(pipeline_automodel, "messy", activate=True)
        # cv=2 matches the tuning protocol used elsewhere in this module, so
        # the dispatcher reads exactly the store shards the refine jobs write.
        service = RecommendationService(registry, cv=2)
        server, _thread = serve_in_thread(service, port=0)
        yield server, service
        server.shutdown()
        service.close()

    def _post(self, server, path, payload):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read().decode("utf-8"))

    def test_http_recommend_serves_pipeline_for_messy_payload(
        self, service_server, messy_user_dataset
    ):
        server, _ = service_server
        # JSON wire format: missing numeric cells travel as nulls.
        numeric = [
            [None if (isinstance(v, float) and v != v) else v for v in row]
            for row in messy_user_dataset.numeric.tolist()
        ]
        payload = {
            "dataset": {
                "name": "messy-user",
                "numeric": numeric,
                "categorical": messy_user_dataset.categorical.tolist(),
                "target": [str(v) for v in messy_user_dataset.target.tolist()],
            }
        }
        body = self._post(server, "/recommend", payload)
        assert body["model"] == "messy"
        assert body["algorithm"] in PIPELINE_CATALOGUE
        assert any(key.startswith("imputer:") for key in body["config"])
        # Tuned configurations from the module-scope recommend() run are
        # servable straight from the version's result store.
        assert body["config_source"] in ("tuned-store", "default")

    def test_refine_job_makes_tuned_pipeline_servable(
        self, service_server, messy_user_dataset
    ):
        server, service = service_server
        job = service.fit_jobs.submit_refine(
            "messy", messy_user_dataset, max_evaluations=10, cv=2
        )
        record = service.fit_jobs.wait(job, timeout=120)
        assert record.status == "done", record.error
        assert record.result["store_context"].endswith("-pipeline[imputer+scaler+encoder]")
        recommendation = service.dispatcher.recommend(messy_user_dataset, timeout=60)
        # cv must match the refine protocol for the shard to be readable.
        assert recommendation.algorithm in PIPELINE_CATALOGUE


class TestJointSpaceBaselines:
    def test_random_cash_searches_pipeline_joint_space(self, messy_user_dataset):
        from repro.baselines import RandomCASH

        registry = pipeline_registry(default_registry().subset(["J48", "NaiveBayes", "ZeroR"]))
        baseline = RandomCASH(registry=registry, cv=2, tuning_max_records=90, random_state=0)
        solution = baseline.run(messy_user_dataset, time_limit=None, max_evaluations=8)
        assert solution.algorithm in {"J48", "NaiveBayes", "ZeroR"}
        # The joint config splits back into this algorithm's namespaced params.
        assert all(
            ":" in key for key in solution.config
        ), solution.config  # imputer:/scaler:/encoder:/estimator: namespaces
        assert solution.cv_score > 0.0  # something survived the messy data


class TestBareBehaviourByteIdentical:
    """Everything pre-existing — fingerprints, contexts, scores — unchanged."""

    def test_bare_store_context_has_no_pipeline_suffix(self, bare_catalogue, messy_user_dataset):
        responder = UserDemandResponser.__new__(UserDemandResponser)
        responder.tuning_max_records = 400
        responder.cv = 5
        responder.random_state = 0
        responder.registry = bare_catalogue
        expected = (
            f"udr-J48-{messy_user_dataset.name}-{messy_user_dataset.n_records}"
            f"x{messy_user_dataset.n_attributes}-sub400-cv5-rs0"
        )
        assert responder._store_context(messy_user_dataset, "J48") == expected

    def test_bare_config_fingerprints_have_no_namespace_artifacts(self):
        config = {"max_depth": 5, "min_samples_leaf": 2}
        assert config_fingerprint(config) == (
            ("max_depth", 5), ("min_samples_leaf", 2)
        )

    def test_clean_data_bare_scores_match_legacy_impute_then_encode(self, bare_catalogue):
        from repro.execution import FoldPlan
        from repro.learners.preprocessing import OneHotEncoder, SimpleImputer

        clean = make_dataset(
            "gaussian_clusters", "clean-check", n_records=100, n_numeric=4,
            n_categorical=2, n_classes=2, random_state=11,
        )
        X_now, y = clean.to_matrix()
        X_legacy = np.hstack([
            SimpleImputer().fit_transform(clean.numeric),
            OneHotEncoder().fit_transform(clean.categorical),
        ])
        assert np.array_equal(X_now, X_legacy)
        estimator = bare_catalogue.build("NaiveBayes", {})
        plan = FoldPlan.stratified(y, cv=3, random_state=0)
        score_now = plan.score(estimator, X_now, y)
        score_legacy = plan.score(estimator, X_legacy, y)
        assert score_now == score_legacy

    def test_bare_store_shards_replay_identically(self, bare_catalogue, tmp_path):
        clean = make_dataset(
            "gaussian_clusters", "warm-check", n_records=90, n_numeric=4,
            n_categorical=1, n_classes=2, random_state=13,
        )
        store = ResultStore(tmp_path / "store")
        cold = PerformanceTable.compute(
            [clean], registry=bare_catalogue, cv=2, max_records=None,
            random_state=0, store=store,
        )
        warm = PerformanceTable.compute(
            [clean], registry=bare_catalogue, cv=2, max_records=None,
            random_state=0, store=store,
        )
        assert np.array_equal(cold.scores, warm.scores)
        assert warm.metadata["engine"]["n_executions"] == 0  # pure store replay
