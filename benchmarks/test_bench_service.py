"""Benchmark: batched dispatch vs. single-call recommendation throughput.

The serving subsystem's claim is that its request tier — micro-batched
decision-model forward passes plus fingerprint-keyed meta-feature caching —
beats the status quo ante (one blocking ``AutoModel.select_algorithm`` call
per request, features recomputed every time) by a wide margin under
concurrent traffic.

This bench replays the same request stream (many requests over a smaller set
of distinct datasets, the shape of real serving traffic) through both paths
and asserts the acceptance floor: **batched dispatch ≥3x single-call
throughput, identical answers**.

The served model is a zero-weight MLP with a biased output layer: its
forward-pass cost is that of a real (small) decision model, but it needs no
training, so the bench measures serving — not fitting — and stays fast.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.architecture_search import DecisionModel
from repro.core.automodel import AutoModel
from repro.datasets import make_gaussian_clusters
from repro.evaluation import format_table
from repro.learners.neural import MLPNetwork, MLPRegressor
from repro.metafeatures.extractor import FeatureExtractor, feature_cache
from repro.service import ModelRegistry, RecommendationDispatcher

N_DISTINCT_DATASETS = 12
N_REQUESTS = 288
N_CLIENT_THREADS = 8
SPEEDUP_FLOOR = 3.0

_LABELS = ["J48", "NaiveBayes", "IBk", "Logistic", "ZeroR"]
_FEATURES = ["f1", "f2", "f3", "f5", "f9", "f18", "f20"]


def _servable_model() -> AutoModel:
    """A persistable decision model with a real forward pass, no training."""
    n_features = len(_FEATURES)
    regressor = MLPRegressor(
        hidden_layer=1, hidden_layer_size=8, activation="identity", max_iter=1
    )
    network = MLPNetwork(layer_sizes=[8], task="regression", activation="identity")
    network.weights_ = [np.zeros((n_features, 8)), np.zeros((8, len(_LABELS)))]
    bias = np.linspace(1.0, 0.0, len(_LABELS))  # strict, deterministic ranking
    network.biases_ = [np.zeros(8), bias]
    regressor.network_ = network
    regressor.n_outputs_ = len(_LABELS)
    regressor._mean = np.zeros(n_features)
    regressor._scale = np.ones(n_features)
    model = DecisionModel(
        regressor=regressor,
        labels=list(_LABELS),
        extractor=FeatureExtractor(_FEATURES, normalize=False),
        architecture={"hidden_layer": 1, "hidden_layer_size": 8},
    )
    return AutoModel(model=model)


def test_bench_batched_dispatch_vs_single_call(benchmark, tmp_path):
    # Production-shaped task instances: large enough that Table III feature
    # extraction (the per-request work) has real cost.
    datasets = [
        make_gaussian_clusters(
            f"traffic-{i}", n_records=2000, n_numeric=14, n_categorical=6,
            n_classes=2 + (i % 3), random_state=9000 + i,
        )
        for i in range(N_DISTINCT_DATASETS)
    ]
    # The request stream cycles over the distinct datasets, like production
    # traffic where the same task instances recur.
    requests = [datasets[i % N_DISTINCT_DATASETS] for i in range(N_REQUESTS)]

    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(_servable_model(), "bench")

    automodel = registry.resolve("bench").model

    def single_call_path():
        """Status quo ante: blocking per-request calls, no caching."""
        with feature_cache.disabled():
            start = time.monotonic()
            answers = [automodel.select_algorithm(dataset) for dataset in requests]
            return answers, time.monotonic() - start

    def batched_path():
        """The serving subsystem: concurrent clients, micro-batched dispatch."""
        feature_cache.clear()
        with RecommendationDispatcher(
            registry,
            max_batch_size=32,
            suggest_configs=False,  # symmetric with the baseline (no config lookup)
        ) as dispatcher:
            start = time.monotonic()
            with ThreadPoolExecutor(max_workers=N_CLIENT_THREADS) as pool:
                recommendations = list(
                    pool.map(
                        lambda d: dispatcher.recommend(d, model="bench", timeout=120),
                        requests,
                    )
                )
            elapsed = time.monotonic() - start
            return recommendations, elapsed, dispatcher.stats

    def run():
        return single_call_path(), batched_path()

    (baseline_answers, baseline_s), (recs, batched_s, stats) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Identical answers on every request.
    assert [rec.algorithm for rec in recs] == baseline_answers

    speedup = baseline_s / max(batched_s, 1e-9)
    rows = [
        {
            "path": "single-call (no cache)",
            "seconds": baseline_s,
            "req/s": N_REQUESTS / max(baseline_s, 1e-9),
            "forward passes": N_REQUESTS,
        },
        {
            "path": "batched dispatcher",
            "seconds": batched_s,
            "req/s": N_REQUESTS / max(batched_s, 1e-9),
            "forward passes": stats.forward_passes,
        },
    ]
    print()
    print(
        format_table(
            rows,
            ["path", "seconds", "req/s", "forward passes"],
            title=f"Serving throughput — {N_REQUESTS} requests over "
            f"{N_DISTINCT_DATASETS} datasets, {N_CLIENT_THREADS} clients "
            f"(speedup {speedup:.1f}x)",
            float_format="{:.4f}",
        )
    )

    # Micro-batching really happened, and the acceptance floor holds.
    assert stats.forward_passes < N_REQUESTS
    assert stats.largest_batch >= 2
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched dispatch only {speedup:.2f}x faster than single-call "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
