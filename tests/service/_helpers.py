"""Shared helpers for the serving-subsystem tests (importable module).

``constant_automodel`` builds a servable :class:`AutoModel` without any
training: an MLP with zero weights and a biased output layer always ranks a
chosen algorithm first.  That keeps registry/dispatcher/HTTP tests fast and
— crucially for the hot-swap tests — makes every model's behaviour exactly
predictable, so a torn old/new mix is detectable.  ``Blocker`` holds the
serve loop inside a forward pass, for tests that need exact queue states.
"""
from __future__ import annotations

import threading

import numpy as np

from repro.core.architecture_search import DecisionModel
from repro.core.automodel import AutoModel
from repro.datasets import Dataset
from repro.learners.neural import MLPNetwork, MLPRegressor
from repro.metafeatures.extractor import FeatureExtractor

CONSTANT_FEATURES = ["f1", "f2", "f3", "f9", "f18"]


def constant_automodel(
    labels: list[str], best: str, task: str = "classification"
) -> AutoModel:
    """A servable AutoModel whose decision model always ranks ``best`` first.

    The regressor is a real (persistable) MLPRegressor with zeroed weights
    and a one-hot output bias, so the full save/load/serve path is exercised
    while selections stay deterministic.
    """
    n_features = len(CONSTANT_FEATURES)
    regressor = MLPRegressor(
        hidden_layer=1, hidden_layer_size=4, activation="identity", max_iter=1
    )
    network = MLPNetwork(layer_sizes=[4], task="regression", activation="identity")
    network.weights_ = [np.zeros((n_features, 4)), np.zeros((4, len(labels)))]
    bias = np.zeros(len(labels))
    bias[labels.index(best)] = 1.0
    network.biases_ = [np.zeros(4), bias]
    regressor.network_ = network
    regressor.n_outputs_ = len(labels)
    regressor._mean = np.zeros(n_features)
    regressor._scale = np.ones(n_features)
    model = DecisionModel(
        regressor=regressor,
        labels=list(labels),
        extractor=FeatureExtractor(CONSTANT_FEATURES, normalize=False),
        architecture={"hidden_layer": 1, "hidden_layer_size": 4},
    )
    return AutoModel(model=model, task=task)


def dataset_payload(dataset: Dataset) -> dict:
    """The JSON wire format of a dataset (mirrors ``dataset_from_json``)."""
    payload: dict = {
        "name": dataset.name,
        "task": dataset.task.value,
        "target": [
            float(v) if dataset.is_regression else str(v) for v in dataset.target
        ],
    }
    if dataset.n_numeric:
        payload["numeric"] = dataset.numeric.tolist()
    if dataset.n_categorical:
        payload["categorical"] = [
            [str(v) for v in row] for row in dataset.categorical
        ]
    return payload


class Blocker:
    """Patch ``scores_many`` so the first ``n_blocked`` calls wait on a gate.

    The registry's LRU serves every resolve from the same AutoModel
    instance, so the patch reaches the dispatcher's serve thread: while the
    gate is shut the serve loop is provably stuck inside a forward pass, and
    what queues behind it is exact — no sleeps, no timing races.
    """

    def __init__(self, decision_model, n_blocked: int = 1):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self._original = decision_model.scores_many
        self._decision_model = decision_model
        self._remaining = n_blocked
        self._lock = threading.Lock()
        decision_model.scores_many = self._wrapped

    def _wrapped(self, datasets):
        with self._lock:
            blocked = self._remaining > 0
            self._remaining -= 1
        if blocked:
            self.entered.set()
            assert self.gate.wait(timeout=30), "test gate never opened"
        return self._original(datasets)

    def restore(self):
        self.gate.set()
        self._decision_model.scores_many = self._original
