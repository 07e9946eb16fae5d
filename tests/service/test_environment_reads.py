"""With tracing off, the hot paths read no environment variable.

``repro.obs`` reads its configuration once, at import, and keeps the tracer
in module state.  An engine trial and a recommendation through the
dispatcher must therefore not touch ``os.environ`` at all while tracing is
disabled.  Counting those reads checks the disabled path's cost
deterministically, where timing it depends on how busy the machine is.
"""

import os
from collections.abc import MutableMapping

import pytest

import repro.obs as obs
from repro.datasets import make_gaussian_clusters
from repro.execution import EvaluationEngine
from repro.service import RecommendationDispatcher


class CountingEnviron(MutableMapping):
    """Stands in for ``os.environ`` and counts every read of a variable."""

    def __init__(self, environ) -> None:
        self._environ = environ
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self._environ[key]

    def __setitem__(self, key, value) -> None:
        self._environ[key] = value

    def __delitem__(self, key) -> None:
        del self._environ[key]

    def __iter__(self):
        self.reads += 1
        return iter(self._environ)

    def __len__(self) -> int:
        return len(self._environ)


@pytest.fixture
def environ(monkeypatch) -> CountingEnviron:
    obs.disable()
    counting = CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", counting)
    return counting


def test_disabled_engine_trials_read_no_environment(environ):
    engine = EvaluationEngine(lambda config: float(config["x"]), backend="serial")
    engine.evaluate({"x": 0})
    environ.reads = 0
    engine.evaluate({"x": 1})
    engine.evaluate_many([{"x": 2}, {"x": 3}, {"x": 2}])
    assert environ.reads == 0
    assert engine.stats.n_executions == 4


@pytest.mark.parametrize("batching", [False, True], ids=["inline", "batched"])
def test_disabled_recommend_reads_no_environment(
    environ, registry, clf_model, clf_dataset, batching
):
    registry.publish(clf_model, "clf")
    first_seen = make_gaussian_clusters(
        "first-seen", n_records=60, n_numeric=3, n_categorical=2, n_classes=3,
        random_state=5,
    )
    with RecommendationDispatcher(registry, batching=batching) as dispatcher:
        dispatcher.recommend(clf_dataset, model="clf")  # loads the model
        environ.reads = 0
        recommendation = dispatcher.recommend(first_seen, model="clf")
        reads = environ.reads
    assert recommendation.algorithm == "J48"
    assert reads == 0
