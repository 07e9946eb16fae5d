"""Admission control: bounded queues, 429 + Retry-After, overload recovery.

Determinism comes from blocking the decision model's ``scores_many`` on a
:class:`threading.Event` (the registry's LRU serves every resolve from the
same AutoModel instance, so the patch reaches the serve thread): with the
serve loop provably stuck, the pending queue's occupancy is exact — no
sleeps, no timing races.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    DispatcherOverloaded,
    ModelRegistry,
    RecommendationDispatcher,
    RecommendationService,
    serve_in_thread,
)

from _helpers import Blocker, dataset_payload


@pytest.fixture
def served(registry, clf_model):
    registry.publish(clf_model, "clf")
    return registry


@pytest.fixture
def blocker(served):
    block = Blocker(served.resolve("clf").model.decision_model)
    yield block
    block.restore()


class TestDispatcherAdmission:
    def test_invalid_depth_rejected(self, served):
        with pytest.raises(ValueError, match="max_queue_depth"):
            RecommendationDispatcher(served, max_queue_depth=0)

    def test_unbounded_by_default(self, served, clf_dataset):
        with RecommendationDispatcher(served, batching=False) as dispatcher:
            assert dispatcher.max_queue_depth is None
            for _ in range(5):
                dispatcher.recommend(clf_dataset, model="clf")
            assert dispatcher.stats.n_shed == 0

    def test_overflow_shed_immediately_with_retry_after(
        self, served, blocker, clf_dataset
    ):
        with RecommendationDispatcher(
            served, max_queue_depth=1
        ) as dispatcher:
            first_result = {}

            def first_request():
                first_result["rec"] = dispatcher.recommend(
                    clf_dataset, model="clf", timeout=30
                )

            thread = threading.Thread(target=first_request)
            thread.start()
            assert blocker.entered.wait(timeout=10)  # serve thread is stuck
            assert dispatcher.queue_depth == 1

            with pytest.raises(DispatcherOverloaded) as excinfo:
                dispatcher.recommend(clf_dataset, model="clf")
            assert 0.05 <= excinfo.value.retry_after <= 5.0
            assert dispatcher.stats.n_shed == 1

            # The queue drains and recovers: the blocked request completes,
            # depth returns to zero, and new requests are admitted again.
            blocker.gate.set()
            thread.join(timeout=10)
            assert first_result["rec"].algorithm == "J48"
            assert dispatcher.queue_depth == 0
            assert dispatcher.recommend(clf_dataset, model="clf").algorithm == "J48"
            assert dispatcher.stats.n_shed == 1  # no further shedding

    def test_inline_mode_also_bounded(self, served, blocker, clf_dataset):
        with RecommendationDispatcher(
            served, batching=False, max_queue_depth=1
        ) as dispatcher:
            thread = threading.Thread(
                target=lambda: dispatcher.recommend(clf_dataset, model="clf")
            )
            thread.start()
            assert blocker.entered.wait(timeout=10)
            with pytest.raises(DispatcherOverloaded):
                dispatcher.recommend(clf_dataset, model="clf")
            blocker.gate.set()
            thread.join(timeout=10)

    def test_stale_requests_shed_by_age(self, served, blocker, clf_dataset):
        with RecommendationDispatcher(
            served, max_queue_depth=8, max_queue_delay_ms=50.0
        ) as dispatcher:
            results, errors = [], []

            def request():
                try:
                    results.append(dispatcher.recommend(clf_dataset, model="clf", timeout=30))
                except Exception as exc:  # noqa: BLE001 — collected for assertions
                    errors.append(exc)

            # First request occupies the serve thread (blocked in the model).
            first = threading.Thread(target=request)
            first.start()
            assert blocker.entered.wait(timeout=10)
            # Second request enqueues behind it and ages past the delay bound
            # while the serve thread is provably stuck.
            second = threading.Thread(target=request)
            second.start()
            time.sleep(0.2)  # > max_queue_delay, serve thread still blocked
            blocker.gate.set()
            first.join(timeout=10)
            second.join(timeout=10)

            assert len(results) == 1 and results[0].algorithm == "J48"
            assert len(errors) == 1 and isinstance(errors[0], DispatcherOverloaded)
            assert "max_queue_delay" in str(errors[0])
            assert dispatcher.stats.n_shed == 1
            assert dispatcher.stats.n_errors == 0  # shed is not an error
            assert dispatcher.queue_depth == 0

    def test_queue_gauges_in_snapshot(self, served, clf_dataset):
        with RecommendationDispatcher(
            served, batching=False, max_queue_depth=4
        ) as dispatcher:
            dispatcher.recommend(clf_dataset, model="clf")
            snap = dispatcher.stats_snapshot()
            assert snap["max_queue_depth"] == 4
            assert snap["queue_depth"] == 0
            assert snap["max_queue_depth_seen"] == 1
            assert snap["batch_size_histogram"] == {"1": 1}


class TestHTTPOverload:
    @pytest.fixture
    def overloaded_service(self, served):
        service = RecommendationService(served, max_queue_depth=1)
        server, _ = serve_in_thread(service)
        yield service, server.server_address[1]
        server.shutdown()
        server.server_close()
        service.close()

    def _post(self, port, path, body, timeout=30):
        """POST ``body``; the status of a 2xx answer (the response is closed),
        while an error status raises ``HTTPError`` for the caller to close."""
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status

    def test_429_with_retry_after_header(
        self, overloaded_service, blocker, clf_dataset
    ):
        service, port = overloaded_service
        body = {"dataset": dataset_payload(clf_dataset), "model": "clf"}

        first_status = []
        first = threading.Thread(
            target=lambda: first_status.append(self._post(port, "/recommend", body))
        )
        first.start()
        assert blocker.entered.wait(timeout=10)

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(port, "/recommend", body)
        with excinfo.value as error:
            assert error.code == 429
            retry_after = error.headers["Retry-After"]
            assert retry_after is not None and float(retry_after) > 0
            assert "overloaded" in json.loads(error.read())["error"]

        blocker.gate.set()
        first.join(timeout=10)
        assert first_status == [200]  # the admitted request was never harmed

        # The shed request is visible in the service's own metrics.
        snap = service.metrics.snapshot()
        assert snap["endpoints"]["POST /recommend"]["n_shed"] == 1
        assert service.dispatcher.stats.n_shed == 1

    @pytest.fixture
    def roomy_service(self, served):
        # Depth 4: a waiting request is ADMITTED (not shed) so its own
        # dispatcher timeout is what expires — the 503 path, not the 429 one.
        service = RecommendationService(served, max_queue_depth=4)
        server, _ = serve_in_thread(service)
        yield service, server.server_address[1]
        server.shutdown()
        server.server_close()
        service.close()

    def test_client_timeout_maps_to_503(self, roomy_service, blocker, clf_dataset):
        service, port = roomy_service
        body = {
            "dataset": dataset_payload(clf_dataset),
            "model": "clf",
            "timeout": 0.05,
        }
        # Occupy the serve thread so the request's dispatcher wait expires.
        occupier_status = []
        occupier = threading.Thread(
            target=lambda: occupier_status.append(
                self._post(
                    port, "/recommend",
                    {"dataset": dataset_payload(clf_dataset), "model": "clf"},
                )
            )
        )
        occupier.start()
        assert blocker.entered.wait(timeout=10)

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(port, "/recommend", body)
        with excinfo.value as error:
            assert error.code == 503
            assert error.headers["Retry-After"] is not None

        blocker.gate.set()
        occupier.join(timeout=10)
        assert occupier_status == [200]
