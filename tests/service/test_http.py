"""End-to-end HTTP serving: the acceptance path for the serving-subsystem PR.

Two real AutoModels (one classification, one regression — trained with small
budgets) are promoted into one registry and served over actual HTTP sockets:
≥50 concurrent mixed-task requests with correct task routing, a version
hot-swap mid-traffic with zero failed requests, and async refine/fit jobs
whose results become servable without a restart.
"""

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import AutoModel, DecisionMakingModelDesigner
from repro.datasets import make_friedman, make_gaussian_clusters
from repro.service import ModelRegistry, RecommendationService, serve_in_thread

from _helpers import dataset_payload


@pytest.fixture(scope="module")
def fast_dmd_kwargs() -> dict:
    return dict(
        skip_feature_selection=True,
        architecture_population=4,
        architecture_generations=1,
        architecture_max_evaluations=4,
        cv=2,
        random_state=0,
    )


@pytest.fixture(scope="module")
def trained_clf(knowledge_datasets, small_registry, fast_dmd_kwargs) -> AutoModel:
    return AutoModel.fit_from_datasets(
        knowledge_datasets,
        registry=small_registry,
        dmd=DecisionMakingModelDesigner(**fast_dmd_kwargs),
        cv=2,
        max_records=60,
    )


@pytest.fixture(scope="module")
def trained_reg(
    regression_knowledge_datasets, small_regression_registry, fast_dmd_kwargs
) -> AutoModel:
    return AutoModel(task="regression").fit_from_datasets(
        regression_knowledge_datasets,
        registry=small_regression_registry,
        dmd=DecisionMakingModelDesigner(**fast_dmd_kwargs),
        cv=2,
        max_records=60,
    )


@pytest.fixture(scope="module")
def serving(tmp_path_factory, trained_clf, trained_reg):
    """One registry serving both trained models over a live HTTP socket."""
    registry = ModelRegistry(tmp_path_factory.mktemp("serving") / "registry")
    registry.publish(trained_clf, "clf")          # v0001, promoted
    registry.publish(trained_clf, "clf")          # v0002, standby for hot-swap
    registry.publish(trained_reg, "reg")
    service = RecommendationService(registry, max_batch_size=16)
    server, _thread = serve_in_thread(service)
    port = server.server_address[1]
    yield registry, service, port
    server.shutdown()
    server.server_close()
    service.close()


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as resp:
        return json.loads(resp.read())


def _post(port: int, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return json.loads(resp.read())


def _clf_query(i: int):
    return make_gaussian_clusters(
        f"clf-q{i}", n_records=50 + i, n_numeric=4, n_categorical=1, n_classes=2,
        random_state=1000 + i,
    )


def _reg_query(i: int):
    return make_friedman(
        f"reg-q{i}", n_records=50 + i, n_numeric=5, n_categorical=0,
        random_state=2000 + i,
    )


class TestHealthAndListing:
    def test_healthz(self, serving):
        _, _, port = serving
        health = _get(port, "/healthz")
        assert health["status"] == "ok"
        assert health["registry"]["models"] == 2
        assert "dispatcher" in health and "jobs" in health

    def test_models_listing_routes_tasks(self, serving):
        _, _, port = serving
        listing = {m["name"]: m for m in _get(port, "/models")["models"]}
        assert listing["clf"]["task"] == "classification"
        assert listing["reg"]["task"] == "regression"
        assert listing["clf"]["current_version"] == "v0001"
        assert listing["clf"]["versions"] == ["v0001", "v0002"]


class TestConcurrentMixedTraffic:
    def test_fifty_plus_concurrent_mixed_requests(self, serving, trained_clf, trained_reg):
        """≥50 concurrent mixed-task requests, all answered with correct routing."""
        _, _, port = serving
        requests = []
        for i in range(28):
            requests.append(("clf", dataset_payload(_clf_query(i))))
        for i in range(28):
            requests.append(("reg", dataset_payload(_reg_query(i))))

        def hit(entry):
            model, payload = entry
            return model, _post(port, "/recommend", {"dataset": payload, "model": model})

        with ThreadPoolExecutor(max_workers=28) as pool:
            results = list(pool.map(hit, requests))

        assert len(results) == 56
        for model, rec in results:
            assert rec["model"] == model
            if model == "clf":
                assert rec["task"] == "classification"
                assert rec["algorithm"] in trained_clf.registry.names
            else:
                assert rec["task"] == "regression"
                assert rec["algorithm"] in trained_reg.registry.names
            assert rec["ranking"][0] == rec["algorithm"]

    def test_hot_swap_mid_traffic_zero_failures(self, serving):
        """Promote v0002 while traffic is in flight: every request succeeds."""
        registry, _, port = serving
        payloads = [dataset_payload(_clf_query(100 + i)) for i in range(12)]
        failures: list[Exception] = []
        versions: list[str] = []

        def hammer(payload):
            try:
                for _ in range(5):
                    rec = _post(port, "/recommend", {"dataset": payload, "model": "clf"})
                    versions.append(rec["version"])
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        with ThreadPoolExecutor(max_workers=13) as pool:
            futures = [pool.submit(hammer, p) for p in payloads]
            time.sleep(0.05)
            swap = _post(port, "/models/promote", {"name": "clf", "version": "v0002"})
            for future in futures:
                future.result()

        assert not failures
        assert len(versions) == 60
        assert set(versions) <= {"v0001", "v0002"}
        assert swap["current_version"] == "v0002"
        assert "v0002" in set(versions)
        # Leave the fixture as it was found.
        _post(port, "/models/rollback", {"name": "clf"})
        assert registry.current_version("clf") == "v0001"


class TestErrorHandling:
    def _status(self, port, path, body=None) -> tuple[int, dict]:
        try:
            if body is None:
                with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as r:
                    return r.status, json.loads(r.read())
            return 200, _post(port, path, body)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_unknown_path_404(self, serving):
        _, _, port = serving
        status, payload = self._status(port, "/nope")
        assert status == 404 and "error" in payload

    def test_unknown_model_404(self, serving):
        _, _, port = serving
        status, payload = self._status(
            port, "/recommend", {"dataset": dataset_payload(_clf_query(0)), "model": "ghost"}
        )
        assert status == 404 and "ghost" in payload["error"]

    def test_task_mismatch_400(self, serving):
        _, _, port = serving
        status, payload = self._status(
            port, "/recommend", {"dataset": dataset_payload(_reg_query(0)), "model": "clf"}
        )
        assert status == 400 and "serves classification" in payload["error"]

    def test_malformed_dataset_400(self, serving):
        _, _, port = serving
        status, payload = self._status(port, "/recommend", {"dataset": {"target": []}})
        assert status == 400

    def test_invalid_json_body_400(self, serving):
        _, _, port = serving
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/recommend",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_job_kind_400(self, serving):
        _, _, port = serving
        status, payload = self._status(port, "/jobs", {"kind": "bake"})
        assert status == 400 and "bake" in payload["error"]


def _wait_for_job(port: int, job_id: str, timeout: float = 300.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = _get(port, f"/jobs/{job_id}")
        if record["status"] in ("done", "failed"):
            return record
        time.sleep(0.1)
    raise TimeoutError(f"job {job_id} did not finish within {timeout}s")


class TestAsyncJobsOverHTTP:
    def test_refine_job_result_becomes_servable(self, serving):
        """Async refine: once the job is done, /recommend serves the tuned config."""
        _, _, port = serving
        query = dataset_payload(_clf_query(500))
        job = _post(
            port,
            "/jobs",
            {"kind": "refine", "model": "clf", "dataset": query, "max_evaluations": 4},
        )
        assert job["status"] in ("queued", "running")
        record = _wait_for_job(port, job["job_id"])
        assert record["status"] == "done", record["error"]
        rec = _post(port, "/recommend", {"dataset": query, "model": "clf"})
        assert rec["config_source"] == "tuned-store"
        assert rec["algorithm"] == record["result"]["algorithm"]
        assert rec["config"] == record["result"]["config"]
        listing = _get(port, "/jobs?status=done")
        assert record["job_id"] in {r["job_id"] for r in listing["jobs"]}

    def test_fit_job_trains_and_serves_new_model(self, serving, knowledge_datasets):
        """Async fit: a model trained over HTTP is promoted and servable."""
        _, _, port = serving
        job = _post(
            port,
            "/jobs",
            {
                "kind": "fit",
                "model": "clf-http",
                "datasets": [dataset_payload(d) for d in knowledge_datasets[:5]],
                "algorithms": ["J48", "NaiveBayes", "IBk", "ZeroR", "OneR", "DecisionStump"],
                "cv": 2,
                "max_records": 50,
                "dmd": {
                    "skip_feature_selection": True,
                    "architecture_population": 4,
                    "architecture_generations": 1,
                    "architecture_max_evaluations": 4,
                    "cv": 2,
                    "random_state": 0,
                },
            },
        )
        record = _wait_for_job(port, job["job_id"])
        assert record["status"] == "done", record["error"]
        assert record["result"]["promoted"] is True
        rec = _post(
            port,
            "/recommend",
            {"dataset": dataset_payload(_clf_query(600)), "model": "clf-http"},
        )
        assert rec["model"] == "clf-http"
        assert rec["version"] == record["result"]["version"]
        assert rec["algorithm"] in {
            "J48", "NaiveBayes", "IBk", "ZeroR", "OneR", "DecisionStump"
        }


class TestReviewRegressionFixes:
    """HTTP status-code regressions caught in review."""

    def _status(self, port, path, body) -> tuple[int, dict]:
        try:
            return 200, _post(port, path, body)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_invalid_model_name_promote_is_400_not_500(self, serving):
        _, _, port = serving
        status, payload = self._status(
            port, "/models/promote", {"name": "..", "version": "v0001"}
        )
        assert status == 400 and "invalid model name" in payload["error"]
        status, _ = self._status(port, "/models/rollback", {"name": "a b"})
        assert status == 400

    def test_traversal_fit_job_name_rejected_at_submission(self, serving):
        _, _, port = serving
        status, payload = self._status(
            port,
            "/jobs",
            {
                "kind": "fit",
                "model": "..",
                "datasets": [dataset_payload(_clf_query(0))],
            },
        )
        assert status == 400 and "invalid model name" in payload["error"]
        status, payload = self._status(
            port,
            "/jobs",
            {"kind": "refine", "model": "..", "dataset": dataset_payload(_clf_query(0))},
        )
        assert status == 400 and "invalid model name" in payload["error"]

    def test_malformed_timeout_is_400(self, serving):
        _, _, port = serving
        status, payload = self._status(
            port,
            "/recommend",
            {"dataset": dataset_payload(_clf_query(0)), "model": "clf",
             "timeout": None},
        )
        assert status == 400 and "timeout" in payload["error"]

    def test_unknown_task_in_fit_job_is_400(self, serving):
        _, _, port = serving
        status, payload = self._status(
            port,
            "/jobs",
            {
                "kind": "fit",
                "model": "taskcheck",
                "datasets": [dataset_payload(_clf_query(0))],
                "task": "bogus",
            },
        )
        assert status == 400 and "bogus" in payload["error"]

    def test_anonymous_dataset_gets_content_derived_name(self, serving):
        """Same data without a name shares store contexts across submissions."""
        _, _, port = serving
        payload = dataset_payload(_clf_query(700))
        payload.pop("name")
        first = _post(port, "/recommend", {"dataset": payload, "model": "clf"})
        second = _post(port, "/recommend", {"dataset": payload, "model": "clf"})
        assert first["dataset"].startswith("ds-")
        assert first["dataset"] == second["dataset"]
        assert first["fingerprint"] == second["fingerprint"]


class TestKeepAliveAndMetrics:
    def test_http11_keepalive_reuses_one_connection(self, serving):
        """HTTP/1.1 + Content-Length framing: many requests, one socket."""
        import http.client

        _, _, port = serving
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            sock_ids = set()
            for i in range(5):
                conn.request(
                    "POST",
                    "/recommend",
                    body=json.dumps(
                        {"dataset": dataset_payload(_clf_query(i)), "model": "clf"}
                    ).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.version == 11  # server speaks HTTP/1.1
                assert response.getheader("Content-Length") is not None
                body = json.loads(response.read())
                assert response.status == 200 and body["model"] == "clf"
                sock_ids.add(id(conn.sock))
            # http.client only reopens the socket if the server closed it;
            # one id across all requests proves the connection survived.
            assert len(sock_ids) == 1
        finally:
            conn.close()

    def test_error_responses_also_keep_the_connection_alive(self, serving):
        import http.client

        _, _, port = serving
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            sock_before = id(conn.sock)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            assert id(conn.sock) == sock_before
        finally:
            conn.close()

    def test_accepted_sockets_disable_nagle(self, serving, monkeypatch):
        """Headers and body leave in two writes; with Nagle on, a busy
        keep-alive connection holds the second for the client's delayed ACK.
        Checks the socket option, not a timing."""
        import socket

        from repro.service.http import _ServiceHandler

        nodelay = []
        setup = _ServiceHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_ServiceHandler, "setup", recording_setup)
        _, _, port = serving
        assert _get(port, "/healthz")["status"] == "ok"
        assert nodelay == [1]

    def test_request_is_counted_before_its_response_is_sent(self, serving, monkeypatch):
        """A response the client holds must already show in /metrics: with
        TCP_NODELAY the body can arrive before the handler thread runs on."""
        from repro.service.http import _ServiceHandler

        counts = []

        def count(handler):
            counts.append(handler.server.service.metrics.snapshot()["n_requests"])

        setup, end_headers = _ServiceHandler.setup, _ServiceHandler.end_headers
        monkeypatch.setattr(_ServiceHandler, "setup", lambda h: (setup(h), count(h)))
        monkeypatch.setattr(_ServiceHandler, "end_headers", lambda h: (count(h), end_headers(h)))
        _, _, port = serving
        assert _get(port, "/healthz")["status"] == "ok"
        at_accept, at_headers = counts
        assert at_headers == at_accept + 1

    def test_metrics_endpoint_process_scope(self, serving):
        _, service, port = serving
        rec = _post(
            port, "/recommend", {"dataset": dataset_payload(_clf_query(90)), "model": "clf"}
        )
        metrics = _get(port, "/metrics")
        assert metrics["scope"] == "process"
        assert len(metrics["workers"]) == 1
        http_metrics = metrics["http"]
        assert http_metrics["n_requests"] >= 1
        recommend = http_metrics["endpoints"]["POST /recommend"]
        assert recommend["n_ok"] >= 1
        assert recommend["latency"]["count"] >= 1
        assert recommend["latency"]["p99_ms"] >= recommend["latency"]["p50_ms"]
        assert "qps" in http_metrics
        # The lower tiers ride along: dispatcher, registry and job queues.
        assert metrics["dispatcher"]["n_requests"] >= 1
        assert "batch_size_histogram" in metrics["dispatcher"]
        picks = metrics["dispatcher"]["picks"]
        assert picks[rec["algorithm"]] >= 1
        assert sum(picks.values()) <= metrics["dispatcher"]["n_requests"]
        assert metrics["registry"]["models"] >= 1
        assert "n_submitted" in metrics["jobs"]
        # /healthz carries the live queue gauges too.
        health = _get(port, "/healthz")
        assert "queue_depth" in health["dispatcher"]
        assert "max_queue_depth_seen" in health["dispatcher"]
