"""Store-server route tests: payloads, validation, admission, CLI boot.

The store server is the network edge of the distributed knowledge loop, so
its wire contract gets the same treatment as the recommendation service:
every route exercised over a real socket, every 4xx path pinned, saturation
returning ``429 + Retry-After``, and the ``store-serve`` CLI booted as a
subprocess and spoken to through a ``ResultStore("http://...")`` client.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.execution import ResultStore
from repro.service import StoreService, serve_store_in_thread
from repro.service.store_server import store_route_label

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as resp:
        return json.loads(resp.read())


def _post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return json.loads(resp.read())


def _post_error(port: int, path: str, data: bytes) -> urllib.error.HTTPError:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    return excinfo.value


@pytest.fixture()
def served_store(tmp_path):
    store = ResultStore(tmp_path / "authority", backend="sqlite")
    store.put_key("ctx", "k1", 0.5, {"algorithm": "J48"})
    store.put_key("ctx", "k2", float("nan"))
    server, _thread = serve_store_in_thread(StoreService(store))
    port = server.server_address[1]
    yield store, port
    server.shutdown()
    server.server_close()
    store.close()


class TestRoutes:
    def test_healthz(self, served_store):
        _store, port = served_store
        health = _get(port, "/healthz")
        assert health["status"] == "ok"
        assert health["store"]["backend"] == "sqlite"
        assert health["uptime_seconds"] >= 0

    def test_contexts(self, served_store):
        _store, port = served_store
        assert _get(port, "/store/contexts") == {"contexts": ["ctx"]}

    def test_image_scores_travel_as_repr(self, served_store):
        _store, port = served_store
        image = _post(port, "/store/image", {"context": "ctx"})
        assert image["scores"]["k1"] == "0.5"
        assert image["scores"]["k2"] == "nan"  # strict JSON can't carry NaN
        assert image["configs"]["k1"] == {"algorithm": "J48"}
        assert image["configs"]["k2"] is None

    def test_image_of_unknown_context_is_empty(self, served_store):
        _store, port = served_store
        image = _post(port, "/store/image", {"context": "nope"})
        assert image["scores"] == {} and image["configs"] == {}

    def test_put_lands_in_the_authority(self, served_store):
        store, port = served_store
        out = _post(
            port, "/store/put",
            {"context": "ctx", "key": "k3", "score": "0.75", "config": {"x": 1}},
        )
        assert out["appended"] is True
        assert store.get_key("ctx", "k3") == 0.75
        # Idempotence crosses the wire too.
        again = _post(
            port, "/store/put", {"context": "ctx", "key": "k3", "score": "0.75"}
        )
        assert again["appended"] is False

    def test_compact(self, served_store):
        _store, port = served_store
        out = _post(port, "/store/compact", {"context": "ctx"})
        assert out["reclaimed"] >= 0
        assert _post(port, "/store/compact", {})["context"] is None

    def test_metrics_count_store_routes(self, served_store):
        _store, port = served_store
        _get(port, "/healthz")
        _post(port, "/store/image", {"context": "ctx"})
        metrics = _get(port, "/metrics")
        assert "POST /store/image" in metrics["http"]["endpoints"]
        assert metrics["http"]["n_requests"] >= 2

    def test_accepted_sockets_disable_nagle(self, served_store, monkeypatch):
        """Headers and body leave in two writes; TCP_NODELAY keeps a busy
        keep-alive client's delayed ACK from stalling the second.  Checks the
        socket option, not a timing."""
        import socket

        from repro.service.store_server import _StoreHandler

        nodelay = []
        setup = _StoreHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_StoreHandler, "setup", recording_setup)
        _store, port = served_store
        assert _get(port, "/healthz")["status"] == "ok"
        assert nodelay == [1]

    def test_request_is_counted_before_its_response_is_sent(self, served_store, monkeypatch):
        """A response the client holds must already show in /metrics."""
        from repro.service.store_server import _StoreHandler

        counts = []

        def count(handler):
            counts.append(handler.server.service.metrics.snapshot()["n_requests"])

        setup, end_headers = _StoreHandler.setup, _StoreHandler.end_headers
        monkeypatch.setattr(_StoreHandler, "setup", lambda h: (setup(h), count(h)))
        monkeypatch.setattr(_StoreHandler, "end_headers", lambda h: (count(h), end_headers(h)))
        _store, port = served_store
        assert _get(port, "/healthz")["status"] == "ok"
        at_accept, at_headers = counts
        assert at_headers == at_accept + 1

    def test_unknown_paths_404(self, served_store):
        _store, port = served_store
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(port, "/store/everything")
        assert excinfo.value.code == 404
        assert _post_error(port, "/store/everything", b"{}").code == 404

    def test_route_label_bounds_cardinality(self):
        assert store_route_label("/store/put?x=1") == "/store/put"
        assert store_route_label("/store/anything-else") == "(unknown)"


class TestValidation:
    def test_image_needs_string_context(self, served_store):
        _store, port = served_store
        error = _post_error(port, "/store/image", json.dumps({"context": 7}).encode())
        assert error.code == 400

    def test_put_needs_key_and_score(self, served_store):
        _store, port = served_store
        base = {"context": "ctx"}
        for bad in (
            base,  # no key
            {**base, "key": ""},  # empty key
            {**base, "key": "k", "score": "not-a-float"},
            {**base, "key": "k", "score": None},
            {**base, "key": "k", "score": "1.0", "config": "not-an-object"},
        ):
            error = _post_error(port, "/store/put", json.dumps(bad).encode())
            assert error.code == 400, bad

    def test_invalid_json_body_400(self, served_store):
        _store, port = served_store
        assert _post_error(port, "/store/image", b"{not json").code == 400


class TestAdmission:
    def test_saturated_server_returns_429_with_retry_after(self, tmp_path):
        store = ResultStore(tmp_path / "authority", backend="sqlite")
        service = StoreService(store, max_inflight=1)
        server, _thread = serve_store_in_thread(service)
        port = server.server_address[1]
        release = threading.Event()
        entered = threading.Event()
        original = service.contexts_payload

        def stalled():
            entered.set()
            release.wait(timeout=30)
            return original()

        service.contexts_payload = stalled
        try:
            blocker = threading.Thread(
                target=lambda: _get(port, "/store/contexts"), daemon=True
            )
            blocker.start()
            assert entered.wait(timeout=30)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/store/contexts")
            assert excinfo.value.code == 429
            assert float(excinfo.value.headers["Retry-After"]) >= 0
        finally:
            release.set()
            blocker.join(timeout=30)
            server.shutdown()
            server.server_close()
            store.close()


class TestStoreServeCLI:
    def test_boot_and_round_trip_through_http_backend(self, tmp_path):
        root = tmp_path / "authority"
        seed = ResultStore(root, backend="sqlite")
        seed.put_key("cli-ctx", "k1", 0.25, {"algorithm": "OneR"})
        seed.close()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "store-serve",
                "--root", str(root), "--backend", "sqlite", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
        )
        try:
            line = proc.stdout.readline()
            assert "repro-store listening on http://" in line, line
            url = line.split("listening on ", 1)[1].split()[0]

            client = ResultStore(url)
            assert client.describe()["backend"] == "http"
            assert client.get_key("cli-ctx", "k1") == 0.25
            assert client.put_key("cli-ctx", "k2", 0.9, {"algorithm": "ZeroR"})
            assert client.top_k("cli-ctx", 1)[0][1] == 0.9

            # A second, independent client sees the first client's write.
            other = ResultStore(url)
            assert other.get_key("cli-ctx", "k2") == 0.9
            assert proc.poll() is None  # still serving
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait(timeout=10)
