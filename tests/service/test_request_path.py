"""The request path both HTTP servers share (``repro.service.http.JsonHandler``).

A payload method that raises something other than a ``ServiceError`` must
not take its server down: the caller gets a 500 carrying the message, the
server's own error site records an ``error`` event when tracing is on,
``/metrics`` counts the request as failed, and the next request is served.
The rest of the contract is checked on both servers too: a ``ServiceError``
keeps its status and ``Retry-After``, a method a path has no route for is a
404, POST bodies reach the payload parsed, keep-alive connections outlive
errors, and a server adopts an already-listening socket.  The route table's
argument passing (path segment, query parameters) is checked on the
recommendation service, the one server with such routes.
"""

import http.client
import json
import os
import socket
import threading
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.execution import ResultStore
from repro.service import (
    ModelRegistry,
    RecommendationService,
    StoreService,
    serve_in_thread,
    serve_store_in_thread,
)
from repro.service.http import ServiceError, ServiceServer, _ServiceHandler
from repro.service.store_server import _StoreHandler

# Per server: a GET-only path and a POST route with the payload method behind it.
_ROUTES = {
    "service": {"get": "/healthz", "post": ("/recommend", "recommend_payload")},
    "store": {"get": "/healthz", "post": ("/store/put", "put_payload")},
}


@pytest.fixture(autouse=True)
def _isolated_obs():
    obs.disable()
    yield
    obs.disable()


def _make_service(kind, tmp_path):
    if kind == "service":
        return RecommendationService(ModelRegistry(tmp_path / "reg"))
    return StoreService(ResultStore(tmp_path / "store"))


@pytest.fixture(params=["service", "store"])
def served(request, tmp_path):
    """``(service, port, error site)`` for each of the two servers."""
    service = _make_service(request.param, tmp_path)
    if request.param == "service":
        server, _thread = serve_in_thread(service)
        site = "service.dispatch"
    else:
        server, _thread = serve_store_in_thread(service)
        site = "store_server.dispatch"
    yield service, server.server_address[1], site
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def kind(served):
    """Which of the two servers ``served`` is."""
    return "service" if isinstance(served[0], RecommendationService) else "store"


@pytest.fixture
def service_port(tmp_path):
    """``(service, port)`` of a recommendation server."""
    service = RecommendationService(ModelRegistry(tmp_path / "reg"))
    server, _thread = serve_in_thread(service)
    yield service, server.server_address[1]
    server.shutdown()
    server.server_close()
    service.close()


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _request(conn, method, path, body=None):
    """One request on a kept-alive connection: ``(status, headers, json)``."""
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.headers, json.loads(response.read())


def test_unexpected_payload_error_is_a_contained_500(served, tmp_path, monkeypatch):
    service, port, site = served
    journal = tmp_path / "j"
    obs.configure(journal)

    def explode():
        raise RuntimeError("payload exploded")

    monkeypatch.setattr(service, "healthz_payload", explode)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(port, "/healthz")
    assert excinfo.value.code == 500
    assert json.loads(excinfo.value.read()) == {
        "error": "internal error: payload exploded"
    }

    # Emitted before the response is written, so it is journaled already.
    errors = [
        event for event in obs.read_events(journal)
        if event.get("type") == "error" and event.get("site") == site
    ]
    assert len(errors) == 1
    assert errors[0]["exc_class"] == "RuntimeError"
    assert errors[0]["message"] == "payload exploded"
    assert errors[0]["pid"] == os.getpid()

    status, metrics = _get(port, "/metrics")
    assert status == 200
    assert metrics["http"]["n_failed"] == 1
    assert metrics["http"]["endpoints"]["GET /healthz"]["n_failed"] == 1


def test_service_error_keeps_its_status_and_retry_after(served, kind, monkeypatch):
    service, port, _site = served

    def overloaded(body):
        raise ServiceError(429, "come back later", retry_after=0.25)

    path, name = _ROUTES[kind]["post"]
    monkeypatch.setattr(service, name, overloaded)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        status, headers, body = _request(conn, "POST", path, b"{}")
    finally:
        conn.close()
    assert status == 429
    assert headers["Retry-After"] == "0.250"
    assert body == {"error": "come back later"}
    # A 4xx is the client's doing: counted, but not as a server failure.
    endpoint = service.metrics.snapshot()["endpoints"][f"POST {path}"]
    assert endpoint["n_requests"] == 1
    assert endpoint["n_failed"] == 0


def test_a_method_the_route_table_lacks_is_a_404(served, kind):
    service, port, _site = served
    get_path = _ROUTES[kind]["get"]
    post_path, _name = _ROUTES[kind]["post"]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        assert _request(conn, "POST", get_path, b"{}")[::2] == (
            404, {"error": f"unknown path {get_path!r}"}
        )
        # Same connection: parses only if the 404's body was read off it.
        assert _request(conn, "GET", post_path)[::2] == (
            404, {"error": f"unknown path {post_path!r}"}
        )
    finally:
        conn.close()
    endpoints = service.metrics.snapshot()["endpoints"]
    assert endpoints[f"POST {get_path}"]["n_requests"] == 1
    assert endpoints[f"GET {post_path}"]["n_requests"] == 1


def test_post_bodies_reach_the_payload_parsed(served, kind, monkeypatch):
    service, port, _site = served
    received = []

    def echo(body):
        received.append(body)
        return {"echo": body}

    path, name = _ROUTES[kind]["post"]
    monkeypatch.setattr(service, name, echo)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        sent = {"a": [1, 2.5, None], "b": {"c": "d"}}
        assert _request(conn, "POST", path, json.dumps(sent).encode())[::2] == (
            200, {"echo": sent}
        )
        # No body at all reads as an empty object.
        assert _request(conn, "POST", path)[::2] == (200, {"echo": {}})
    finally:
        conn.close()
    assert received == [sent, {}]


def test_a_500_keeps_the_connection_alive(served, kind, monkeypatch):
    service, port, _site = served
    path = _ROUTES[kind]["get"]
    real = service.healthz_payload
    calls = []

    def fail_once():
        calls.append(None)
        if len(calls) == 1:
            raise KeyError("first call")
        return real()

    monkeypatch.setattr(service, "healthz_payload", fail_once)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        status, headers, body = _request(conn, "GET", path)
        assert status == 500
        assert body == {"error": "internal error: 'first call'"}
        assert headers["Content-Length"] is not None
        sock = conn.sock
        status, _headers, body = _request(conn, "GET", path)
        assert status == 200 and body["status"] == "ok"
        assert conn.sock is sock  # http.client reopens only a closed socket
    finally:
        conn.close()


@pytest.mark.parametrize("kind", ["service", "store"])
def test_a_server_adopts_a_listening_socket(kind, tmp_path):
    """Pre-forked pool workers serve on a socket bound and listening already."""
    handler = _ServiceHandler if kind == "service" else _StoreHandler
    service = _make_service(kind, tmp_path)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    port = sock.getsockname()[1]
    server = ServiceServer(("127.0.0.1", 0), handler, service, listen_socket=sock)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        assert server.socket is sock
        assert server.server_address == ("127.0.0.1", port)
        assert server.server_port == port
        status, body = _get(port, "/healthz")
        assert status == 200 and body["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    assert sock.fileno() == -1  # the server owns the adopted socket


@pytest.mark.parametrize(
    "path, name, args",
    [
        ("/jobs/job-7", "job_payload", ("job-7",)),
        ("/jobs", "jobs_payload", (None,)),
        ("/jobs?status=done", "jobs_payload", ("done",)),
        ("/jobs?status=", "jobs_payload", (None,)),
        ("/models/clf/export", "export_payload", ("clf", None)),
        ("/models/clf/export?version=v2&x=1", "export_payload", ("clf", "v2")),
        ("/trace/abc123", "trace_payload", ("abc123",)),
    ],
)
def test_route_arguments_reach_the_payload(service_port, monkeypatch, path, name, args):
    """A label's ``{...}`` segment comes first, then the named query values."""
    service, port = service_port
    received = []
    monkeypatch.setattr(
        service, name, lambda *call_args: received.append(call_args) or {"ok": True}
    )
    assert _get(port, path) == (200, {"ok": True})
    assert received == [args]


def test_a_shed_post_leaves_the_connection_usable(tmp_path):
    """The admission gate answers 429 before the payload runs; the body is
    read all the same, so the connection's next request parses cleanly."""
    service = StoreService(ResultStore(tmp_path / "store"), max_inflight=1)
    server, _thread = serve_store_in_thread(service)
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=30)
    try:
        put = json.dumps({"context": "c", "key": "k", "score": "0.5"}).encode()
        with service.admit():  # the one admission slot is taken
            status, headers, body = _request(conn, "POST", "/store/put", put)
        assert status == 429
        assert float(headers["Retry-After"]) >= 0
        assert _request(conn, "POST", "/store/put", put)[0] == 200
        assert _request(conn, "GET", "/store/contexts")[::2] == (200, {"contexts": ["c"]})
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        service.close()


def test_an_unreadable_content_length_is_a_400_that_closes(served, kind):
    """Without a body length the next request's start is unknown: the server
    answers 400 and closes the connection instead of guessing."""
    service, port, _site = served
    path, _name = _ROUTES[kind]["post"]
    for value in ("abc", "-1"):
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {value}\r\n\r\n{{}}"
                .encode()
            )
            reply = b""
            while chunk := sock.recv(4096):  # ends when the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": f"invalid Content-Length {value!r}"}
    assert service.metrics.snapshot()["endpoints"][f"POST {path}"]["n_requests"] == 2
