"""HTTP front end for a shared :class:`~repro.execution.store.ResultStore`.

The distributed knowledge loop needs writers on *other hosts*: fleet workers
coordinated by a :class:`~repro.execution.coordinator.WorkCoordinator` whose
only shared substrate is the network.  This module serves one authoritative
``ResultStore`` (over its JSONL or sqlite backend) on the same stdlib HTTP
stack as the recommendation service — per-route :class:`ServiceMetrics`,
semaphore admission control with ``429 + Retry-After``, threaded connections
— and :class:`~repro.execution.store_backends.HttpStoreBackend` is its
client: any ``ResultStore("http://host:port")`` on any machine reads and
writes this one.

========  ====================  ===================================================
Method    Path                  Meaning
========  ====================  ===================================================
GET       ``/healthz``          liveness + store stats + backend identity
GET       ``/metrics``          per-route counters and latency quantiles
GET       ``/store/contexts``   every context in the store
POST      ``/store/image``      ``{"context"}`` → full score/config image
POST      ``/store/put``        ``{"context","key","score","config"?}`` — one record
POST      ``/store/compact``    ``{"context"?}`` → lines reclaimed
========  ====================  ===================================================

Scores travel as ``repr`` strings in both directions (strict JSON has no
NaN/Infinity literals; ``float(repr(x))`` round-trips every IEEE double).
Writers serialise in the server's store lock, so N remote processes get the
same zero-lost-write guarantee as N local threads.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .. import obs
from ..execution.store import ResultStore
from .http import ServiceError
from .metrics import ServiceMetrics

__all__ = [
    "StoreService",
    "StoreServer",
    "make_store_server",
    "serve_store_in_thread",
    "store_route_label",
]


def store_route_label(path: str) -> str:
    """Collapse a request path into a bounded metrics label."""
    path = path.partition("?")[0]
    known = {"/healthz", "/metrics", "/store/contexts", "/store/image",
             "/store/put", "/store/compact"}
    return path if path in known else "(unknown)"


class StoreService:
    """The store, its metrics and its admission gate behind one server.

    ``max_inflight`` bounds concurrently-admitted requests; excess callers
    get ``429`` with a ``Retry-After`` hint instead of queueing unboundedly
    on the store lock — same overload contract as the recommendation
    service.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        max_inflight: int | None = None,
        worker_id: int | str | None = None,
    ) -> None:
        self.store = store
        self.metrics = ServiceMetrics(worker_id=worker_id)
        self._gate = (
            threading.BoundedSemaphore(int(max_inflight))
            if max_inflight is not None and int(max_inflight) > 0
            else None
        )
        self.started_at = time.time()

    def close(self) -> None:
        self.store.close()

    # -- admission ---------------------------------------------------------------------
    def admit(self):
        """Context manager admitting one request (raises 429 when saturated)."""
        return _Admission(self._gate)

    # -- endpoint payloads ---------------------------------------------------------------
    def healthz_payload(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "store": self.store.describe(),
            "stats": self.store.stats.as_dict(),
        }

    def metrics_payload(self) -> dict:
        return {
            "http": self.metrics.snapshot(),
            "store": self.store.stats.as_dict(),
        }

    def contexts_payload(self) -> dict:
        return {"contexts": self.store.contexts()}

    @staticmethod
    def _context_of(body: Any) -> str:
        if not isinstance(body, dict) or not isinstance(body.get("context"), str):
            raise ServiceError(400, "request needs a string 'context'")
        return body["context"]

    def image_payload(self, body: Any) -> dict:
        context = self._context_of(body)
        # Refresh first: the authoritative store may share its backend with
        # local writers (a sqlite fleet member on the serving host).
        self.store.refresh(context)
        scores, configs, live_lines = self.store.image(context)
        return {
            "context": context,
            "scores": {key: repr(score) for key, score in scores.items()},
            "configs": configs,
            "live_lines": live_lines,
        }

    def put_payload(self, body: Any) -> dict:
        context = self._context_of(body)
        key = body.get("key")
        if not isinstance(key, str) or not key:
            raise ServiceError(400, "put needs a non-empty string 'key'")
        try:
            score = float(body.get("score"))
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, f"invalid score {body.get('score')!r}") from exc
        config = body.get("config")
        if config is not None and not isinstance(config, dict):
            raise ServiceError(400, "'config' must be an object or null")
        appended = self.store.put_key(context, key, score, config)
        return {"context": context, "key": key, "appended": appended}

    def compact_payload(self, body: Any) -> dict:
        context = None
        if isinstance(body, dict) and body.get("context") is not None:
            context = self._context_of(body)
        reclaimed = self.store.compact(context)
        return {"context": context, "reclaimed": reclaimed}


class _Admission:
    """Non-blocking semaphore acquisition as a context manager."""

    def __init__(self, gate: threading.BoundedSemaphore | None) -> None:
        self._gate = gate
        self._held = False

    def __enter__(self) -> "_Admission":
        if self._gate is not None:
            self._held = self._gate.acquire(blocking=False)
            if not self._held:
                raise ServiceError(
                    429, "store server saturated; retry shortly", retry_after=0.05
                )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._held:
            self._gate.release()
            self._held = False


# The HTTP plumbing mirrors service.http deliberately (same handler shape,
# same JSON error contract) but stays a separate, tiny handler: the store
# routes carry no registry/dispatcher state and must not grow any.
class StoreServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its :class:`StoreService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, service: StoreService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, handler)


class _StoreHandler(BaseHTTPRequestHandler):
    server: StoreServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without TCP_NODELAY a keep-alive
    # client's delayed ACK stalls the second one.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 — stdlib signature
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(
        self, status: int, payload: dict, retry_after: float | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        # Counted before any byte leaves: with TCP_NODELAY the client can
        # hold the whole response before this thread runs again, and a
        # response it holds must already show in /metrics.
        elapsed = time.monotonic() - getattr(self, "_started", time.monotonic())
        self.server.service.metrics.observe(
            self.command, store_route_label(self.path), status, elapsed
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(retry_after, 0.0):.3f}")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}") from exc

    def _dispatch(self, fn) -> None:
        service = self.server.service
        with obs.attach_header(self.headers.get(obs.TRACE_HEADER)):
            with obs.span(
                "store.request",
                attrs={
                    "route": store_route_label(self.path),
                    "method": self.command,
                },
            ):
                try:
                    with service.admit():
                        payload = fn()
                except ServiceError as exc:
                    self._send_json(
                        exc.status, {"error": str(exc)}, retry_after=exc.retry_after
                    )
                except Exception as exc:  # noqa: BLE001 — one request never kills the server
                    obs.error_event("store_server.dispatch", exc)
                    self._send_json(500, {"error": f"internal error: {exc}"})
                else:
                    self._send_json(200, payload)

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._started = time.monotonic()
        service = self.server.service
        path = self.path.partition("?")[0]
        if path == "/healthz":
            self._dispatch(service.healthz_payload)
        elif path == "/metrics":
            self._dispatch(service.metrics_payload)
        elif path == "/store/contexts":
            self._dispatch(service.contexts_payload)
        else:
            self._send_json(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._started = time.monotonic()
        service = self.server.service
        path = self.path.partition("?")[0]
        routes = {
            "/store/image": service.image_payload,
            "/store/put": service.put_payload,
            "/store/compact": service.compact_payload,
        }
        handler = routes.get(path)
        if handler is None:
            self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        self._dispatch(lambda: handler(self._read_body()))


def make_store_server(
    service: StoreService | ResultStore,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> StoreServer:
    """Bind the store front end (``port=0`` picks an ephemeral port)."""
    if isinstance(service, ResultStore):
        service = StoreService(service)
    return StoreServer((host, port), _StoreHandler, service, quiet=quiet)


def serve_store_in_thread(
    service: StoreService | ResultStore, host: str = "127.0.0.1", port: int = 0
) -> tuple[StoreServer, threading.Thread]:
    """Convenience for tests/examples: serve on a daemon thread, return both."""
    server = make_store_server(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
