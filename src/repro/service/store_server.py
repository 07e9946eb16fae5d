"""HTTP front end for a shared :class:`~repro.execution.store.ResultStore`.

The distributed knowledge loop needs writers on *other hosts*: fleet workers
coordinated by a :class:`~repro.execution.coordinator.WorkCoordinator` whose
only shared substrate is the network.  This module serves one authoritative
``ResultStore`` (over its JSONL or sqlite backend) through the recommendation
service's request path (:class:`~repro.service.http.JsonHandler`) — per-route
:class:`ServiceMetrics`, semaphore admission control with ``429 +
Retry-After``, threaded connections — and
:class:`~repro.execution.store_backends.HttpStoreBackend` is its
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

import threading
import time
from typing import Any

from ..execution.store import ResultStore
from .http import JsonHandler, ServiceError, ServiceServer
from .metrics import ServiceMetrics

__all__ = [
    "StoreService",
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


class _StoreHandler(JsonHandler):
    span_name = "store.request"
    error_site = "store_server.dispatch"
    route_label = staticmethod(store_route_label)
    routes = {
        "GET /healthz": ("healthz_payload",),
        "GET /metrics": ("metrics_payload",),
        "GET /store/contexts": ("contexts_payload",),
        "POST /store/image": ("image_payload",),
        "POST /store/put": ("put_payload",),
        "POST /store/compact": ("compact_payload",),
    }

    def admit(self):
        return self.server.service.admit()


def make_store_server(
    service: StoreService | ResultStore,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceServer:
    """Bind the store front end (``port=0`` picks an ephemeral port)."""
    if isinstance(service, ResultStore):
        service = StoreService(service)
    return ServiceServer((host, port), _StoreHandler, service, quiet=quiet)


def serve_store_in_thread(
    service: StoreService | ResultStore, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServiceServer, threading.Thread]:
    """Convenience for tests/examples: serve on a daemon thread, return both."""
    server = make_store_server(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
