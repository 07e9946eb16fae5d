"""Stdlib HTTP/JSON front end over the serving subsystem.

:class:`RecommendationService` composes the three lower tiers — a
:class:`~repro.service.registry.ModelRegistry`, a
:class:`~repro.service.dispatcher.RecommendationDispatcher` and a
:class:`~repro.service.jobs.FitJobQueue` — and exposes them over plain
``http.server`` (no third-party web framework):

========  =====================  ==================================================
Method    Path                   Meaning
========  =====================  ==================================================
GET       ``/healthz``           liveness + registry/dispatcher/job counters
GET       ``/metrics``           per-endpoint counters, latency quantiles, QPS,
                                 batch-size histogram, cache hit rates (pool
                                 deployments answer with the all-worker aggregate)
GET       ``/models``            registry listing (names, versions, tasks, labels)
GET       ``/models/<n>/export`` compile ``<n>``'s decision model to artifacts
                                 (``?version=`` pins one; default: current)
POST      ``/models/promote``    ``{"name", "version"}`` — atomic hot-swap
POST      ``/models/rollback``   ``{"name"}`` — flip back to the previous version
POST      ``/recommend``         ``{"dataset": {...}, "model"?, "version"?}``
GET       ``/jobs``              job table (``?status=queued|running|done|failed``)
GET       ``/jobs/<id>``         one job
POST      ``/jobs``              ``{"kind": "refine"|"fit", ...}`` — async work
========  =====================  ==================================================

Overload behaviour: when the dispatcher's admission control sheds a request
(bounded pending queue), ``/recommend`` answers ``429`` with a ``Retry-After``
header; a request that waited out its dispatcher timeout answers ``503``.
Handlers speak HTTP/1.1 with explicit ``Content-Length`` on every response,
so client connections are kept alive across requests.

Datasets travel as JSON: ``{"name", "task"?, "numeric"?: [[...]],
"categorical"?: [[...]], "target": [...]}``; missing numeric cells are sent
as ``null`` and become NaN (pipeline-serving models impute them).  Fit jobs
accept ``"pipelines": true`` to train over the pipeline-wrapped catalogue.
The server is a ``ThreadingHTTPServer``: each connection gets a thread, and
concurrent ``/recommend`` bodies meet in the dispatcher's micro-batches.  Its
request path (:class:`JsonHandler`) also serves the store server
(:mod:`repro.service.store_server`).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

import numpy as np

from .. import obs
from ..core.dmd import DecisionMakingModelDesigner
from ..datasets.dataset import Dataset
from ..datasets.task import resolve_task
from ..learners.regression_registry import registry_for_task
from .dispatcher import DispatcherOverloaded, RecommendationDispatcher
from .jobs import FitJobQueue
from .metrics import MetricsDirectory, ServiceMetrics, aggregate_worker_payloads
from .registry import ModelRegistry

__all__ = [
    "ServiceError",
    "dataset_from_json",
    "route_label",
    "RecommendationService",
    "JsonHandler",
    "ServiceServer",
    "make_http_server",
    "serve_in_thread",
]


class ServiceError(Exception):
    """A request error carrying its HTTP status code.

    ``retry_after`` (seconds) is surfaced as a ``Retry-After`` header so
    well-behaved clients back off instead of hammering an overloaded server.
    """

    def __init__(self, status: int, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def route_label(path: str) -> str:
    """Collapse a request path into a bounded metrics label.

    Dynamic segments (job ids) are folded into a placeholder so the metrics
    table cannot grow one entry per job; unknown paths share one label.
    """
    path = path.partition("?")[0]
    if path.startswith("/jobs/"):
        return "/jobs/{id}"
    if path.startswith("/trace/"):
        return "/trace/{id}"
    if path.startswith("/models/") and path.endswith("/export"):
        return "/models/{name}/export"
    known = {
        "/healthz", "/metrics", "/models", "/models/promote",
        "/models/rollback", "/recommend", "/jobs",
    }
    return path if path in known else "(unknown)"


def dataset_from_json(payload: Any) -> Dataset:
    """Build a :class:`Dataset` from its JSON wire format (400 on bad input).

    A payload without a ``name`` gets a content-derived one
    (``ds-<fingerprint prefix>``), so anonymous repeat submissions of the
    same data share store contexts (tuned-config serving, refine shards)
    instead of all colliding under one placeholder name.
    """
    if not isinstance(payload, dict):
        raise ServiceError(400, "dataset must be a JSON object")
    name = payload.get("name")
    target = payload.get("target")
    if not isinstance(target, list) or not target:
        raise ServiceError(400, "dataset.target must be a non-empty list")
    n = len(target)
    numeric = payload.get("numeric") or []
    categorical = payload.get("categorical") or []
    try:
        # JSON has no NaN literal; clients send missing numeric cells as
        # null, which the float64 conversion turns into NaN, so messy
        # datasets are first-class on the wire (pipeline-serving models
        # impute them; bare models crash-score honestly).
        numeric_arr = (
            np.asarray(numeric, dtype=np.float64) if numeric else np.zeros((n, 0))
        )
        categorical_arr = (
            np.asarray(categorical, dtype=object)
            if categorical
            else np.zeros((n, 0), dtype=object)
        )
        dataset = Dataset(
            name=str(name) if name is not None else "request",
            numeric=numeric_arr,
            categorical=categorical_arr,
            target=np.asarray(target),
            task=payload.get("task", "classification"),
        )
        if name is None:
            dataset.name = f"ds-{dataset.fingerprint[:12]}"
        return dataset
    except ServiceError:
        raise
    except Exception as exc:  # noqa: BLE001 — surface malformed payloads as 400s
        obs.error_event("http.dataset", exc)
        raise ServiceError(400, f"invalid dataset: {exc}") from exc


class RecommendationService:
    """The composed serving subsystem behind one registry directory."""

    def __init__(
        self,
        registry: ModelRegistry | str | Path,
        batching: bool = True,
        max_batch_size: int = 32,
        fit_workers: int = 1,
        cv: int = 5,
        tuning_max_records: int | None = 400,
        random_state: int | None = 0,
        metric: str | None = None,
        max_queue_depth: int | None = None,
        max_queue_delay_ms: float | None = None,
        worker_id: int | str | None = None,
        metrics_dir: str | Path | None = None,
    ) -> None:
        self.registry = (
            registry if isinstance(registry, ModelRegistry) else ModelRegistry(registry)
        )
        self.dispatcher = RecommendationDispatcher(
            self.registry,
            batching=batching,
            max_batch_size=max_batch_size,
            cv=cv,
            tuning_max_records=tuning_max_records,
            random_state=random_state,
            metric=metric,
            max_queue_depth=max_queue_depth,
            max_queue_delay_ms=max_queue_delay_ms,
        )
        self.fit_jobs = FitJobQueue(self.registry, n_workers=fit_workers)
        self.worker_id = worker_id if worker_id is not None else os.getpid()
        self.metrics = ServiceMetrics(worker_id=self.worker_id)
        # When set, this process is one worker of a pre-forked pool: /metrics
        # answers with the aggregate over every worker's flushed payload.
        self.metrics_store = MetricsDirectory(metrics_dir) if metrics_dir else None
        self.started_at = time.time()

    def close(self) -> None:
        self.flush_metrics()
        self.dispatcher.close()
        self.fit_jobs.shutdown(wait=False)

    # -- endpoint payloads (shared by HTTP handler and in-process callers) ---------------
    def healthz_payload(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "registry": self.registry.stats(),
            "dispatcher": self.dispatcher.stats_snapshot(),
            "jobs": self.fit_jobs.stats(),
        }

    def metrics_payload(self, include_samples: bool = False) -> dict:
        """This process's full metrics payload (one worker's view)."""
        return {
            "http": self.metrics.snapshot(include_samples=include_samples),
            "dispatcher": self.dispatcher.stats_snapshot(),
            "registry": self.registry.stats(),
            "jobs": self.fit_jobs.stats(),
        }

    def flush_metrics(self) -> None:
        """Write this worker's payload into the pool's metrics directory."""
        if self.metrics_store is not None:
            self.metrics_store.write(
                self.worker_id, self.metrics_payload(include_samples=True)
            )

    def metrics_response(self) -> dict:
        """The ``GET /metrics`` body: per-process, or pool-wide aggregate."""
        if self.metrics_store is None:
            own = self.metrics_payload(include_samples=True)
            aggregate = aggregate_worker_payloads([own])
            response = {"scope": "process", **aggregate}
        else:
            self.flush_metrics()
            payloads = self.metrics_store.read_all()
            aggregate = aggregate_worker_payloads(payloads)
            response = {"scope": "pool", **aggregate}
        if obs.enabled():
            # Computed once over the shared journal, *after* aggregation —
            # pool workers share one journal dir, so folding counts into each
            # worker's payload would double-count every event.
            response["events"] = obs.event_counts()
        return response

    def trace_payload(self, trace_id: str) -> dict:
        """The ``GET /trace/<id>`` body: the assembled span tree."""
        from ..obs.report import build_traces, span_tree_payload

        journal = obs.journal_dir()
        if journal is None:
            raise ServiceError(404, "tracing is not configured (no journal)")
        traces = build_traces(obs.read_events(journal))
        tree = traces.get(trace_id)
        if tree is None:
            raise ServiceError(404, f"unknown trace {trace_id!r}")
        return {
            "trace_id": trace_id,
            "coverage": round(tree.coverage(), 4),
            "roots": [span_tree_payload(root) for root in tree.roots],
        }

    def models_payload(self) -> dict:
        return {"models": self.registry.describe()}

    def export_payload(self, name: str, version: str | None = None) -> dict:
        """Compile ``name``'s decision model to on-disk artifacts (tentpole)."""
        try:
            return self.registry.export(name, version)
        except KeyError as exc:
            raise ServiceError(404, str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, str(exc)) from exc

    def recommend_payload(self, body: Any) -> dict:
        if not isinstance(body, dict):
            raise ServiceError(400, "request body must be a JSON object")
        dataset = dataset_from_json(body.get("dataset"))
        try:
            timeout = float(body.get("timeout", 30.0))
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, f"invalid timeout: {body.get('timeout')!r}") from exc
        try:
            recommendation = self.dispatcher.recommend(
                dataset,
                model=body.get("model"),
                version=body.get("version"),
                timeout=timeout,
            )
        except KeyError as exc:
            raise ServiceError(404, str(exc)) from exc
        except DispatcherOverloaded as exc:
            raise ServiceError(429, str(exc), retry_after=exc.retry_after) from exc
        except TimeoutError as exc:
            raise ServiceError(503, str(exc), retry_after=1.0) from exc
        except (ValueError, RuntimeError) as exc:
            raise ServiceError(400, str(exc)) from exc
        return recommendation.as_dict()

    def promote_payload(self, body: Any) -> dict:
        if not isinstance(body, dict) or "name" not in body or "version" not in body:
            raise ServiceError(400, "promote needs {'name', 'version'}")
        try:
            self.registry.promote(str(body["name"]), str(body["version"]))
        except KeyError as exc:
            raise ServiceError(404, str(exc)) from exc
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc
        return {
            "name": body["name"],
            "current_version": self.registry.current_version(str(body["name"])),
        }

    def rollback_payload(self, body: Any) -> dict:
        if not isinstance(body, dict) or "name" not in body:
            raise ServiceError(400, "rollback needs {'name'}")
        try:
            version = self.registry.rollback(str(body["name"]))
        except KeyError as exc:
            raise ServiceError(404, str(exc)) from exc
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc
        return {"name": body["name"], "current_version": version}

    def jobs_payload(self, status: str | None = None) -> dict:
        try:
            records = self.fit_jobs.jobs(status)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc
        return {"jobs": [record.as_dict() for record in records]}

    def job_payload(self, job_id: str) -> dict:
        try:
            return self.fit_jobs.get(job_id).as_dict()
        except KeyError as exc:
            raise ServiceError(404, str(exc)) from exc

    def submit_job_payload(self, body: Any) -> dict:
        if not isinstance(body, dict):
            raise ServiceError(400, "request body must be a JSON object")
        kind = body.get("kind")
        if kind == "refine":
            if "model" not in body:
                raise ServiceError(400, "refine jobs need {'model', 'dataset'}")
            dataset = dataset_from_json(body.get("dataset"))
            job_id = self._submit(
                self.fit_jobs.submit_refine,
                str(body["model"]),
                dataset,
                version=body.get("version"),
                time_limit=body.get("time_limit"),
                max_evaluations=body.get("max_evaluations", 30),
                cv=self.dispatcher.cv,
                tuning_max_records=self.dispatcher.tuning_max_records,
                # Default to the dispatcher's metric so the refined shard is
                # the one /recommend reads; an explicit body metric still
                # wins (its results serve only a matching dispatcher).
                random_state=self.dispatcher.random_state,
                metric=body.get("metric", self.dispatcher.metric),
            )
        elif kind == "fit":
            if "model" not in body or "datasets" not in body:
                raise ServiceError(400, "fit jobs need {'model', 'datasets'}")
            datasets = body.get("datasets")
            if not isinstance(datasets, list) or not datasets:
                raise ServiceError(400, "fit jobs need a non-empty 'datasets' list")
            parsed = [dataset_from_json(entry) for entry in datasets]
            try:
                task = resolve_task(body.get("task") or parsed[0].task).value
            except ValueError as exc:
                raise ServiceError(400, str(exc)) from exc
            dmd_options = body.get("dmd")
            if dmd_options is not None and not isinstance(dmd_options, dict):
                raise ServiceError(400, "'dmd' must be an object of DMD options")
            algorithms = body.get("algorithms")
            algorithm_registry = None
            if algorithms is not None:
                try:
                    algorithm_registry = registry_for_task(task).subset(list(algorithms))
                except (KeyError, ValueError) as exc:
                    raise ServiceError(400, f"invalid algorithms/task: {exc}") from exc
            try:
                dmd = (
                    DecisionMakingModelDesigner(task=task, **dmd_options)
                    if dmd_options
                    else None
                )
            except TypeError as exc:
                raise ServiceError(400, f"invalid dmd options: {exc}") from exc
            job_id = self._submit(
                self.fit_jobs.submit_fit,
                str(body["model"]),
                parsed,
                task=task,
                dmd=dmd,
                algorithm_registry=algorithm_registry,
                promote=bool(body.get("promote", True)),
                cv=int(body.get("cv", 3)),
                max_records=body.get("max_records", 250),
                metric=body.get("metric"),
                pipelines=bool(body.get("pipelines", False)),
            )
        else:
            raise ServiceError(400, f"unknown job kind {kind!r} (use 'fit' or 'refine')")
        return self.fit_jobs.get(job_id).as_dict()

    @staticmethod
    def _submit(submit_fn, *args, **kwargs) -> str:
        """Map submission-time validation errors (bad names, empty dataset
        lists) to 400s; only errors inside the running job become job
        failures."""
        try:
            return submit_fn(*args, **kwargs)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service its handler routes to.

    ``service`` is a :class:`RecommendationService` or a
    :class:`~repro.service.store_server.StoreService`.  ``listen_socket``
    lets a pre-forked worker adopt an already-listening socket (created by
    the pool parent, or bound with ``SO_REUSEPORT``) instead of binding its
    own — the server then only accepts on it.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        handler,
        service: Any,
        quiet: bool = True,
        listen_socket=None,
    ):
        self.service = service
        self.quiet = quiet
        if listen_socket is None:
            super().__init__(address, handler)
        else:
            super().__init__(address, handler, bind_and_activate=False)
            self.socket.close()  # drop the unbound placeholder socket
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()[:2]
            # Skip HTTPServer.server_bind (getfqdn + rebind); record the
            # name/port the way it would have.
            host, port = self.server_address
            self.server_name = host
            self.server_port = port


def _query_value(query: str, name: str) -> str | None:
    """The last ``name=`` value of a raw query string (empty reads ``None``)."""
    value = None
    for part in query.split("&"):
        key, sep, raw = part.partition("=")
        if sep and key == name:
            value = raw or None
    return value


def _json_body(raw: bytes) -> Any:
    """A POST body as JSON (an empty body reads ``{}``; malformed is a 400)."""
    if not raw:
        return {}
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ServiceError(400, f"invalid JSON body: {exc}") from exc


class JsonHandler(BaseHTTPRequestHandler):
    """The JSON-over-HTTP request path of both servers.

    A subclass names its request span and error site, labels paths for
    metrics (``route_label``) and maps ``"<METHOD> <label>"`` to a payload
    method of ``server.service`` in ``routes``: a label's ``{...}`` segment
    is the method's first argument, the named query parameters follow, and a
    POST passes its parsed JSON body last.  Every response is counted in
    ``/metrics`` before it is written; an unknown route answers 404, a
    :class:`ServiceError` its own status, anything else 500.
    """

    server: ServiceServer
    protocol_version = "HTTP/1.1"
    # A response leaves in two writes (headers, then body); with Nagle on, a
    # busy keep-alive connection holds the second one for the client's
    # delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True
    span_name: str
    error_site: str
    routes: dict[str, tuple[str, ...]]

    @staticmethod
    def route_label(path: str) -> str:
        raise NotImplementedError

    def admit(self):
        """The admission gate every routed payload call runs under."""
        return contextlib.nullcontext()

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
            self.command, self.route_label(self.path), status, elapsed
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(retry_after, 0.0):.3f}")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """Consume the request body before anything answers: a kept-alive
        connection's next request must start at its request line, whether
        this one is routed, a 404 or shed by :meth:`admit`.  Without a
        readable ``Content-Length`` there is no telling where that line
        starts, so the request is a 400 that closes the connection."""
        value = self.headers.get("Content-Length") or "0"
        try:
            length = int(value)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ServiceError(400, f"invalid Content-Length {value!r}")
        return self.rfile.read(length) if length else b""

    def _dispatch(self, fn) -> None:
        with obs.attach_header(self.headers.get(obs.TRACE_HEADER)):
            with obs.span(
                self.span_name,
                attrs={"route": self.route_label(self.path), "method": self.command},
            ):
                try:
                    with self.admit():
                        payload = fn()
                except ServiceError as exc:
                    self._send_json(
                        exc.status, {"error": str(exc)}, retry_after=exc.retry_after
                    )
                except Exception as exc:  # noqa: BLE001 — one request never kills the server
                    obs.error_event(self.error_site, exc)
                    self._send_json(500, {"error": f"internal error: {exc}"})
                else:
                    self._send_json(200, payload)

    def _route(self) -> None:
        """Answer one GET or POST from ``routes``."""
        self._started = time.monotonic()
        try:
            raw = self._read_body()
        except ServiceError as exc:
            self._send_json(exc.status, {"error": str(exc)})
            return
        path, _, query = self.path.partition("?")
        label = self.route_label(path)
        route = self.routes.get(f"{self.command} {label}")
        if route is None:
            self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        name, *params = route
        head, brace, tail = label.partition("{")
        args = []
        if brace:  # the path segment the label's {...} placeholder stands for
            args.append(path[len(head):len(path) - len(tail.partition("}")[2])])
        args += [_query_value(query, param) for param in params]
        # Looked up per request, so a payload method patched on the service
        # class is the one that runs.
        payload = getattr(self.server.service, name)
        if self.command == "POST":
            self._dispatch(lambda: payload(*args, _json_body(raw)))
        else:
            self._dispatch(lambda: payload(*args))

    do_GET = do_POST = _route  # noqa: N815 — stdlib naming


class _ServiceHandler(JsonHandler):
    span_name = "service.request"
    error_site = "service.dispatch"
    route_label = staticmethod(route_label)
    routes = {
        "GET /healthz": ("healthz_payload",),
        "GET /metrics": ("metrics_response",),
        "GET /models": ("models_payload",),
        "GET /jobs": ("jobs_payload", "status"),
        "GET /jobs/{id}": ("job_payload",),
        "GET /trace/{id}": ("trace_payload",),
        "GET /models/{name}/export": ("export_payload", "version"),
        "POST /recommend": ("recommend_payload",),
        "POST /models/promote": ("promote_payload",),
        "POST /models/rollback": ("rollback_payload",),
        "POST /jobs": ("submit_job_payload",),
    }


def make_http_server(
    service: RecommendationService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    listen_socket=None,
) -> ServiceServer:
    """Bind the HTTP front end (``port=0`` picks an ephemeral port).

    The caller owns the lifecycle: ``serve_forever()`` (often on a thread),
    then ``shutdown()``/``server_close()`` and ``service.close()``.  Pass
    ``listen_socket`` to serve on an existing listening socket (pre-forked
    workers) instead of binding ``host:port``.
    """
    return ServiceServer(
        (host, port), _ServiceHandler, service, quiet=quiet, listen_socket=listen_socket
    )


def serve_in_thread(
    service: RecommendationService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServiceServer, threading.Thread]:
    """Convenience for tests/examples: serve on a daemon thread, return both."""
    server = make_http_server(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
