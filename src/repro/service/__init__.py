"""Recommendation-serving subsystem.

The offline half of Auto-Model trains decision models; this package puts
them behind a production-style serving surface with four layers:

* :mod:`repro.service.registry` — :class:`ModelRegistry`: versioned,
  hot-swappable storage of saved decision models (atomic promote/rollback,
  LRU of deserialized models).
* :mod:`repro.service.dispatcher` — :class:`RecommendationDispatcher`:
  concurrent ``recommend`` requests, micro-batched into single
  decision-model forward passes, with fingerprint-keyed meta-feature
  caching and tuned-config serving.
* :mod:`repro.service.jobs` — :class:`FitJobQueue`: async fit/refine work
  on background workers (through the shared evaluation engine + result
  store) so serving never blocks on training.
* :mod:`repro.service.http` — :class:`RecommendationService` and the
  stdlib HTTP/JSON server (``python -m repro.service serve``).

Scale-out and observability ride on top:

* :mod:`repro.service.pool` — :class:`ServicePool`: pre-forked worker
  processes sharing one listening address (``SO_REUSEPORT`` or
  fork-after-bind), supervised with crash respawn
  (``python -m repro.service serve --workers N``).
* :mod:`repro.service.metrics` — :class:`ServiceMetrics` behind
  ``GET /metrics``: per-endpoint counters, latency quantiles, QPS,
  with file-based cross-worker aggregation.
* :mod:`repro.service.loadgen` — :class:`LoadGenerator`: a stdlib load
  harness for throughput/latency measurement against a running server.
* :mod:`repro.service.store_server` — :class:`StoreService`: the shared
  :class:`~repro.execution.store.ResultStore` served over HTTP for
  cross-host fleet writers (``python -m repro.service store-serve``).
"""

from .dispatcher import (
    DispatcherOverloaded,
    DispatcherStats,
    Recommendation,
    RecommendationDispatcher,
)
from .http import (
    RecommendationService,
    ServiceError,
    dataset_from_json,
    make_http_server,
    route_label,
    serve_in_thread,
)
from .jobs import FitJobQueue
from .loadgen import LoadGenerator, LoadOp, LoadReport
from .metrics import (
    LatencyReservoir,
    MetricsDirectory,
    ServiceMetrics,
    aggregate_worker_payloads,
)
from .pool import ServicePool, reuse_port_supported
from .registry import ModelRegistry, ServableModel, default_registry_root
from .store_server import (
    StoreService,
    make_store_server,
    serve_store_in_thread,
    store_route_label,
)

__all__ = [
    "ModelRegistry",
    "ServableModel",
    "default_registry_root",
    "Recommendation",
    "RecommendationDispatcher",
    "DispatcherOverloaded",
    "DispatcherStats",
    "FitJobQueue",
    "RecommendationService",
    "ServiceError",
    "dataset_from_json",
    "make_http_server",
    "route_label",
    "serve_in_thread",
    "ServicePool",
    "reuse_port_supported",
    "ServiceMetrics",
    "LatencyReservoir",
    "MetricsDirectory",
    "aggregate_worker_payloads",
    "LoadGenerator",
    "LoadOp",
    "LoadReport",
    "StoreService",
    "make_store_server",
    "serve_store_in_thread",
    "store_route_label",
]
