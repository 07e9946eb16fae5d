"""Lock-cheap serving metrics — the observability tier of the subsystem.

Every HTTP response is recorded into a :class:`ServiceMetrics` instance:
per-endpoint request/outcome counters, a bounded latency reservoir per
endpoint (p50/p95/p99 without unbounded memory), and a 60-second ring of
per-second counts for windowed QPS.  The cost per request is one short lock
acquisition and a handful of integer updates, so the recorder can sit on the
hot path of every request without showing up in the latency it measures.

Multi-process aggregation (the pre-forked pool in
:mod:`repro.service.pool`) works through files rather than shared memory:
each worker periodically flushes its full metrics payload — including the
raw latency reservoir samples — into a :class:`MetricsDirectory`, and the
worker that answers ``GET /metrics`` merges every sibling's flushed payload
with :func:`aggregate_worker_payloads`.  Because the reservoirs travel with
the payloads, the aggregate quantiles are computed over the union of
samples, not averaged per worker (averaging percentiles is wrong).

Outcome classes, used consistently across the module:

==============  =====================================================
``n_ok``        2xx/3xx responses
``n_shed``      429 — admission control turned the request away
``n_client``    other 4xx — the caller's mistake
``n_failed``    5xx or transport-level errors (status 0)
==============  =====================================================
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "LatencyReservoir",
    "ServiceMetrics",
    "MetricsDirectory",
    "aggregate_worker_payloads",
    "quantile",
]

QPS_WINDOW_SECONDS = 60


def quantile(samples: list[float], q: float) -> float | None:
    """The ``q``-quantile (0..1) of ``samples`` by linear interpolation.

    An empty sample set has no quantiles: the result is ``None``, never a
    fabricated 0.0 that a dashboard would read as a measured latency.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _quantile_ms(samples: list[float], q: float) -> float | None:
    """A reservoir quantile in rounded milliseconds (``None`` when empty)."""
    value = quantile(samples, q)
    return round(value * 1000.0, 3) if value is not None else None


class LatencyReservoir:
    """Bounded uniform sample of a value stream (Vitter's algorithm R).

    Keeps at most ``size`` values; every value seen so far has equal
    probability of being in the sample, so quantiles computed from it are
    unbiased estimates of the stream's quantiles.  Not thread-safe on its
    own — :class:`ServiceMetrics` serialises access under its lock.
    """

    __slots__ = ("size", "count", "total", "max_value", "_samples", "_rng")

    def __init__(self, size: int = 512, seed: int = 0) -> None:
        self.size = int(size)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if len(self._samples) < self.size:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.size:
                self._samples[slot] = value

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def summary(self, include_samples: bool = False) -> dict:
        out = {
            "count": self.count,
            "mean_ms": round(self.total / self.count * 1000.0, 3) if self.count else None,
            "max_ms": round(self.max_value * 1000.0, 3) if self.count else None,
            "p50_ms": _quantile_ms(self._samples, 0.50),
            "p95_ms": _quantile_ms(self._samples, 0.95),
            "p99_ms": _quantile_ms(self._samples, 0.99),
        }
        if include_samples:
            out["samples_ms"] = [round(s * 1000.0, 3) for s in self._samples]
        return out


class _EndpointRecord:
    __slots__ = ("n_requests", "n_ok", "n_shed", "n_client", "n_failed", "latency")

    def __init__(self, reservoir_size: int, seed: int) -> None:
        self.n_requests = 0
        self.n_ok = 0
        self.n_shed = 0
        self.n_client = 0
        self.n_failed = 0
        self.latency = LatencyReservoir(reservoir_size, seed=seed)


def _classify(status: int) -> str:
    if status == 429:
        return "n_shed"
    if status == 0 or status >= 500:
        return "n_failed"
    if status >= 400:
        return "n_client"
    return "n_ok"


class ServiceMetrics:
    """Per-process request metrics: counters, latency reservoirs, QPS ring."""

    def __init__(
        self,
        worker_id: int | str | None = None,
        reservoir_size: int = 512,
        qps_window: int = QPS_WINDOW_SECONDS,
    ) -> None:
        self.worker_id = worker_id
        self.reservoir_size = int(reservoir_size)
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._endpoints: dict[str, _EndpointRecord] = {}
        self._window = int(qps_window)
        self._ring = [0] * self._window
        self._ring_second = int(time.time())

    # -- recording ---------------------------------------------------------------------
    def observe(self, method: str, route: str, status: int, seconds: float) -> None:
        """Record one finished request (called once per HTTP response)."""
        key = f"{method} {route}"
        outcome = _classify(int(status))
        with self._lock:
            record = self._endpoints.get(key)
            if record is None:
                record = self._endpoints[key] = _EndpointRecord(
                    self.reservoir_size, seed=len(self._endpoints)
                )
            record.n_requests += 1
            setattr(record, outcome, getattr(record, outcome) + 1)
            record.latency.add(max(0.0, float(seconds)))
            now_second = int(time.time())
            self._advance_ring(now_second)
            self._ring[now_second % self._window] += 1

    def _advance_ring(self, now_second: int) -> None:
        """Zero the ring slots for the seconds skipped since the last event."""
        steps = now_second - self._ring_second
        if steps <= 0:
            return
        for offset in range(1, min(steps, self._window) + 1):
            self._ring[(self._ring_second + offset) % self._window] = 0
        self._ring_second = now_second

    # -- reading -----------------------------------------------------------------------
    def snapshot(self, include_samples: bool = False) -> dict:
        """A JSON-safe view of everything recorded so far."""
        now = time.time()
        with self._lock:
            self._advance_ring(int(now))
            window_count = sum(self._ring)
            endpoints = {}
            totals = {"n_requests": 0, "n_ok": 0, "n_shed": 0, "n_client": 0, "n_failed": 0}
            for key, record in sorted(self._endpoints.items()):
                endpoints[key] = {
                    "n_requests": record.n_requests,
                    "n_ok": record.n_ok,
                    "n_shed": record.n_shed,
                    "n_client_errors": record.n_client,
                    "n_failed": record.n_failed,
                    "latency": record.latency.summary(include_samples=include_samples),
                }
                totals["n_requests"] += record.n_requests
                totals["n_ok"] += record.n_ok
                totals["n_shed"] += record.n_shed
                totals["n_client"] += record.n_client
                totals["n_failed"] += record.n_failed
        uptime = max(now - self.started_at, 1e-9)
        return {
            "worker_id": self.worker_id,
            "pid": os.getpid(),
            "started_at": self.started_at,
            "uptime_seconds": round(uptime, 3),
            "n_requests": totals["n_requests"],
            "n_ok": totals["n_ok"],
            "n_shed": totals["n_shed"],
            "n_client_errors": totals["n_client"],
            "n_failed": totals["n_failed"],
            "qps": {
                "lifetime": round(totals["n_requests"] / uptime, 3),
                f"window_{self._window}s": round(window_count / self._window, 3),
            },
            "endpoints": endpoints,
        }


# -- multi-process aggregation -----------------------------------------------------------


class MetricsDirectory:
    """File-based exchange of per-worker metrics payloads.

    Each worker owns ``worker-<id>.json`` (written via a temp file +
    ``os.replace`` so readers never parse a torn write); any worker — or the
    parent pool — reads every file to build the aggregate view.  A worker's
    flusher thread and its ``/metrics`` handler both write, so the temp file
    is per thread: a shared one could be moved away under the other writer.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def write(self, worker_id: int | str, payload: dict) -> None:
        target = self.path / f"worker-{worker_id}.json"
        tmp = target.with_name(
            f"{target.name}.tmp{os.getpid()}-{threading.get_ident()}"
        )
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, target)

    def read_all(self) -> list[dict]:
        payloads = []
        for entry in sorted(self.path.glob("worker-*.json")):
            try:
                payload = json.loads(entry.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # mid-rotation or corrupt: skip, never fail /metrics
            if isinstance(payload, dict):
                payloads.append(payload)
        return payloads


# Keys whose aggregate is the max across workers, not the sum.
_MAX_KEYS = {
    "largest_batch",
    "max_queue_depth_seen",
    "models",
    "cached_models",
    "uptime_seconds",
}
# Keys that are identifiers/config, not additive metrics.
_SKIP_KEYS = {"worker_id", "pid", "started_at", "max_queue_depth", "mean_batch_size"}


def _merge_numeric(payloads: list[dict]) -> dict:
    """Generic recursive merge: numbers sum (or max for _MAX_KEYS), dicts recurse."""
    merged: dict = {}
    for payload in payloads:
        for key, value in payload.items():
            if key in _SKIP_KEYS:
                continue
            if isinstance(value, dict):
                merged[key] = _merge_numeric([merged.get(key, {}), value])
            elif isinstance(value, bool):
                merged.setdefault(key, value)
            elif isinstance(value, (int, float)):
                if key in _MAX_KEYS:
                    merged[key] = max(merged.get(key, value), value)
                else:
                    merged[key] = merged.get(key, 0) + value
            else:
                merged.setdefault(key, value)
    return merged


def _merge_endpoint_latency(summaries: Iterable[dict]) -> dict:
    """Merge latency summaries through their reservoir samples (union quantiles)."""
    samples: list[float] = []
    count = 0
    total_ms = 0.0
    max_ms = 0.0
    for summary in summaries:
        count += summary.get("count", 0)
        total_ms += (summary.get("mean_ms") or 0.0) * summary.get("count", 0)
        max_ms = max(max_ms, summary.get("max_ms") or 0.0)
        samples.extend(summary.get("samples_ms") or [])

    def merged_quantile(q: float) -> float | None:
        value = quantile(samples, q)
        return round(value, 3) if value is not None else None

    return {
        "count": count,
        "mean_ms": round(total_ms / count, 3) if count else None,
        "max_ms": round(max_ms, 3) if count else None,
        "p50_ms": merged_quantile(0.50),
        "p95_ms": merged_quantile(0.95),
        "p99_ms": merged_quantile(0.99),
    }


def _aggregate_http(snapshots: list[dict]) -> dict:
    endpoint_keys: list[str] = []
    for snap in snapshots:
        for key in snap.get("endpoints", {}):
            if key not in endpoint_keys:
                endpoint_keys.append(key)
    endpoints = {}
    for key in sorted(endpoint_keys):
        members = [s["endpoints"][key] for s in snapshots if key in s.get("endpoints", {})]
        merged = _merge_numeric([{k: v for k, v in m.items() if k != "latency"} for m in members])
        merged["latency"] = _merge_endpoint_latency(m.get("latency", {}) for m in members)
        endpoints[key] = merged
    totals = _merge_numeric(
        [{k: v for k, v in s.items() if k not in ("endpoints", "qps")} for s in snapshots]
    )
    uptime = max((s.get("uptime_seconds", 0.0) for s in snapshots), default=0.0)
    window_key = next(
        (k for s in snapshots for k in s.get("qps", {}) if k.startswith("window_")),
        f"window_{QPS_WINDOW_SECONDS}s",
    )
    totals["uptime_seconds"] = uptime
    totals["qps"] = {
        "lifetime": round(totals.get("n_requests", 0) / uptime, 3) if uptime else 0.0,
        window_key: round(
            sum(s.get("qps", {}).get(window_key, 0.0) for s in snapshots), 3
        ),
    }
    totals["endpoints"] = endpoints
    return totals


def aggregate_worker_payloads(payloads: list[dict]) -> dict:
    """Merge full per-worker ``/metrics`` payloads into one pool-wide view.

    Counters sum, gauges in ``_MAX_KEYS`` take the max, latency quantiles are
    recomputed over the union of reservoir samples, and derived ratios (mean
    batch size, feature-cache hit rate) are recomputed from the summed
    numerators/denominators.
    """
    workers = [
        {
            "worker_id": p.get("http", {}).get("worker_id"),
            "pid": p.get("http", {}).get("pid"),
            "n_requests": p.get("http", {}).get("n_requests", 0),
            "started_at": p.get("http", {}).get("started_at"),
        }
        for p in payloads
    ]
    dispatcher = _merge_numeric([p.get("dispatcher", {}) for p in payloads])
    n_batches = dispatcher.get("n_batches", 0)
    dispatcher["mean_batch_size"] = (
        round(dispatcher.get("n_batched_requests", 0) / n_batches, 2) if n_batches else 0.0
    )
    cache = dispatcher.get("feature_cache")
    if cache:
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = round(cache["hits"] / lookups, 4) if lookups else 0.0
    return {
        "workers": workers,
        "http": _aggregate_http([p.get("http", {}) for p in payloads]),
        "dispatcher": dispatcher,
        "registry": _merge_numeric([p.get("registry", {}) for p in payloads]),
        "jobs": _merge_numeric([p.get("jobs", {}) for p in payloads]),
    }
