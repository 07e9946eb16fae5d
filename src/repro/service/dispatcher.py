"""Batched concurrent recommendation dispatcher — the request tier.

Request-time work for one ``recommend`` call is (1) meta-feature extraction,
(2) a decision-model forward pass, (3) a catalogue-constrained argmax and
(4) a configuration suggestion.  The dispatcher makes that path fast under
concurrency:

* **Micro-batching.**  Caller threads enqueue requests and block on an
  event; a single serve thread takes the first queued request plus whatever
  else is already queued (up to ``max_batch_size``), groups the batch by
  ``(model, version)`` snapshot, and runs ONE
  :meth:`~repro.core.architecture_search.DecisionModel.scores_matrix`
  forward pass per group instead of N scalar calls.  It never waits for a
  batch to fill: an idle dispatcher answers a lone request at once, and a
  busy one batches every request that arrived while the previous batch ran.
* **Meta-feature memoization.**  Feature extraction inside the batch goes
  through the process-wide fingerprint-keyed
  :data:`~repro.metafeatures.extractor.feature_cache`, so repeat queries for
  the same data skip Table III entirely.
* **Hot-swap safety.**  Each group resolves its registry snapshot exactly
  once; a promote landing mid-batch affects the next batch, never half of
  the current one.  Every response carries the version that produced it.
* **Tuned-config serving.**  When the resolved model carries a result store
  (async refine jobs write there), the dispatcher serves the best previously
  tuned configuration for ``(algorithm, dataset)``; otherwise the
  catalogue's default configuration.

* **Admission control.**  With ``max_queue_depth`` set, a request arriving
  while that many are already pending is rejected *immediately* with
  :class:`DispatcherOverloaded` (the HTTP layer maps it to ``429`` +
  ``Retry-After``) instead of joining an ever-growing queue.  With
  ``max_queue_delay_ms`` set, requests that waited longer than that before
  their batch started are shed the same way.  Under overload the dispatcher
  therefore degrades by turning work away at a bounded p99, not by
  collapsing into multi-second queues.

Errors are contained per request: a bad dataset or unknown model fails that
caller only, never the serve loop.  :class:`DispatcherStats` counts the
algorithm served on every answered request (``picks``), so a decision model
that has collapsed to one answer shows in ``/metrics``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from .. import obs
from ..core.udr import first_supported_algorithm
from ..datasets.dataset import Dataset
from ..metafeatures.extractor import feature_cache
from .registry import ModelRegistry, ServableModel

__all__ = [
    "Recommendation",
    "DispatcherStats",
    "DispatcherOverloaded",
    "RecommendationDispatcher",
]


class DispatcherOverloaded(RuntimeError):
    """Admission control turned a request away; retry after ``retry_after`` s."""

    def __init__(self, message: str, retry_after: float = 0.5) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass
class Recommendation:
    """One served answer: algorithm + configuration + provenance."""

    dataset: str
    fingerprint: str
    model: str
    version: str
    task: str
    algorithm: str
    config: dict[str, Any]
    config_source: str  # "tuned-store" or "default"
    tuned_score: float | None
    ranking: list[str]
    scores: dict[str, float]
    latency_ms: float
    batch_size: int

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "fingerprint": self.fingerprint,
            "model": self.model,
            "version": self.version,
            "task": self.task,
            "algorithm": self.algorithm,
            "config": dict(self.config),
            "config_source": self.config_source,
            "tuned_score": self.tuned_score,
            "ranking": list(self.ranking),
            "scores": {k: round(v, 6) for k, v in self.scores.items()},
            "latency_ms": round(self.latency_ms, 3),
            "batch_size": self.batch_size,
        }


@dataclass
class DispatcherStats:
    """Counters the dispatcher accumulates across its lifetime."""

    n_requests: int = 0
    n_batches: int = 0
    n_batched_requests: int = 0
    largest_batch: int = 0
    n_errors: int = 0
    n_shed: int = 0
    max_queue_depth_seen: int = 0
    forward_passes: int = 0
    batch_sizes: dict[int, int] = field(default_factory=dict)
    picks: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.n_batched_requests / self.n_batches if self.n_batches else 0.0

    def record_batch(self, size: int) -> None:
        self.n_batches += 1
        self.n_batched_requests += size
        self.largest_batch = max(self.largest_batch, size)
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def record_pick(self, algorithm: str) -> None:
        self.picks[algorithm] = self.picks.get(algorithm, 0) + 1

    def as_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "n_batches": self.n_batches,
            "n_batched_requests": self.n_batched_requests,
            "largest_batch": self.largest_batch,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "n_errors": self.n_errors,
            "n_shed": self.n_shed,
            "max_queue_depth_seen": self.max_queue_depth_seen,
            "forward_passes": self.forward_passes,
            "batch_size_histogram": {
                str(size): count for size, count in sorted(self.batch_sizes.items())
            },
            "picks": dict(sorted(self.picks.items())),
            "feature_cache": feature_cache.stats.as_dict(),
        }


class _Pending:
    """One enqueued request and its completion slot."""

    __slots__ = (
        "dataset", "model_name", "version", "event", "result", "error",
        "abandoned", "admitted", "enqueued_at",
    )

    def __init__(self, dataset: Dataset, model_name: str | None, version: str | None) -> None:
        self.dataset = dataset
        self.model_name = model_name
        self.version = version
        self.event = threading.Event()
        self.result: Recommendation | None = None
        self.error: Exception | None = None
        self.abandoned = False  # caller timed out; skip the work
        self.admitted = False   # counted toward the bounded pending queue
        self.enqueued_at = time.monotonic()


_SHUTDOWN = object()


class RecommendationDispatcher:
    """Concurrent, micro-batched front door over a :class:`ModelRegistry`.

    ``cv`` / ``tuning_max_records`` / ``random_state`` / ``metric`` describe
    the tuning protocol whose stored results the dispatcher serves; they must
    match the refine jobs' protocol for tuned configurations to be found (a
    refine run under a different metric lands in a different store shard).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_size: int = 32,
        batching: bool = True,
        suggest_configs: bool = True,
        cv: int = 5,
        tuning_max_records: int | None = 400,
        random_state: int | None = 0,
        metric: str | None = None,
        max_queue_depth: int | None = None,
        max_queue_delay_ms: float | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None to disable)")
        self.registry = registry
        self.max_batch_size = int(max_batch_size)
        self.batching = bool(batching)
        self.max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self.max_queue_delay = (
            None if max_queue_delay_ms is None else max(0.0, float(max_queue_delay_ms)) / 1000.0
        )
        self._pending_count = 0  # admitted, not yet answered (guarded by _stats_lock)
        self.suggest_configs = bool(suggest_configs)
        self.cv = cv
        self.tuning_max_records = tuning_max_records
        self.random_state = random_state
        self.metric = metric
        self.stats = DispatcherStats()
        self._stats_lock = threading.Lock()
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._closed = False
        self._serve_thread: threading.Thread | None = None
        if self.batching:
            self._serve_thread = threading.Thread(
                target=self._serve_loop, name="recommend-dispatcher", daemon=True
            )
            self._serve_thread.start()

    # -- public API --------------------------------------------------------------------
    def recommend(
        self,
        dataset: Dataset,
        model: str | None = None,
        version: str | None = None,
        timeout: float | None = 30.0,
    ) -> Recommendation:
        """Blocking recommendation for one dataset (thread-safe).

        With batching enabled the request joins the next micro-batch; without
        it the request is served inline on the calling thread.  Either way the
        request first passes admission control: beyond ``max_queue_depth``
        concurrently pending requests, :class:`DispatcherOverloaded` is raised
        immediately instead of queueing.
        """
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        pending = _Pending(dataset, model, version)
        self._admit(pending)
        if not self.batching:
            self._process_batch([pending])
            if pending.error is not None:
                raise pending.error
            assert pending.result is not None
            return pending.result
        self._queue.put(pending)
        if not pending.event.wait(timeout):
            # Best-effort: the serve loop drops abandoned requests it has not
            # started yet, so retrying clients don't amplify the overload.
            pending.abandoned = True
            raise TimeoutError(
                f"recommendation for {dataset.name!r} timed out after {timeout}s"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def recommend_many(
        self,
        datasets: list[Dataset],
        model: str | None = None,
        version: str | None = None,
        return_errors: bool = False,
    ) -> list[Recommendation | Exception]:
        """Serve a caller-assembled batch directly (one forward pass).

        With ``return_errors=False`` (the default) the first failed item
        raises and the batch's other answers are discarded; pass
        ``return_errors=True`` to get per-item results, with the failing
        items' exceptions in their list positions.
        """
        pendings = [_Pending(dataset, model, version) for dataset in datasets]
        # Caller-assembled batches bypass admission control (they are an
        # in-process/benchmark path, not the HTTP front door) but still count
        # as requests.
        with self._stats_lock:
            self.stats.n_requests += len(pendings)
        self._process_batch(pendings)
        results: list[Recommendation | Exception] = []
        for pending in pendings:
            if pending.error is not None:
                if not return_errors:
                    raise pending.error
                results.append(pending.error)
            else:
                results.append(pending.result)
        return results

    # -- admission control -------------------------------------------------------------
    def _admit(self, pending: _Pending) -> None:
        """Count the request toward the bounded pending queue, or shed it."""
        with self._stats_lock:
            self.stats.n_requests += 1
            if (
                self.max_queue_depth is not None
                and self._pending_count >= self.max_queue_depth
            ):
                self.stats.n_shed += 1
                if obs.enabled():
                    obs.emit(
                        "request_shed",
                        dataset=pending.dataset.name,
                        depth=self._pending_count,
                    )
                raise DispatcherOverloaded(
                    f"dispatcher overloaded: {self._pending_count} requests pending "
                    f"(max_queue_depth={self.max_queue_depth})",
                    retry_after=self._retry_after_hint(),
                )
            pending.admitted = True
            self._pending_count += 1
            if obs.enabled():
                obs.emit(
                    "request_admitted",
                    dataset=pending.dataset.name,
                    depth=self._pending_count,
                )
            self.stats.max_queue_depth_seen = max(
                self.stats.max_queue_depth_seen, self._pending_count
            )

    def _release(self, pendings: list[_Pending]) -> None:
        n = sum(1 for p in pendings if p.admitted)
        if n:
            with self._stats_lock:
                self._pending_count -= n
        for pending in pendings:
            pending.admitted = False

    def _retry_after_hint(self) -> float:
        """Roughly how long until the current backlog drains (clamped)."""
        depth = max(self._pending_count, 1)
        batches = depth / max(self.max_batch_size, 1)
        # At least 5 ms a batch, doubled for headroom.
        return min(max(batches * 0.005 * 2.0, 0.05), 5.0)

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet answered (includes the in-flight batch)."""
        with self._stats_lock:
            return self._pending_count

    def stats_snapshot(self) -> dict:
        """Counters plus the live queue gauges (for /healthz and /metrics)."""
        with self._stats_lock:
            out = self.stats.as_dict()
            out["queue_depth"] = self._pending_count
        out["max_queue_depth"] = self.max_queue_depth
        return out

    def close(self) -> None:
        """Stop the serve loop (pending requests are still answered)."""
        if self._closed:
            return
        self._closed = True
        if self._serve_thread is not None:
            self._queue.put(_SHUTDOWN)
            self._serve_thread.join(timeout=5.0)

    # -- serve loop --------------------------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch = [item]
            stop = False
            while len(batch) < self.max_batch_size:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    stop = True
                    break
                batch.append(nxt)
            try:
                self._process_batch(batch)
            except Exception as exc:  # noqa: BLE001 — the serve loop must survive
                obs.error_event("dispatcher.serve_loop", exc)
                self._fail([p for p in batch if not p.event.is_set()], exc)
            if stop:
                return

    # -- batch execution ---------------------------------------------------------------
    def _process_batch(self, batch: list[_Pending]) -> None:
        with obs.span("dispatcher.batch", attrs={"batch_size": len(batch)}):
            self._process_batch_inner(batch)

    def _process_batch_inner(self, batch: list[_Pending]) -> None:
        start = time.monotonic()
        abandoned = [pending for pending in batch if pending.abandoned]
        if abandoned:
            self._release(abandoned)
        batch = [pending for pending in batch if not pending.abandoned]
        if batch and self.max_queue_delay is not None:
            # Requests that already waited past the delay bound are shed:
            # serving them now would push the whole batch's latency further
            # past the SLO, and their callers are likely retrying anyway.
            stale = [
                pending for pending in batch
                if start - pending.enqueued_at > self.max_queue_delay
            ]
            if stale:
                with self._stats_lock:
                    self.stats.n_shed += len(stale)
                self._fail(
                    stale,
                    DispatcherOverloaded(
                        f"request waited longer than max_queue_delay "
                        f"({self.max_queue_delay * 1000.0:.0f} ms); shed",
                        retry_after=self._retry_after_hint(),
                    ),
                    count_errors=False,
                )
                batch = [pending for pending in batch if pending not in stale]
        if not batch:
            return
        with self._stats_lock:
            self.stats.record_batch(len(batch))
        groups: dict[tuple[str | None, str | None], list[_Pending]] = {}
        for pending in batch:
            groups.setdefault((pending.model_name, pending.version), []).append(pending)
        for (name, version), members in groups.items():
            try:
                servable = self.registry.resolve(name, version)
                self._serve_group(servable, members, start, len(batch))
            except Exception as exc:  # noqa: BLE001 — one group never kills the loop
                obs.error_event("dispatcher.group", exc)
                self._fail([p for p in members if not p.event.is_set()], exc)

    def _serve_group(
        self,
        servable: ServableModel,
        members: list[_Pending],
        start: float,
        batch_size: int,
    ) -> None:
        # Task routing: a dataset of the wrong task type fails individually —
        # the rest of the group is still served.
        ready: list[_Pending] = []
        for pending in members:
            if pending.dataset.task.value != servable.task:
                self._fail(
                    [pending],
                    ValueError(
                        f"model {servable.name!r} serves {servable.task} tasks; "
                        f"dataset {pending.dataset.name!r} is "
                        f"{pending.dataset.task.value}"
                    ),
                )
            else:
                ready.append(pending)
        if not ready:
            return
        decision_model = servable.model.decision_model
        try:
            score_dicts = decision_model.scores_many([p.dataset for p in ready])
            with self._stats_lock:
                self.stats.forward_passes += 1
        except Exception as exc:  # noqa: BLE001 — contained per group
            obs.error_event("dispatcher.forward_pass", exc)
            self._fail(ready, exc)
            return
        for pending, scores in zip(ready, score_dicts):
            try:
                pending.result = self._build_recommendation(
                    servable, pending, scores, start, batch_size
                )
            except Exception as exc:  # noqa: BLE001 — contained per request
                obs.error_event("dispatcher.build", exc)
                self._fail([pending], exc)
                continue
            with self._stats_lock:
                self.stats.record_pick(pending.result.algorithm)
            self._release([pending])
            pending.event.set()

    def _build_recommendation(
        self,
        servable: ServableModel,
        pending: _Pending,
        scores: dict[str, float],
        start: float,
        batch_size: int,
    ) -> Recommendation:
        catalogue = servable.model.registry
        ranking = sorted(scores, key=scores.get, reverse=True)
        algorithm = first_supported_algorithm(ranking, catalogue)
        config_source = "default"
        tuned_score: float | None = None
        config = None
        if self.suggest_configs and servable.model.store is not None:
            responder = servable.model.responder(
                cv=self.cv,
                tuning_max_records=self.tuning_max_records,
                random_state=self.random_state,
                metric=self.metric,
            )
            tuned = responder.tuned_best(pending.dataset, algorithm, k=1)
            if tuned:
                config, tuned_score = dict(tuned[0][0]), float(tuned[0][1])
                config_source = "tuned-store"
        if config is None:
            config = catalogue.get(algorithm).default_config()
        return Recommendation(
            dataset=pending.dataset.name,
            fingerprint=pending.dataset.fingerprint,
            model=servable.name,
            version=servable.version,
            task=servable.task,
            algorithm=algorithm,
            config=config,
            config_source=config_source,
            tuned_score=tuned_score,
            ranking=ranking,
            scores=scores,
            latency_ms=(time.monotonic() - pending.enqueued_at) * 1000.0,
            batch_size=batch_size,
        )

    def _fail(
        self, members: list[_Pending], exc: Exception, count_errors: bool = True
    ) -> None:
        if count_errors:
            with self._stats_lock:
                self.stats.n_errors += len(members)
        self._release(members)
        for pending in members:
            pending.error = exc
            pending.event.set()

    def __enter__(self) -> "RecommendationDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
