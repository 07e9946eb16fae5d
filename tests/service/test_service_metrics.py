"""Serving metrics: reservoirs, per-endpoint counters, cross-worker merge."""

import json
import threading

import pytest

from repro.service import (
    LatencyReservoir,
    LoadGenerator,
    LoadOp,
    MetricsDirectory,
    ServiceMetrics,
    aggregate_worker_payloads,
    route_label,
)
from repro.service.metrics import quantile


class TestQuantile:
    def test_empty_is_none(self):
        # No samples means no quantile — never a fabricated 0.0 "latency".
        assert quantile([], 0.5) is None

    def test_single_sample(self):
        assert quantile([7.0], 0.99) == 7.0

    def test_median_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [float(v) for v in range(100)]
        assert quantile(values, 0.0) == 0.0
        assert quantile(values, 1.0) == 99.0

    def test_order_independent(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestLatencyReservoir:
    def test_exact_below_capacity(self):
        reservoir = LatencyReservoir(size=100)
        for value in [0.010, 0.020, 0.030]:
            reservoir.add(value)
        summary = reservoir.summary()
        assert summary["count"] == 3
        assert summary["mean_ms"] == pytest.approx(20.0)
        assert summary["max_ms"] == pytest.approx(30.0)
        assert summary["p50_ms"] == pytest.approx(20.0)

    def test_bounded_memory_above_capacity(self):
        reservoir = LatencyReservoir(size=16)
        for i in range(10_000):
            reservoir.add(i / 1000.0)
        assert len(reservoir.samples) == 16
        assert reservoir.count == 10_000
        # Total/max are exact even though the sample is bounded.
        assert reservoir.max_value == pytest.approx(9.999)
        assert reservoir.summary()["count"] == 10_000

    def test_quantiles_track_the_stream(self):
        reservoir = LatencyReservoir(size=256, seed=1)
        for i in range(5_000):
            reservoir.add(i / 5_000.0)  # uniform on [0, 1)
        summary = reservoir.summary()
        assert 350.0 < summary["p50_ms"] < 650.0
        assert summary["p95_ms"] > summary["p50_ms"]

    def test_empty_reservoir_reports_none_not_zero(self):
        summary = LatencyReservoir(size=8).summary()
        assert summary["count"] == 0
        for key in ("mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert summary[key] is None

    def test_single_sample_is_every_percentile(self):
        reservoir = LatencyReservoir(size=8)
        reservoir.add(0.007)
        summary = reservoir.summary()
        for key in ("mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert summary[key] == pytest.approx(7.0)

    def test_exactly_at_capacity_keeps_every_sample(self):
        reservoir = LatencyReservoir(size=4)
        for value in (0.001, 0.002, 0.003, 0.004):
            reservoir.add(value)
        assert sorted(reservoir.samples) == [0.001, 0.002, 0.003, 0.004]
        summary = reservoir.summary()
        assert summary["count"] == 4
        assert summary["p50_ms"] == pytest.approx(2.5)
        assert summary["p99_ms"] == pytest.approx(3.97)

    def test_samples_travel_in_summary(self):
        reservoir = LatencyReservoir()
        reservoir.add(0.005)
        summary = reservoir.summary(include_samples=True)
        assert summary["samples_ms"] == [5.0]
        assert "samples_ms" not in reservoir.summary()


class TestRouteLabel:
    def test_known_routes_pass_through(self):
        assert route_label("/healthz") == "/healthz"
        assert route_label("/recommend") == "/recommend"
        assert route_label("/metrics") == "/metrics"

    def test_job_ids_collapse(self):
        assert route_label("/jobs/fit-0001") == "/jobs/{id}"
        assert route_label("/jobs/anything-else") == "/jobs/{id}"

    def test_query_string_stripped(self):
        assert route_label("/jobs?status=done") == "/jobs"

    def test_unknown_paths_share_one_label(self):
        assert route_label("/favicon.ico") == "(unknown)"
        assert route_label("/" + "x" * 500) == "(unknown)"


class TestServiceMetrics:
    def test_outcome_classification(self):
        metrics = ServiceMetrics(worker_id="t")
        for status in (200, 200, 404, 429, 500, 0):
            metrics.observe("POST", "/recommend", status, 0.001)
        snap = metrics.snapshot()
        endpoint = snap["endpoints"]["POST /recommend"]
        assert endpoint["n_requests"] == 6
        assert endpoint["n_ok"] == 2
        assert endpoint["n_client_errors"] == 1
        assert endpoint["n_shed"] == 1
        assert endpoint["n_failed"] == 2  # 500 and transport-level 0
        assert snap["n_requests"] == 6

    def test_endpoints_tracked_separately(self):
        metrics = ServiceMetrics()
        metrics.observe("GET", "/healthz", 200, 0.001)
        metrics.observe("POST", "/recommend", 200, 0.010)
        snap = metrics.snapshot()
        assert set(snap["endpoints"]) == {"GET /healthz", "POST /recommend"}

    def test_snapshot_is_json_safe(self):
        metrics = ServiceMetrics(worker_id=3)
        metrics.observe("GET", "/models", 200, 0.002)
        json.dumps(metrics.snapshot(include_samples=True))

    def test_qps_window_counts_recent_requests(self):
        metrics = ServiceMetrics(qps_window=60)
        for _ in range(120):
            metrics.observe("GET", "/healthz", 200, 0.0)
        snap = metrics.snapshot()
        assert snap["qps"]["window_60s"] == pytest.approx(2.0)
        assert snap["qps"]["lifetime"] > 0

    def test_thread_safe_under_concurrent_observe(self):
        metrics = ServiceMetrics()

        def hammer():
            for _ in range(500):
                metrics.observe("POST", "/recommend", 200, 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.snapshot()["n_requests"] == 4_000


class TestMetricsDirectory:
    def test_write_read_round_trip(self, tmp_path):
        store = MetricsDirectory(tmp_path / "metrics")
        store.write("w0", {"http": {"n_requests": 3}})
        store.write("w1", {"http": {"n_requests": 5}})
        payloads = store.read_all()
        assert len(payloads) == 2
        assert sum(p["http"]["n_requests"] for p in payloads) == 8

    def test_rewrite_replaces_not_appends(self, tmp_path):
        store = MetricsDirectory(tmp_path)
        store.write("w0", {"n": 1})
        store.write("w0", {"n": 2})
        assert store.read_all() == [{"n": 2}]

    def test_corrupt_file_skipped(self, tmp_path):
        store = MetricsDirectory(tmp_path)
        store.write("w0", {"n": 1})
        (tmp_path / "worker-bad.json").write_text("{torn", encoding="utf-8")
        assert store.read_all() == [{"n": 1}]

    def test_two_threads_of_one_worker_write_concurrently(self, tmp_path, monkeypatch):
        """A pool worker's flusher and its /metrics handler both flush: a
        second write landing between the first's temp write and its
        ``os.replace`` must not move the first's temp file away."""
        import repro.service.metrics as metrics_module

        store = MetricsDirectory(tmp_path)
        real_replace = metrics_module.os.replace
        interleaved = []

        def replace_after_another_write(src, dst):
            if not interleaved:
                interleaved.append(True)
                other = threading.Thread(target=store.write, args=("w0", {"n": 2}))
                other.start()
                other.join()
            real_replace(src, dst)

        monkeypatch.setattr(metrics_module.os, "replace", replace_after_another_write)
        store.write("w0", {"n": 1})
        assert store.read_all() == [{"n": 1}]


def _worker_payload(worker_id, n_requests, samples_ms, n_shed=0, batches=None):
    latency = {
        "count": len(samples_ms),
        "mean_ms": sum(samples_ms) / len(samples_ms) if samples_ms else None,
        "max_ms": max(samples_ms) if samples_ms else None,
        "p50_ms": None, "p95_ms": None, "p99_ms": None,
        "samples_ms": list(samples_ms),
    }
    return {
        "http": {
            "worker_id": worker_id,
            "pid": 1000 + hash(worker_id) % 100,
            "started_at": 0.0,
            "uptime_seconds": 10.0,
            "n_requests": n_requests,
            "n_ok": n_requests - n_shed,
            "n_shed": n_shed,
            "n_client_errors": 0,
            "n_failed": 0,
            "qps": {"lifetime": n_requests / 10.0, "window_60s": 1.0},
            "endpoints": {
                "POST /recommend": {
                    "n_requests": n_requests,
                    "n_ok": n_requests - n_shed,
                    "n_shed": n_shed,
                    "n_client_errors": 0,
                    "n_failed": 0,
                    "latency": latency,
                }
            },
        },
        "dispatcher": {
            "n_requests": n_requests,
            "n_batches": len(batches or []),
            "n_batched_requests": sum(batches or []),
            "largest_batch": max(batches or [0]),
            "mean_batch_size": 0.0,
            "batch_size_histogram": {},
        },
        "registry": {"models": 2, "model_loads": 1, "model_cache_hits": n_requests},
        "jobs": {"n_submitted": 1, "depth": 0},
    }


class TestAggregation:
    def test_counters_sum_across_workers(self):
        merged = aggregate_worker_payloads(
            [_worker_payload("w0", 10, [1.0] * 5), _worker_payload("w1", 30, [3.0] * 5)]
        )
        assert merged["http"]["n_requests"] == 40
        assert merged["registry"]["model_cache_hits"] == 40
        assert merged["jobs"]["n_submitted"] == 2
        assert len(merged["workers"]) == 2

    def test_quantiles_merge_over_sample_union_not_averaged(self):
        # One fast worker, one slow worker: averaging per-worker p50s would
        # give 5.5ms; the union of samples has a true p50 of 5.5 only when
        # counts match — skew the counts to tell union from average apart.
        fast = _worker_payload("w0", 90, [1.0] * 90)
        slow = _worker_payload("w1", 10, [10.0] * 10)
        merged = aggregate_worker_payloads([fast, slow])
        latency = merged["http"]["endpoints"]["POST /recommend"]["latency"]
        assert latency["count"] == 100
        assert latency["p50_ms"] == pytest.approx(1.0)  # union-dominated by fast
        assert latency["max_ms"] == pytest.approx(10.0)
        assert latency["mean_ms"] == pytest.approx(1.9)

    def test_gauges_take_max_and_ratios_recomputed(self):
        a = _worker_payload("w0", 8, [1.0], batches=[4, 4])
        b = _worker_payload("w1", 6, [1.0], batches=[6])
        merged = aggregate_worker_payloads([a, b])
        assert merged["dispatcher"]["largest_batch"] == 6
        # mean batch size = (8 + 6) / 3 batches, not an average of means.
        assert merged["dispatcher"]["mean_batch_size"] == pytest.approx(4.67, abs=0.01)
        assert merged["registry"]["models"] == 2  # max, not 4

    def test_feature_cache_hit_rate_recomputed_from_summed_counts(self):
        a = _worker_payload("w0", 4, [1.0])
        b = _worker_payload("w1", 4, [1.0])
        a["dispatcher"]["feature_cache"] = {
            "hits": 3, "misses": 1, "hit_rate": 0.75, "evictions": 0,
        }
        b["dispatcher"]["feature_cache"] = {
            "hits": 6, "misses": 2, "hit_rate": 0.75, "evictions": 1,
        }
        cache = aggregate_worker_payloads([a, b])["dispatcher"]["feature_cache"]
        # 9 hits over 12 lookups, not the sum 1.5 of the two workers' rates.
        assert cache == {"hits": 9, "misses": 3, "hit_rate": 0.75, "evictions": 1}

    def test_feature_cache_hit_rate_without_lookups_is_zero(self):
        a = _worker_payload("w0", 0, [1.0])
        a["dispatcher"]["feature_cache"] = {"hits": 0, "misses": 0, "hit_rate": 0.0, "evictions": 0}
        assert aggregate_worker_payloads([a, a])["dispatcher"]["feature_cache"]["hit_rate"] == 0.0

    def test_picks_sum_per_algorithm(self):
        a = _worker_payload("w0", 4, [1.0])
        b = _worker_payload("w1", 6, [1.0])
        a["dispatcher"]["picks"] = {"IBk": 1, "J48": 3}
        b["dispatcher"]["picks"] = {"J48": 2, "NaiveBayes": 4}
        merged = aggregate_worker_payloads([a, b])
        assert merged["dispatcher"]["picks"] == {"IBk": 1, "J48": 5, "NaiveBayes": 4}

    def test_shed_counts_aggregate(self):
        merged = aggregate_worker_payloads(
            [_worker_payload("w0", 10, [1.0], n_shed=3), _worker_payload("w1", 10, [1.0])]
        )
        assert merged["http"]["n_shed"] == 3

    def test_single_payload_keeps_shape(self):
        merged = aggregate_worker_payloads([_worker_payload("w0", 5, [2.0] * 5)])
        assert merged["http"]["n_requests"] == 5
        assert "POST /recommend" in merged["http"]["endpoints"]
        json.dumps(merged)


class TestLoadGenerator:
    def test_schedule_is_deterministic_and_weighted(self):
        ops = [
            LoadOp("POST", "/recommend", {"x": 1}, weight=3),
            LoadOp("GET", "/healthz", weight=1),
        ]
        gen_a = LoadGenerator("127.0.0.1", 1, ops, n_clients=2, requests_per_client=20)
        gen_b = LoadGenerator("127.0.0.1", 1, ops, n_clients=2, requests_per_client=20)
        assert gen_a._plans == gen_b._plans
        assert gen_a.total_requests == 40
        flat = [entry for plan in gen_a._plans for entry in plan]
        recommends = sum(1 for entry in flat if entry[1] == "/recommend")
        assert recommends == 30  # 3:1 weighting holds exactly

    def test_bodies_pre_encoded_once(self):
        op = LoadOp("POST", "/recommend", {"dataset": {"target": [1, 2]}})
        gen = LoadGenerator("127.0.0.1", 1, [op], n_clients=1, requests_per_client=3)
        bodies = {id(entry[2]) for plan in gen._plans for entry in plan}
        assert len(bodies) == 1  # same bytes object reused, no per-request dumps

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            LoadGenerator("127.0.0.1", 1, [], n_clients=1, requests_per_client=1)

    def test_run_against_live_server(self, registry, clf_model, clf_dataset):
        from _helpers import dataset_payload
        from repro.service import RecommendationService, serve_in_thread

        registry.publish(clf_model, "clf")
        service = RecommendationService(registry)
        server, _ = serve_in_thread(service)
        try:
            ops = [
                LoadOp("POST", "/recommend",
                       {"dataset": dataset_payload(clf_dataset), "model": "clf"},
                       weight=2),
                LoadOp("GET", "/healthz"),
            ]
            gen = LoadGenerator(
                "127.0.0.1", server.server_address[1], ops,
                n_clients=2, requests_per_client=6,
            )
            report = gen.run()
            assert report.n_requests == 12
            assert report.n_ok == 12
            assert report.n_failed == 0
            assert gen.completed == 12
            assert report.throughput_rps > 0
            assert report.latency_ms(0.99) >= report.latency_ms(0.50)
            # Client-side tallies reconcile with server-side metrics.
            snap = service.metrics.snapshot()
            assert snap["n_requests"] == 12
            assert snap["endpoints"]["POST /recommend"]["n_ok"] == 8
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_metrics_reconcile_with_tracing_enabled(
        self, registry, clf_model, clf_dataset, tmp_path
    ):
        """The load-smoke bar with the obs journal on: same zero-failure
        reconciliation, plus /metrics reporting the traced request spans."""
        import time

        import repro.obs as obs
        from _helpers import dataset_payload
        from repro.service import RecommendationService, serve_in_thread

        registry.publish(clf_model, "clf")
        service = RecommendationService(registry)
        server, _ = serve_in_thread(service)
        obs.configure(tmp_path / "journal")
        try:
            ops = [
                LoadOp("POST", "/recommend",
                       {"dataset": dataset_payload(clf_dataset), "model": "clf"},
                       weight=2),
                LoadOp("GET", "/healthz"),
            ]
            gen = LoadGenerator(
                "127.0.0.1", server.server_address[1], ops,
                n_clients=2, requests_per_client=6,
            )
            report = gen.run()
            assert report.n_requests == 12
            assert report.n_failed == 0
            snap = service.metrics.snapshot()
            assert snap["n_requests"] == 12
            # Request spans land in the journal just after each response, so
            # give the handler threads a moment before reconciling.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                events = service.metrics_response().get("events", {})
                if events.get("span", 0) >= 12:
                    break
                time.sleep(0.01)
            assert events["span"] >= 12  # one service.request span per request
        finally:
            obs.disable()
            server.shutdown()
            server.server_close()
            service.close()
