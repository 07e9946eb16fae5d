"""Pre-forked ServicePool: sockets, supervision, cross-process propagation."""

import http.client
import json
import os
import signal
import time

import pytest

from repro.service import ModelRegistry, ServicePool, reuse_port_supported

from _helpers import dataset_payload

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="ServicePool requires os.fork"
)


@pytest.fixture
def pool_registry(tmp_path, clf_model):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(clf_model, "clf")  # v0001, promoted
    return registry


def _request(pool, method, path, body=None):
    conn = http.client.HTTPConnection(pool.host, pool.port, timeout=30)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body).encode("utf-8") if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _recommend_body(dataset, model="clf"):
    return {"dataset": dataset_payload(dataset), "model": model}


class TestPoolLifecycle:
    def test_rejects_zero_workers(self, pool_registry):
        with pytest.raises(ValueError):
            ServicePool(pool_registry.root, n_workers=0)

    def test_serves_requests_across_workers(self, pool_registry, clf_dataset):
        with ServicePool(pool_registry.root, n_workers=2) as pool:
            assert len(pool.worker_pids) == 2
            assert pool.port > 0
            status, health = _request(pool, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            for _ in range(4):
                status, rec = _request(
                    pool, "POST", "/recommend", _recommend_body(clf_dataset)
                )
                assert status == 200
                assert rec["algorithm"] == "J48"
                assert rec["version"] == "v0001"

    def test_stop_terminates_workers_and_frees_port(self, pool_registry):
        pool = ServicePool(pool_registry.root, n_workers=2).start()
        pids = list(pool.worker_pids)
        metrics_path = pool.metrics_path
        pool.stop()
        assert pool.worker_pids == []
        for pid in pids:
            # After stop() every worker is reaped: the pid is gone (or at
            # least no longer our child).
            with pytest.raises(OSError):
                os.kill(pid, 0)
        assert not metrics_path.exists()  # pool-owned metrics dir removed
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection("127.0.0.1", pool.port, timeout=2)
            conn.request("GET", "/healthz")
            conn.getresponse()

    def test_fallback_mode_serves_without_reuseport(self, pool_registry, clf_dataset):
        pool = ServicePool(pool_registry.root, n_workers=2)
        pool.reuse_port = False  # force the fork-after-bind path
        with pool:
            status, rec = _request(
                pool, "POST", "/recommend", _recommend_body(clf_dataset)
            )
            assert status == 200 and rec["algorithm"] == "J48"

    def test_reuse_port_probe_is_boolean(self):
        assert isinstance(reuse_port_supported(), bool)


class TestCrossProcessPropagation:
    def test_promote_through_one_worker_reaches_all(
        self, pool_registry, clf_model_alt, clf_dataset
    ):
        v2 = pool_registry.publish(clf_model_alt, "clf")  # standby, not promoted
        with ServicePool(pool_registry.root, n_workers=2) as pool:
            # Promote lands on ONE worker; the GENERATION token file must
            # carry it to the sibling. Hammer with fresh connections so both
            # workers answer some of the follow-up traffic.
            status, _ = _request(
                pool, "POST", "/models/promote", {"name": "clf", "version": v2}
            )
            assert status == 200
            answers = set()
            for _ in range(10):
                status, rec = _request(
                    pool, "POST", "/recommend", _recommend_body(clf_dataset)
                )
                assert status == 200
                answers.add((rec["algorithm"], rec["version"]))
            assert answers == {("NaiveBayes", v2)}

    def test_publish_from_parent_process_is_listable(
        self, pool_registry, clf_model_alt
    ):
        with ServicePool(pool_registry.root, n_workers=2) as pool:
            # The workers already cached their listings; a publish from the
            # parent (a different process) must invalidate them.
            v2 = pool_registry.publish(clf_model_alt, "clf")
            status, listing = _request(pool, "GET", "/models")
            assert status == 200
            (entry,) = listing["models"]
            assert v2 in entry["versions"]


class TestPoolMetrics:
    def test_metrics_aggregate_over_all_workers(self, pool_registry, clf_dataset):
        with ServicePool(pool_registry.root, n_workers=2, flush_interval=0.1) as pool:
            n = 8
            for _ in range(n):
                status, _ = _request(
                    pool, "POST", "/recommend", _recommend_body(clf_dataset)
                )
                assert status == 200
            time.sleep(0.5)  # let every worker's flusher publish its tally
            status, metrics = _request(pool, "GET", "/metrics")
            assert status == 200
            assert metrics["scope"] == "pool"
            assert len(metrics["workers"]) == 2
            recommend = metrics["http"]["endpoints"]["POST /recommend"]
            assert recommend["n_requests"] == n
            assert recommend["n_ok"] == n
            assert recommend["latency"]["count"] == n
            assert recommend["latency"]["p99_ms"] >= recommend["latency"]["p50_ms"] > 0
            assert metrics["dispatcher"]["n_requests"] == n
            assert metrics["registry"]["models"] == 1  # max across workers, not 2


class TestSupervision:
    def test_killed_worker_is_respawned_and_serves(self, pool_registry, clf_dataset):
        with ServicePool(pool_registry.root, n_workers=2) as pool:
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                pids = pool.worker_pids
                if len(pids) == 2 and victim not in pids:
                    break
                time.sleep(0.05)
            pids = pool.worker_pids
            assert len(pids) == 2 and victim not in pids
            # The respawned capacity serves real traffic again.
            for _ in range(4):
                status, rec = _request(
                    pool, "POST", "/recommend", _recommend_body(clf_dataset)
                )
                assert status == 200 and rec["algorithm"] == "J48"

    def test_repeated_crashes_back_off_but_recover(self, pool_registry):
        with ServicePool(
            pool_registry.root, n_workers=1, respawn_backoff=0.05
        ) as pool:
            for _ in range(2):
                victim = pool.worker_pids[0]
                os.kill(victim, signal.SIGKILL)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    pids = pool.worker_pids
                    if pids and victim not in pids:
                        break
                    time.sleep(0.05)
            # The replacement's pid is recorded right after fork, before it
            # listens; under SO_REUSEPORT the parent's socket is bound but
            # not listening, so until then a connection is refused.
            while True:
                try:
                    status, _ = _request(pool, "GET", "/healthz")
                    break
                except ConnectionRefusedError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)
            assert status == 200
