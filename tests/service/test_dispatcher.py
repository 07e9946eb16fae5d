"""RecommendationDispatcher: batching, correctness, concurrency, hot-swap.

Batching is checked deterministically: :class:`_helpers.Blocker` holds the
serve loop inside a forward pass while requests queue behind it, so what the
next batch holds does not depend on thread timing.
"""

import os
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.metafeatures.extractor import feature_cache
from repro.service import ModelRegistry, RecommendationDispatcher

from _helpers import Blocker, constant_automodel


@pytest.fixture
def served_registry(registry, clf_model, reg_model) -> ModelRegistry:
    registry.publish(clf_model, "clf")
    registry.publish(reg_model, "reg")
    return registry


@pytest.fixture
def blocker(served_registry):
    block = Blocker(served_registry.resolve("clf").model.decision_model)
    yield block
    block.restore()


def _wait_until(condition, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds (it must, well inside ``timeout``)."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class _RecordingQueue(queue.Queue):
    """A dispatcher queue that records every ``get(block, timeout)`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.gets: list[tuple[bool, float | None]] = []

    def get(self, block=True, timeout=None):
        self.gets.append((block, timeout))
        return super().get(block, timeout)


class TestSingleRequests:
    def test_inline_recommendation_matches_decision_model(
        self, served_registry, clf_model, clf_dataset
    ):
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            rec = dispatcher.recommend(clf_dataset, model="clf")
        assert rec.algorithm == clf_model.decision_model.select(clf_dataset)
        assert rec.model == "clf"
        assert rec.version == "v0001"
        assert rec.config_source == "default"
        assert rec.ranking[0] == rec.algorithm
        assert set(rec.scores) == set(clf_model.decision_model.labels)

    def test_batched_recommendation_same_answer(self, served_registry, clf_dataset):
        with RecommendationDispatcher(served_registry) as dispatcher:
            rec = dispatcher.recommend(clf_dataset, model="clf")
        assert rec.algorithm == "J48"

    def test_task_routing(self, served_registry, clf_dataset, reg_dataset):
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            assert dispatcher.recommend(clf_dataset, model="clf").algorithm == "J48"
            assert dispatcher.recommend(reg_dataset, model="reg").algorithm == "Ridge"

    def test_task_mismatch_fails_that_request_only(
        self, served_registry, clf_dataset, reg_dataset
    ):
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            with pytest.raises(ValueError, match="serves classification"):
                dispatcher.recommend(reg_dataset, model="clf")
            # The dispatcher still works after the contained error.
            assert dispatcher.recommend(clf_dataset, model="clf").algorithm == "J48"
            assert dispatcher.stats.n_errors == 1

    def test_unknown_model_raises_keyerror(self, served_registry, clf_dataset):
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            with pytest.raises(KeyError):
                dispatcher.recommend(clf_dataset, model="nope")

    def test_pinned_version_served(
        self, served_registry, clf_model_alt, clf_dataset
    ):
        v2 = served_registry.publish(clf_model_alt, "clf")
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            pinned = dispatcher.recommend(clf_dataset, model="clf", version=v2)
            live = dispatcher.recommend(clf_dataset, model="clf")
        assert pinned.algorithm == "NaiveBayes" and pinned.version == v2
        assert live.algorithm == "J48" and live.version == "v0001"

    def test_closed_dispatcher_rejects_requests(self, served_registry, clf_dataset):
        dispatcher = RecommendationDispatcher(served_registry)
        dispatcher.close()
        with pytest.raises(RuntimeError):
            dispatcher.recommend(clf_dataset, model="clf")


class TestBatching:
    def test_recommend_many_single_forward_pass(self, served_registry, clf_dataset):
        datasets = [clf_dataset.subsample(40 + i, random_state=i) for i in range(6)]
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            recs = dispatcher.recommend_many(datasets, model="clf")
            assert dispatcher.stats.forward_passes == 1
        assert [r.algorithm for r in recs] == ["J48"] * 6
        assert all(r.batch_size == 6 for r in recs)

    def test_mixed_model_batch_grouped_per_snapshot(
        self, served_registry, clf_dataset, reg_dataset
    ):
        pendings = [(clf_dataset, "clf"), (reg_dataset, "reg"), (clf_dataset, "clf")]
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            # Build one explicit batch containing both models.
            from repro.service.dispatcher import _Pending

            batch = [_Pending(d, m, None) for d, m in pendings]
            dispatcher._process_batch(batch)
            assert dispatcher.stats.forward_passes == 2  # one per model group
        assert [p.result.algorithm for p in batch] == ["J48", "Ridge", "J48"]

    def test_concurrent_requests_get_micro_batched(
        self, served_registry, blocker, clf_dataset
    ):
        datasets = [clf_dataset.subsample(30 + i, random_state=i) for i in range(24)]
        with RecommendationDispatcher(served_registry, max_batch_size=32) as dispatcher:
            with ThreadPoolExecutor(max_workers=24) as pool:
                futures = [
                    pool.submit(dispatcher.recommend, d, model="clf") for d in datasets
                ]
                # The first batch is stuck in its forward pass (it counted
                # itself before entering it); the rest of the burst queues.
                assert blocker.entered.wait(timeout=10)
                _wait_until(
                    lambda: dispatcher._queue.qsize() + dispatcher.stats.n_batched_requests
                    == 24
                )
                blocker.gate.set()
                recs = [future.result(timeout=30) for future in futures]
            stats = dispatcher.stats
        assert all(r.algorithm == "J48" for r in recs)
        assert stats.n_requests == 24
        # The whole burst must have been served in far fewer forward passes
        # than requests (micro-batching), with at least one real batch.
        assert stats.largest_batch >= 4
        assert stats.forward_passes < 24

    @pytest.mark.parametrize("n_queued", [2, 7, 16])
    def test_requests_queued_behind_a_batch_become_one_batch(
        self, served_registry, blocker, clf_dataset, n_queued
    ):
        with RecommendationDispatcher(served_registry, max_batch_size=16) as dispatcher:
            with ThreadPoolExecutor(max_workers=n_queued + 1) as pool:
                first = pool.submit(dispatcher.recommend, clf_dataset, model="clf")
                assert blocker.entered.wait(timeout=10)
                queued = [
                    pool.submit(dispatcher.recommend, clf_dataset, model="clf")
                    for _ in range(n_queued)
                ]
                _wait_until(lambda: dispatcher._queue.qsize() == n_queued)
                assert dispatcher.stats.forward_passes == 0
                blocker.gate.set()
                recs = [f.result(timeout=30) for f in [first, *queued]]
            stats = dispatcher.stats
        assert [rec.batch_size for rec in recs] == [1] + [n_queued] * n_queued
        assert stats.batch_sizes == {1: 1, n_queued: 1}
        assert stats.forward_passes == 2

    def test_batch_is_capped_at_max_batch_size(
        self, served_registry, blocker, clf_dataset
    ):
        with RecommendationDispatcher(served_registry, max_batch_size=4) as dispatcher:
            with ThreadPoolExecutor(max_workers=11) as pool:
                first = pool.submit(dispatcher.recommend, clf_dataset, model="clf")
                assert blocker.entered.wait(timeout=10)
                queued = [
                    pool.submit(dispatcher.recommend, clf_dataset, model="clf")
                    for _ in range(10)
                ]
                _wait_until(lambda: dispatcher._queue.qsize() == 10)
                blocker.gate.set()
                for future in [first, *queued]:
                    future.result(timeout=30)
            stats = dispatcher.stats
        assert stats.batch_sizes == {1: 1, 4: 2, 2: 1}
        assert stats.forward_passes == 4

    def test_lone_request_waits_on_no_timer(
        self, served_registry, clf_dataset, monkeypatch
    ):
        with monkeypatch.context() as patch:
            patch.setattr(queue, "Queue", _RecordingQueue)
            dispatcher = RecommendationDispatcher(served_registry)
        with dispatcher:
            gets = dispatcher._queue.gets
            rec = dispatcher.recommend(clf_dataset, model="clf")
            # The serve loop is back at its blocking get for the next request.
            _wait_until(lambda: len(gets) >= 3)
        assert rec.algorithm == "J48" and rec.batch_size == 1
        # A blocking get for the request, a non-blocking look for company,
        # then a blocking get again: no timed wait anywhere.
        assert gets[:3] == [(True, None), (False, None), (True, None)]
        assert all(timeout is None for _, timeout in gets)

    def test_feature_cache_serves_repeat_queries(self, served_registry, clf_dataset):
        feature_cache.clear()
        feature_cache.reset_stats()
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            dispatcher.recommend(clf_dataset, model="clf")
            hits_before = feature_cache.stats.hits
            dispatcher.recommend(clf_dataset, model="clf")
        assert feature_cache.stats.hits >= hits_before + 5
        assert dispatcher.stats.as_dict()["feature_cache"]["hits"] > 0


class TestPicks:
    def test_served_requests_sum_to_picks(
        self, served_registry, clf_dataset, reg_dataset
    ):
        with RecommendationDispatcher(served_registry) as dispatcher:
            for _ in range(5):
                dispatcher.recommend(clf_dataset, model="clf")
            for _ in range(3):
                dispatcher.recommend(reg_dataset, model="reg")
            dispatcher.recommend_many([clf_dataset] * 4, model="clf")
            with pytest.raises(ValueError, match="serves classification"):
                dispatcher.recommend(reg_dataset, model="clf")  # failed: no pick
            snapshot = dispatcher.stats_snapshot()
        assert snapshot["picks"] == {"J48": 9, "Ridge": 3}
        assert snapshot["n_requests"] == 13 and snapshot["n_errors"] == 1
        assert sum(snapshot["picks"].values()) == 12

    def test_oversubscribed_clients_are_all_answered(
        self, served_registry, clf_dataset, reg_dataset
    ):
        """More client threads than CPUs, with the GIL switching as often as
        it can: every request is answered once, picks add up to requests and
        no admitted request is left counted as pending."""
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        n_clients, per_client = 2 * cpus + 2, 20
        answered: list[str] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def client(dispatcher, i):
            try:
                for j in range(per_client):
                    dataset, model = (
                        (clf_dataset, "clf") if (i + j) % 2 else (reg_dataset, "reg")
                    )
                    rec = dispatcher.recommend(dataset, model=model, timeout=30)
                    with lock:
                        answered.append(rec.algorithm)
            except Exception as exc:  # noqa: BLE001 — collected for assertions
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RecommendationDispatcher(served_registry, max_batch_size=8) as dispatcher:
                threads = [
                    threading.Thread(target=client, args=(dispatcher, i), daemon=True)
                    for i in range(n_clients)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 60.0
                for thread in threads:
                    thread.join(timeout=max(deadline - time.monotonic(), 0.0))
                assert not any(thread.is_alive() for thread in threads)
                snapshot = dispatcher.stats_snapshot()
        finally:
            sys.setswitchinterval(previous)
        total = n_clients * per_client
        assert not errors
        assert len(answered) == total
        assert snapshot["n_requests"] == total
        assert snapshot["picks"] == {
            "J48": answered.count("J48"),
            "Ridge": answered.count("Ridge"),
        }
        assert sum(snapshot["picks"].values()) == total
        assert snapshot["queue_depth"] == 0


class TestHotSwap:
    def test_swap_is_atomic_under_hammering(
        self, served_registry, clf_model_alt, clf_dataset
    ):
        """Threaded clients during a promote see old-or-new, never a mix.

        Model v0001 always recommends J48, v0002 always NaiveBayes, so any
        torn state shows up as a (version, algorithm) pair that belongs to
        neither model.
        """
        v2 = served_registry.publish(clf_model_alt, "clf")
        expected = {("v0001", "J48"), (v2, "NaiveBayes")}
        observed: list[tuple[str, str]] = []
        errors: list[Exception] = []
        observed_lock = threading.Lock()
        start_barrier = threading.Barrier(9)
        swapped = threading.Event()

        with RecommendationDispatcher(
            served_registry, max_batch_size=8
        ) as dispatcher:
            def hammer():
                try:
                    start_barrier.wait()
                    for _ in range(30):
                        rec = dispatcher.recommend(clf_dataset, model="clf", timeout=30.0)
                        with observed_lock:
                            observed.append((rec.version, rec.algorithm))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            def swap():
                start_barrier.wait()
                served_registry.promote("clf", v2)
                swapped.set()

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            threads.append(threading.Thread(target=swap))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        assert swapped.is_set()
        assert len(observed) == 240  # zero failed requests
        assert set(observed) <= expected
        # The swap actually happened mid-traffic: the new version was served.
        assert (v2, "NaiveBayes") in set(observed)

    def test_rollback_serves_previous_version_again(
        self, served_registry, clf_model_alt, clf_dataset
    ):
        v2 = served_registry.publish(clf_model_alt, "clf", activate=True)
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            assert dispatcher.recommend(clf_dataset, model="clf").version == v2
            served_registry.rollback("clf")
            after = dispatcher.recommend(clf_dataset, model="clf")
        assert after.version == "v0001"
        assert after.algorithm == "J48"


class TestTunedConfigServing:
    def test_tuned_store_config_is_served(self, served_registry, clf_dataset):
        """A tuning result persisted into the version's store is served."""
        servable = served_registry.resolve("clf")
        responder = servable.model.responder(cv=5, tuning_max_records=400)
        solution = responder.respond(
            clf_dataset, time_limit=None, max_evaluations=4, fit_final_estimator=False
        )
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            rec = dispatcher.recommend(clf_dataset, model="clf")
        assert rec.algorithm == solution.algorithm
        assert rec.config_source == "tuned-store"
        assert rec.tuned_score is not None
        assert rec.config == solution.config

    def test_suggest_configs_off_serves_defaults(self, served_registry, clf_dataset):
        servable = served_registry.resolve("clf")
        responder = servable.model.responder(cv=5, tuning_max_records=400)
        responder.respond(
            clf_dataset, time_limit=None, max_evaluations=4, fit_final_estimator=False
        )
        with RecommendationDispatcher(
            served_registry, batching=False, suggest_configs=False
        ) as dispatcher:
            rec = dispatcher.recommend(clf_dataset, model="clf")
        assert rec.config_source == "default"


class TestAbandonedRequests:
    def test_abandoned_pending_is_skipped(self, served_registry, clf_dataset):
        from repro.service.dispatcher import _Pending

        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            kept = _Pending(clf_dataset, "clf", None)
            gone = _Pending(clf_dataset, "clf", None)
            gone.abandoned = True  # what a timed-out recommend() leaves behind
            dispatcher._process_batch([kept, gone])
        assert kept.result is not None
        assert gone.result is None and not gone.event.is_set()


class TestMetricRouting:
    def test_dispatcher_metric_reads_matching_refine_shard(
        self, served_registry, clf_dataset
    ):
        """A refine run under metric X is served by a metric-X dispatcher only."""
        servable = served_registry.resolve("clf")
        responder = servable.model.responder(
            cv=5, tuning_max_records=400, metric="f1"
        )
        solution = responder.respond(
            clf_dataset, time_limit=None, max_evaluations=4, fit_final_estimator=False
        )
        with RecommendationDispatcher(
            served_registry, batching=False, metric="f1"
        ) as matching:
            rec = matching.recommend(clf_dataset, model="clf")
        assert rec.config_source == "tuned-store"
        assert rec.config == solution.config
        with RecommendationDispatcher(served_registry, batching=False) as default:
            rec_default = default.recommend(clf_dataset, model="clf")
        assert rec_default.config_source == "default"


class TestServeLoopSurvival:
    def test_poison_request_does_not_kill_the_serve_thread(
        self, served_registry, clf_dataset
    ):
        """An object that explodes inside the serve loop fails only its caller."""

        class Bomb:
            name = "bomb"

            @property
            def task(self):
                raise RuntimeError("boom in the serve loop")

        with RecommendationDispatcher(
            served_registry, max_batch_size=4
        ) as dispatcher:
            with pytest.raises(Exception):
                dispatcher.recommend(Bomb(), model="clf", timeout=10.0)
            # The serve thread survived and keeps answering.
            rec = dispatcher.recommend(clf_dataset, model="clf", timeout=10.0)
        assert rec.algorithm == "J48"

    def test_recommend_many_return_errors_keeps_good_results(
        self, served_registry, clf_dataset, reg_dataset
    ):
        with RecommendationDispatcher(served_registry, batching=False) as dispatcher:
            results = dispatcher.recommend_many(
                [clf_dataset, reg_dataset, clf_dataset], model="clf",
                return_errors=True,
            )
        assert results[0].algorithm == "J48"
        assert isinstance(results[1], ValueError)  # task mismatch, in place
        assert results[2].algorithm == "J48"
