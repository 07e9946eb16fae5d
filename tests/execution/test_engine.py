"""Tests for the unified trial-execution engine.

Covers the acceptance properties of the subsystem: cache determinism (same
fingerprint → same score, no re-evaluation), parallel-vs-serial score parity
under a fixed ``random_state``, and budget exhaustion mid-batch.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.execution import (
    Budget,
    EvaluationEngine,
    FoldPlan,
    ResultStore,
    config_fingerprint,
    estimator_engine,
)
from repro.hpo import Budget as HPOBudget
from repro.hpo import GeneticAlgorithm, HPOProblem, RandomSearch
from repro.hpo.selector import HPOTechniqueSelector
from repro.hpo.space import CategoricalParam, ConfigSpace, FloatParam, IntParam
from repro.learners import cross_val_score_folds, stratified_folds
from repro.learners.tree import DecisionStump


def quadratic_space() -> ConfigSpace:
    return ConfigSpace([FloatParam("x", -5.0, 5.0), FloatParam("y", -5.0, 5.0)])


def quadratic(config: dict) -> float:
    return -((config["x"] - 1.0) ** 2) - (config["y"] + 2.0) ** 2


class CountingObjective:
    """Objective that counts how many real executions it performs."""

    def __init__(self, fn=quadratic):
        self.fn = fn
        self.calls = 0

    def __call__(self, config):
        self.calls += 1
        return self.fn(config)


class TestFingerprint:
    def test_key_order_does_not_matter(self):
        assert config_fingerprint({"a": 1, "b": 2.5}) == config_fingerprint({"b": 2.5, "a": 1})

    def test_numpy_scalars_equal_python_scalars(self):
        assert config_fingerprint({"k": np.int64(3)}) == config_fingerprint({"k": 3})

    def test_distinct_floats_do_not_collide(self):
        a = config_fingerprint({"x": 0.1})
        b = config_fingerprint({"x": 0.1 + 1e-12})
        assert a != b


class TestCacheDeterminism:
    def test_repeat_config_is_not_re_evaluated(self):
        objective = CountingObjective()
        engine = EvaluationEngine(objective)
        config = {"x": 0.5, "y": 1.0}
        first = engine.evaluate(config)
        second = engine.evaluate(config)
        assert objective.calls == 1
        assert second.cached and not first.cached
        assert second.score == first.score
        assert engine.stats.hit_rate > 0.0

    def test_cache_disabled_re_evaluates(self):
        objective = CountingObjective()
        engine = EvaluationEngine(objective, cache=False)
        config = {"x": 0.5, "y": 1.0}
        engine.evaluate(config)
        engine.evaluate(config)
        assert objective.calls == 2

    def test_crashes_are_cached_and_counted(self):
        objective = CountingObjective(fn=lambda c: 1 / 0)
        engine = EvaluationEngine(objective)
        outcome = engine.evaluate({"x": 0.0, "y": 0.0})
        repeat = engine.evaluate({"x": 0.0, "y": 0.0})
        assert outcome.score == float("-inf") and outcome.crashed
        assert repeat.cached and repeat.score == float("-inf")
        assert objective.calls == 1
        assert engine.stats.n_crashes == 1
        assert engine.stats.last_error is not None

    def test_seeding_prepopulates_cache(self):
        engine = EvaluationEngine(CountingObjective())
        engine.seed({"x": 1.0, "y": -2.0}, 0.0)
        outcome = engine.evaluate({"x": 1.0, "y": -2.0})
        assert outcome.cached and outcome.score == 0.0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(quadratic, backend="gpu")
        with pytest.raises(ValueError):
            EvaluationEngine(quadratic, n_workers=0)


class TestBatchEvaluation:
    def _configs(self, n: int, seed: int = 0) -> list[dict]:
        rng = np.random.default_rng(seed)
        space = quadratic_space()
        return [space.sample(rng) for _ in range(n)]

    def test_results_in_input_order(self):
        configs = self._configs(12)
        engine = EvaluationEngine(quadratic, n_workers=4)
        outcomes = engine.evaluate_many(configs)
        for config, outcome in zip(configs, outcomes):
            assert outcome.score == pytest.approx(quadratic(config))

    def test_parallel_matches_serial_scores(self):
        configs = self._configs(20, seed=3)
        serial = EvaluationEngine(quadratic, n_workers=1).evaluate_many(configs)
        parallel = EvaluationEngine(quadratic, n_workers=4).evaluate_many(configs)
        assert [o.score for o in serial] == [o.score for o in parallel]

    def test_budget_exhaustion_mid_batch(self):
        configs = self._configs(10)
        engine = EvaluationEngine(quadratic, n_workers=1)
        budget = Budget(max_evaluations=4)
        outcomes = engine.evaluate_many(configs, budget=budget)
        assert sum(o is not None for o in outcomes) == 4
        assert outcomes[4:] == [None] * 6  # skipped items are a suffix
        assert budget.exhausted()
        assert budget.evaluations == 4

    def test_time_budget_skips_everything_when_spent(self):
        engine = EvaluationEngine(quadratic)
        budget = Budget(time_limit=0.0)
        budget.start()
        outcomes = engine.evaluate_many(self._configs(5), budget=budget)
        assert outcomes == [None] * 5

    def test_in_batch_duplicates_execute_once(self):
        objective = CountingObjective()
        engine = EvaluationEngine(objective, n_workers=1)
        config = {"x": 2.0, "y": 2.0}
        outcomes = engine.evaluate_many([config, dict(config), dict(config)])
        assert objective.calls == 1
        assert [o.score for o in outcomes] == [quadratic(config)] * 3
        assert [o.cached for o in outcomes] == [False, True, True]

    def test_crash_score_configurable(self):
        engine = EvaluationEngine(lambda c: 1 / 0, crash_score=0.0)
        outcomes = engine.evaluate_many([{"x": 1}, {"x": 2}])
        assert [o.score for o in outcomes] == [0.0, 0.0]
        assert engine.stats.n_crashes == 2

    def test_unpicklable_objective_falls_back_to_threads(self):
        data = np.arange(4)
        engine = EvaluationEngine(lambda c: float(data.sum()), n_workers=2, backend="process")
        assert engine.backend == "thread"
        outcomes = engine.evaluate_many([{"a": 1}, {"a": 2}])
        assert [o.score for o in outcomes] == [6.0, 6.0]
        # The silent degradation is surfaced in the reported statistics.
        assert engine.stats.as_dict()["backend_fallback_from"] == "process"

    def test_stats_accumulate(self):
        engine = EvaluationEngine(quadratic, n_workers=2)
        engine.evaluate_many(self._configs(6))
        stats = engine.stats
        assert stats.n_executions == 6
        assert stats.n_batches == 1
        assert stats.largest_batch == 6
        assert stats.evals_per_second > 0
        payload = stats.as_dict()
        assert payload["n_evaluations"] == 6
        assert payload["backend"] == "thread"


class TestOptimizerIntegration:
    def test_parallel_ga_matches_serial_ga(self):
        """Score parity: identical trajectories at any worker count."""

        def run(n_workers: int):
            engine = EvaluationEngine(quadratic, n_workers=n_workers)
            problem = HPOProblem(quadratic_space(), engine=engine)
            optimizer = GeneticAlgorithm(
                population_size=10, n_generations=5, random_state=7
            )
            return optimizer.optimize(problem, HPOBudget(max_evaluations=60))

        serial = run(1)
        parallel = run(4)
        assert [t.score for t in serial.trials] == [t.score for t in parallel.trials]
        assert serial.best_config == parallel.best_config
        assert serial.best_score == parallel.best_score

    def test_ga_duplicate_configs_hit_cache_with_identical_scores(self):
        """Acceptance: cache hit rate > 0 on a GA run with duplicate configs,
        scores identical to the uncached (serial) path."""
        space = ConfigSpace(
            [IntParam("k", 1, 4), CategoricalParam("mode", ["a", "b"])]
        )

        def objective(config):
            return config["k"] + (1.0 if config["mode"] == "a" else 0.0)

        def run(cache: bool):
            counting = CountingObjective(fn=objective)
            engine = EvaluationEngine(counting, cache=cache)
            problem = HPOProblem(space, engine=engine)
            ga = GeneticAlgorithm(population_size=8, n_generations=6, random_state=0)
            result = ga.optimize(problem, HPOBudget(max_evaluations=48))
            return result, engine, counting

        cached_result, cached_engine, counting = run(cache=True)
        uncached_result, _, uncached_counting = run(cache=False)
        # GA elites repeat across generations, so the cache must fire ...
        assert cached_engine.stats.n_cache_hits > 0
        assert cached_engine.stats.hit_rate > 0.0
        assert counting.calls < uncached_counting.calls  # measurable saving
        # ... without changing a single score along the trajectory.
        assert [t.score for t in cached_result.trials] == [
            t.score for t in uncached_result.trials
        ]
        assert cached_result.best_score == uncached_result.best_score

    def test_serial_target_score_stops_at_first_hit(self):
        """On a serial engine the GA keeps the seed's per-evaluation early
        stop: nothing past the first target-reaching config is evaluated."""
        objective = CountingObjective(fn=lambda c: 1.0)
        problem = HPOProblem(quadratic_space(), engine=EvaluationEngine(objective))
        ga = GeneticAlgorithm(
            population_size=10, n_generations=5, target_score=0.5, random_state=0
        )
        result = ga.optimize(problem, HPOBudget(max_evaluations=100))
        assert objective.calls == 1
        assert result.n_evaluations == 1

    def test_engine_reuses_executor_across_batches(self):
        engine = EvaluationEngine(quadratic, n_workers=2)
        engine.evaluate_many([{"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0}])
        first = engine._executor
        engine.evaluate_many([{"x": 2.0, "y": 2.0}, {"x": 3.0, "y": 3.0}])
        assert engine._executor is first is not None
        engine.close()
        assert engine._executor is None

    def test_trials_flag_cached_evaluations(self):
        space = ConfigSpace([CategoricalParam("mode", ["a", "b"])])
        engine = EvaluationEngine(lambda c: 1.0 if c["mode"] == "a" else 0.0)
        problem = HPOProblem(space, engine=engine)
        result = RandomSearch(random_state=0).optimize(problem, HPOBudget(max_evaluations=6))
        assert any(t.cached for t in result.trials)
        assert result.engine_stats["n_cache_hits"] > 0


class TestBudgetSemantics:
    def test_clock_starts_at_optimize_not_construction(self):
        """The seed's Budget started its clock in __post_init__, so setup time
        leaked into OptimizationResult.elapsed.  The engine/optimize entry now
        owns the start."""
        budget = HPOBudget(max_evaluations=5)
        time.sleep(0.05)
        problem = HPOProblem(quadratic_space(), quadratic)
        result = RandomSearch(random_state=0).optimize(problem, budget)
        assert result.elapsed < 0.05

    def test_start_keeps_prior_evaluations(self):
        budget = Budget(max_evaluations=10)
        budget.record_evaluation()
        budget.record_evaluation()
        budget.start()
        assert budget.evaluations == 2
        assert budget.remaining_evaluations() == 8

    def test_restart_resets_everything(self):
        budget = Budget(max_evaluations=3)
        for _ in range(3):
            budget.record_evaluation()
        assert budget.exhausted()
        budget.restart()
        assert not budget.exhausted()
        assert budget.evaluations == 0

    def test_unstarted_budget_reports_zero_elapsed(self):
        assert Budget().elapsed == 0.0


class TestSelectorSeeding:
    def _space(self):
        return ConfigSpace([FloatParam("x", 0.0, 1.0)])

    def test_probes_charge_budget_and_seed_cache(self):
        objective = CountingObjective(fn=lambda c: c["x"])
        engine = EvaluationEngine(objective)
        budget = Budget(max_evaluations=10)
        selector = HPOTechniqueSelector(time_threshold=10.0, n_probes=2, random_state=0)
        selector.select(self._space(), engine=engine, budget=budget)
        assert budget.evaluations == 2  # probes are no longer off-the-books
        assert objective.calls == 2  # probes bypass cache reads for real timings
        default = self._space().default_configuration()
        assert engine.cached_score(default) is not None  # ... but seed it

    def test_optimizer_reuses_probe_result_as_anchor_trial(self):
        engine = EvaluationEngine(lambda c: c["x"])
        budget = Budget(max_evaluations=8)
        selector = HPOTechniqueSelector(time_threshold=10.0, n_probes=1, random_state=0)
        optimizer = selector.select(self._space(), engine=engine, budget=budget)
        problem = HPOProblem(self._space(), engine=engine)
        result = optimizer.optimize(problem, budget)
        # GA evaluates the default configuration first: it must be a cache hit.
        assert result.trials[0].cached
        assert len(result.trials) + 1 <= 9  # probe counted against the budget


class TestStoreIntegration:
    """The engine's write-through persistence tier (satellite hardening sweep)."""

    def test_write_through_persists_every_execution(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        engine = EvaluationEngine(quadratic, store=store, name="wt")
        configs = [{"x": float(i), "y": 0.0} for i in range(5)]
        engine.evaluate_many(configs)
        assert store.stats.writes == 5
        reopened = ResultStore(tmp_path / "s")
        for config in configs:
            assert reopened.get("wt", config_fingerprint(config)) == quadratic(config)

    def test_thread_parallel_duplicates_write_once_in_order(self, tmp_path):
        """Satellite acceptance: thread-parallel evaluate_many over duplicate
        configs → exactly one store write per fingerprint, deterministic
        input-aligned ordering."""
        store = ResultStore(tmp_path / "s")
        objective = CountingObjective()
        engine = EvaluationEngine(objective, n_workers=4, store=store, name="dup")
        distinct = [{"x": float(i), "y": float(-i)} for i in range(4)]
        batch = [dict(distinct[i % 4]) for i in range(20)]  # 5 copies each
        outcomes = engine.evaluate_many(batch)
        assert [o.score for o in outcomes] == [quadratic(c) for c in batch]
        assert objective.calls == 4
        assert store.stats.writes == 4  # one line per fingerprint
        assert store.stats.duplicate_writes == 0
        # Deterministic ordering: a repeat run returns the same aligned scores.
        repeat = engine.evaluate_many(batch)
        assert [o.score for o in repeat] == [o.score for o in outcomes]
        assert store.stats.writes == 4  # still nothing new on disk

    def test_racing_engine_threads_write_each_fingerprint_once(self, tmp_path):
        """Concurrent evaluate_many calls (no shared wave) still produce one
        store line per fingerprint thanks to idempotent puts."""
        store = ResultStore(tmp_path / "s")
        engine = EvaluationEngine(quadratic, store=store, name="race")
        configs = [{"x": float(i % 3), "y": 1.0} for i in range(9)]
        barrier = threading.Barrier(4)
        results: list[list] = [[] for _ in range(4)]

        def run(slot: int) -> None:
            barrier.wait()
            results[slot] = engine.evaluate_many(configs)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = [quadratic(c) for c in configs]
        for outcome_list in results:
            assert [o.score for o in outcome_list] == expected
        assert store.stats.writes == 3  # three distinct fingerprints, ever
        reopened = ResultStore(tmp_path / "s")
        assert reopened.size("race") == 3
        assert reopened.stats.corrupt_records == 0

    def test_warm_start_replays_prior_run(self, tmp_path):
        objective = CountingObjective()
        cold = EvaluationEngine(objective, store=ResultStore(tmp_path / "s"), name="e")
        configs = [{"x": float(i), "y": 2.0} for i in range(6)]
        cold_scores = [o.score for o in cold.evaluate_many(configs)]
        warm_objective = CountingObjective()
        warm = EvaluationEngine(
            warm_objective,
            store=ResultStore(tmp_path / "s"),
            warm_start=True,
            name="e",
        )
        warm_scores = [o.score for o in warm.evaluate_many(configs)]
        assert warm_scores == cold_scores
        assert warm_objective.calls == 0
        assert warm.stats.n_store_hits == 6
        assert warm.stats.n_executions == 0
        assert warm.stats.as_dict()["n_store_hits"] == 6

    def test_warm_start_off_by_default_even_with_store(self, tmp_path):
        EvaluationEngine(quadratic, store=ResultStore(tmp_path / "s"), name="e").evaluate(
            {"x": 1.0, "y": 1.0}
        )
        objective = CountingObjective()
        second = EvaluationEngine(objective, store=ResultStore(tmp_path / "s"), name="e")
        second.evaluate({"x": 1.0, "y": 1.0})
        assert objective.calls == 1  # store present but not read
        assert second.stats.n_store_hits == 0

    def test_store_contexts_do_not_leak_across_engines(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        EvaluationEngine(quadratic, store=store, name="a").evaluate({"x": 0.0, "y": 0.0})
        objective = CountingObjective()
        other = EvaluationEngine(objective, store=store, warm_start=True, name="b")
        other.evaluate({"x": 0.0, "y": 0.0})
        assert objective.calls == 1  # context "b" never saw context "a"'s score


class TestWarmStartEquivalence:
    """Satellite acceptance: with a pre-populated store the optimizer result
    is score-identical to the cold run under the same seed — just cheaper."""

    def _run_ga(self, store, warm: bool):
        objective = CountingObjective()
        engine = EvaluationEngine(
            objective, store=store, warm_start=warm, name="ga-ws"
        )
        problem = HPOProblem(quadratic_space(), engine=engine)
        optimizer = GeneticAlgorithm(population_size=8, n_generations=5, random_state=11)
        result = optimizer.optimize(problem, HPOBudget(max_evaluations=40))
        return result, engine, objective

    def test_ga_warm_run_is_score_identical_and_free(self, tmp_path):
        cold, cold_engine, cold_objective = self._run_ga(
            ResultStore(tmp_path / "s"), warm=False
        )
        warm, warm_engine, warm_objective = self._run_ga(
            ResultStore(tmp_path / "s"), warm=True
        )
        assert [t.score for t in warm.trials] == [t.score for t in cold.trials]
        assert warm.best_config == cold.best_config
        assert warm.best_score == cold.best_score
        # Same logical trajectory, zero objective calls the second time round.
        assert warm_objective.calls == 0
        assert warm_engine.stats.n_executions == 0
        assert warm_engine.stats.n_store_hits > 0
        assert warm_engine.stats.n_evaluations == cold_engine.stats.n_evaluations
        assert cold_objective.calls == cold_engine.stats.n_executions

    def test_warm_start_seeding_promotes_prior_best(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        best = {"x": 1.0, "y": -2.0}  # the quadratic's optimum
        store.put("rs", config_fingerprint(best), quadratic(best), config=best)
        engine = EvaluationEngine(quadratic, store=store, warm_start=True, name="rs")
        problem = HPOProblem(quadratic_space(), engine=engine)
        optimizer = RandomSearch(random_state=0, warm_start=3)
        result = optimizer.optimize(problem, HPOBudget(max_evaluations=10))
        # Trial 0 is the default anchor; trial 1 re-ranks the stored best.
        assert result.trials[1].config == best
        assert result.trials[1].cached
        assert result.best_score == quadratic(best)

    def test_seeding_strips_foreign_keys_and_invalid_configs(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        good = {"x": 0.5, "y": 0.5, "__budget__": 27.0}  # fidelity key rides along
        bad = {"x": 99.0, "y": 0.0}  # out of the space's domain
        store.put("sel", config_fingerprint(good), 1.0, config=good)
        store.put("sel", config_fingerprint(bad), 2.0, config=bad)
        engine = EvaluationEngine(quadratic, store=store, warm_start=True, name="sel")
        problem = HPOProblem(quadratic_space(), engine=engine)
        optimizer = RandomSearch(random_state=0, warm_start=5)
        seeds = optimizer._warm_start_configs(problem)
        assert seeds == [{"x": 0.5, "y": 0.5}]


class TestFoldPlan:
    def test_scores_match_the_fold_loop(self, binary_xy):
        X, y = binary_xy
        plan = FoldPlan.stratified(y, cv=4, random_state=3)
        stump = DecisionStump()
        folds = stratified_folds(y, cv=4, random_state=3)
        assert plan.score(stump, X, y) == pytest.approx(
            cross_val_score_folds(stump, X, y, folds).mean()
        )

    def test_estimator_engine_scores_match_direct_cv(self, binary_xy):
        X, y = binary_xy
        engine = estimator_engine(
            lambda config: DecisionStump(), X, y, cv=4, random_state=3
        )
        outcome = engine.evaluate({})
        folds = stratified_folds(y, cv=4, random_state=3)
        assert outcome.score == pytest.approx(
            cross_val_score_folds(DecisionStump(), X, y, folds).mean()
        )

    def test_build_crash_scores_crash_score(self, binary_xy):
        X, y = binary_xy

        def build(config):
            raise RuntimeError("cannot build")

        engine = estimator_engine(build, X, y, cv=3, random_state=0)
        assert engine.evaluate({}).score == float("-inf")
        assert engine.stats.n_crashes == 1
