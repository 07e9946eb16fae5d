"""In-memory span recorder for the traced benchmark run.

``install(tracer, algorithms)`` wraps the public entry points of every layer
with span recorders.  A span is
``[name, start, end, parent, op, attrs]``: ``start``/``end`` come from
``time.monotonic`` (one clock for every process on the host, so client and
server spans line up), ``parent`` is the index of the enclosing span on the
same thread (-1 for a root) and ``op`` is the operation id every span of one
operation shares.  Spans stay in memory until the run ends.

The wrappers call the original function unchanged; they only record time and,
for the engine and the feature cache, the change of the object's own counters
across the call.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, ATTRS = range(6)

# The engine stats counters an engine span records as deltas.
_ENGINE_COUNTERS = ("n_executions", "n_cache_hits", "n_crashes")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None  # the workload's current operation, if any
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.monotonic(), None, parent, None, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        if parent >= 0:
            record[OP] = self.spans[parent][OP]
        else:
            record[OP] = self.op if self.op is not None else index
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.monotonic()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.open(name, attrs or None)
        try:
            yield self.spans[index]
        finally:
            self.close(index)


def _wrap(tracer: Tracer, fn, name: str, attrs=None, counters=None):
    """``fn`` recorded as span ``name``; ``attrs(args)`` names the span's
    attributes, ``counters(args)`` returns an object whose listed integer
    counters are recorded as deltas across the call."""
    fn = getattr(fn, "_bench_original", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_attrs = attrs(args, kwargs) if attrs is not None else None
        watched = counters(args) if counters is not None else None
        before = (
            [getattr(watched[0], key) for key in watched[1]] if watched else None
        )
        index = tracer.open(name, span_attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            if watched:
                delta = {
                    key: getattr(watched[0], key) - old
                    for key, old in zip(watched[1], before)
                }
                record = tracer.spans[index]
                record[ATTRS] = {**(record[ATTRS] or {}), **delta}
            tracer.close(index)

    wrapper._bench_original = fn
    return wrapper


def wrapper_cost_s(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one wrapped call costs over a plain call: the median over
    ``rounds`` of ``calls`` calls to a no-op wrapped like a learner method."""

    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, noop, "noop", attrs=lambda args, kwargs: {"algorithm": "noop"})
    costs = []
    for _ in range(rounds):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _patch(tracer: Tracer, owner, attr: str, name: str, **options) -> None:
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(tracer, raw.__func__, name, **options)))
    else:
        setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, **options))


def install(tracer: Tracer, algorithms: list[str]) -> None:
    """Wrap every layer's public entry points, plus the catalogue learners in
    ``algorithms`` (their ``fit``/``predict``/``predict_proba``)."""
    from repro.core import (
        ArchitectureSearch,
        DecisionModel,
        FeatureSelector,
        KnowledgeAcquisition,
        UserDemandResponser,
    )
    from repro.evaluation import PerformanceTable
    from repro.execution import EvaluationEngine, ResultStore
    from repro.export import ExportedModel
    from repro.hpo import BaseOptimizer, HPOTechniqueSelector
    from repro.learners import default_registry
    from repro.learners.neural import MLPRegressor
    from repro.metafeatures import FeatureCache
    from repro.service import RecommendationService, http

    registry = default_registry()
    learner_names = {type(registry.build(name)): name for name in algorithms}
    learner_names[MLPRegressor] = "MLPRegressor"

    def learner_attrs(args, kwargs):
        cls = type(args[0])
        return {"algorithm": learner_names.get(cls, cls.__name__)}

    for cls in learner_names:
        for method, kind in (("fit", "fit"), ("predict", "predict"), ("predict_proba", "predict")):
            if hasattr(cls, method):
                _patch(tracer, cls, method, f"learners.{kind}", attrs=learner_attrs)

    engine_counters = lambda args: (args[0].stats, _ENGINE_COUNTERS)  # noqa: E731
    cache_counters = lambda args: (args[0].stats, ("hits", "misses"))  # noqa: E731
    rows = lambda args, kwargs: {"rows": len(args[1])}  # noqa: E731
    for owner, attr, name, options in (
        (PerformanceTable, "compute", "evaluation.table", {}),
        (EvaluationEngine, "evaluate", "execution.engine", {"counters": engine_counters}),
        (EvaluationEngine, "evaluate_many", "execution.engine", {"counters": engine_counters}),
        (BaseOptimizer, "optimize", "hpo.optimize", {}),
        (HPOTechniqueSelector, "select", "hpo.probe", {}),
        (ResultStore, "put", "execution.store_put", {}),
        (ResultStore, "get", "execution.store_read", {}),
        (ResultStore, "top_k", "execution.store_read", {}),
        (KnowledgeAcquisition, "run", "core.knowledge", {}),
        (FeatureSelector, "select", "core.feature_selection", {}),
        (ArchitectureSearch, "search", "core.architecture_search", {}),
        (ArchitectureSearch, "train_decision_model", "core.train", {}),
        (UserDemandResponser, "respond", "core.respond", {}),
        (DecisionModel, "scores_matrix", "core.forward", {}),
        (FeatureCache, "vector", "metafeatures.extract", {"counters": cache_counters}),
        (RecommendationService, "recommend_payload", "service.recommend", {}),
        (http, "dataset_from_json", "service.parse", {}),
        (ExportedModel, "predict", "export.predict", {"attrs": rows}),
    ):
        _patch(tracer, owner, attr, name, **options)
