"""Per-layer metrics from the spans of a traced run.

``PER_LAYER`` is the fixed list every traced run prints (zero where a
workload does not reach the layer).  Times are seconds unless the name says
``_ms``.  A span's self time is its duration minus the time its child spans
cover; a learner's time counts its outermost span only, so an ensemble's
member fits are charged to the ensemble.
"""

from __future__ import annotations

import statistics

from inputs import BUILD_CATALOGUE, SERVE_CATALOGUE, TUNE_QUERIES
from spans import ATTRS, END, NAME, PARENT, START

LEARNERS = sorted(set(BUILD_CATALOGUE) | {a for _, a in TUNE_QUERIES} | set(SERVE_CATALOGUE))

SERVICE = [
    "service.parse_ms_p50",
    "service.server_ms_p50",
    "service.dispatch_ms_p50",
    "service.queue_wait_ms_p50",
    "service.transport_ms_p50",
    "service.busy_client_ms_p50",
    "service.batch_size_mean",
    "service.tuned_share",
    "service.retried",
    "service.generator_lag_ms_max",
] + [
    f"service.{phase}.{part}_ms_mean"
    for phase in ("open", "closed")
    for part in ("client", "server", "dispatch", "transport")
]

PER_LAYER = (
    ["repro.import_s", "datasets.generate_s"]
    + ["evaluation.table_s", "evaluation.cells", "evaluation.cells_failed"]
    + [f"learners.{a}.{kind}_s" for a in LEARNERS for kind in ("fit", "predict")]
    + ["learners.MLPRegressor.fit_s"]
    + [
        "execution.evaluations",
        "execution.cache_hit_ratio",
        "execution.crashes",
        "execution.engine_self_s",
        "execution.store_puts",
        "execution.store_put_s",
        "execution.store_reads",
        "execution.store_read_s",
        "hpo.probe_s",
        "hpo.optimizer_self_s",
        "corpus.generate_s",
        "core.knowledge_s",
        "core.feature_selection_s",
        "core.architecture_search_s",
        "core.train_s",
        "core.knowledge_pairs",
        "core.distinct_picks",
        "core.pick_poratio",
        "core.answer_score",
        "core.respond_s",
        "core.final_fit_s",
        "core.forward_s",
        "metafeatures.extract_s",
        "metafeatures.cache_hit_ratio",
        "export.compile_s",
        "export.predict_s",
        "export.rows",
    ]
    + SERVICE
    + ["trace.overhead_share", "trace.covered_share"]
)

UNITS = {
    "_s": "s", "_ms_p50": "ms", "_ms_mean": "ms", "_ms_max": "ms",
    "_share": "ratio", "_ratio": "ratio", "_poratio": "ratio", "_score": "ratio",
}


def unit(name: str) -> str:
    for suffix, value in UNITS.items():
        if name.endswith(suffix):
            return value
    return "count"


def _in_window(spans: list, window: tuple[float, float]) -> list[int]:
    low, high = window
    return [
        i for i, s in enumerate(spans)
        if s[END] is not None and s[START] >= low and s[END] <= high
    ]


def median_ms(spans: list, name: str, window: tuple[float, float]) -> float:
    durations = [
        (spans[i][END] - spans[i][START]) * 1000.0
        for i in _in_window(spans, window)
        if spans[i][NAME] == name
    ]
    return statistics.median(durations) if durations else 0.0


def _summarize(spans: list, window: tuple[float, float], out: dict) -> tuple[float, int]:
    """Fold the spans inside ``window`` into ``out``; returns the summed self
    time and the number of spans."""
    chosen = _in_window(spans, window)
    duration = {i: spans[i][END] - spans[i][START] for i in chosen}
    child_time: dict[int, float] = {}
    for i in chosen:
        parent = spans[i][PARENT]
        if parent in duration:
            child_time[parent] = child_time.get(parent, 0.0) + duration[i]

    def ancestors(i: int):
        parent = spans[i][PARENT]
        while parent >= 0:
            yield parent
            parent = spans[parent][PARENT]

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    total_self = 0.0
    engine_hits = engine_evals = cache_hits = cache_lookups = 0
    for i in chosen:
        name, attrs = spans[i][NAME], spans[i][ATTRS] or {}
        self_time = duration[i] - child_time.get(i, 0.0)
        total_self += self_time
        names_above = [spans[a][NAME] for a in ancestors(i)]
        if name.startswith("learners."):
            if any(n.startswith("learners.") for n in names_above):
                continue
            add(f"learners.{attrs['algorithm']}.{name.split('.')[1]}_s", duration[i])
            if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "core.respond":
                add("core.final_fit_s", duration[i])
        elif name == "execution.engine":
            add("execution.engine_self_s", self_time)
            if "execution.engine" in names_above:
                continue
            engine_evals += attrs["n_executions"] + attrs["n_cache_hits"]
            engine_hits += attrs["n_cache_hits"]
            add("execution.crashes", attrs["n_crashes"])
            add("hpo.optimizer_self_s", -duration[i] if "hpo.optimize" in names_above else 0.0)
        elif name == "hpo.optimize":
            if "hpo.optimize" not in names_above:
                add("hpo.optimizer_self_s", duration[i])
        elif name == "execution.store_put":
            add("execution.store_puts", 1)
            add("execution.store_put_s", duration[i])
        elif name == "execution.store_read":
            add("execution.store_reads", 1)
            add("execution.store_read_s", duration[i])
        elif name == "metafeatures.extract":
            if "metafeatures.extract" in names_above:
                continue
            add("metafeatures.extract_s", duration[i])
            cache_hits += attrs["hits"]
            cache_lookups += attrs["hits"] + attrs["misses"]
        elif name == "export.predict":
            add("export.predict_s", duration[i])
            add("export.rows", attrs["rows"])
        elif name in ("evaluation.table", "hpo.probe", "corpus.generate", "core.knowledge",
                      "core.feature_selection", "core.architecture_search", "core.train",
                      "core.respond", "core.forward", "export.compile"):
            if name not in names_above:
                add(f"{name}_s", duration[i])
    add("execution.evaluations", engine_evals)
    out["execution.cache_hit_ratio"] = engine_hits / engine_evals if engine_evals else 0.0
    out["metafeatures.cache_hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
    return total_self, len(chosen)


def layer_metrics(
    client: list,
    server: list,
    window: tuple[float, float],
    work_s: float,
    import_s: float,
    span_cost_s: float,
    extras: dict,
) -> dict:
    """Every ``PER_LAYER`` metric.  ``server`` holds the spans of a separate
    server process, when the workload has one; otherwise the program runs in
    the ``client`` process.  ``trace.overhead_share`` is estimated as the
    spans in the timed work times ``span_cost_s``, the cost of one wrapped
    call, over ``work_s``."""
    out: dict = {}
    program = server if server else client
    covered, n_spans = _summarize(program, window, out)
    out["repro.import_s"] = import_s
    out["datasets.generate_s"] = sum(
        s[END] - s[START] for s in client if s[NAME] == "datasets.generate"
    )
    out["trace.covered_share"] = covered / work_s if work_s > 0 else 0.0
    out["trace.overhead_share"] = n_spans * span_cost_s / work_s if work_s > 0 else 0.0
    out.update(extras)
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}
