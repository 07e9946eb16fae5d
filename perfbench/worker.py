"""One workload run in its own process: set up, report ready, measure, check.

``run.py`` starts this process, times its set-up from the outside (process
start until the ``ready`` line), and reads the ``result`` line.  Protocol
lines start with ``PERFBENCH``; anything else on stdout is the program's.

    python3 perfbench/worker.py --workload build --seed 1 --seconds 25 \
        --trace 0 --tmp DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402


def emit(kind: str, payload: dict) -> None:
    print(f"PERFBENCH {kind} {json.dumps(payload)}", flush=True)


class Workload:
    """``setup()`` prepares everything, ``measure()`` runs the timed work and
    returns ``(work_s, attempted, failed, report)``: ``work_s`` is the summed
    latency of the workload's operations, each timed from when it was due."""

    algorithms: list[str] = []
    keeps_cpus_awake = False

    def __init__(self, seed: int, seconds: float, tmp: Path, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.tracer = tracer

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self) -> dict:
        return {}


class Build(Workload):
    """Offline path: performance table -> corpus -> DMD."""

    algorithms = inputs.BUILD_CATALOGUE

    def setup(self) -> None:
        from repro.core import DecisionMakingModelDesigner
        from repro.learners import default_registry

        self.registry = default_registry().subset(inputs.BUILD_CATALOGUE)
        with self.span("datasets.generate"):
            self.pool = inputs.build_pool(self.seed)
        # The DMD budgets of the benchmark harness in ``benchmarks/conftest.py``.
        self.dmd = DecisionMakingModelDesigner(
            feature_population=12,
            feature_generations=6,
            feature_max_evaluations=60,
            architecture_population=10,
            architecture_generations=4,
            architecture_max_evaluations=24,
            cv=3,
            random_state=0,
        )

    def measure(self):
        import numpy as np
        from repro.corpus import CorpusConfig, generate_corpus
        from repro.evaluation import PerformanceTable

        start = time.monotonic()
        table = PerformanceTable.compute(
            self.pool,
            registry=self.registry,
            tune=False,
            cv=3,
            max_records=inputs.TABLE_RECORDS,
            random_state=0,
        )
        with self.span("corpus.generate"):
            corpus, _ = generate_corpus(
                self.pool,
                registry=self.registry,
                config=CorpusConfig(n_papers=20, random_state=0),
                performance=table,
            )
        result = self.dmd.run(corpus, {d.name: d for d in self.pool})
        self.window = (start, time.monotonic())
        work_s = self.window[1] - start

        scores = table.scores
        attempted = scores.size
        ok_cells = np.isfinite(scores) & (scores > 0.0) & (scores <= 1.0)
        failed = int(attempted - ok_cells.sum())
        checks = {
            "one_row_per_dataset": table.datasets == [d.name for d in self.pool]
            and scores.shape == (len(self.pool), len(self.registry.names)),
            "at_least_4_knowledge_pairs": len(result.knowledge_base) >= 4,
        }
        knowledge = result.knowledge_base.datasets
        picks = result.model.select_many(knowledge)
        checks["picks_in_catalogue"] = all(p in self.registry.names for p in picks)
        failed += sum(not ok for ok in checks.values())
        pick_poratio = float(
            np.mean([table.poratio(p, d.name) for p, d in zip(picks, knowledge)])
        )
        self.counts = {
            "evaluation.cells": attempted,
            "evaluation.cells_failed": int(attempted - ok_cells.sum()),
            "core.knowledge_pairs": len(result.knowledge_base),
            "core.distinct_picks": len(set(picks)),
            "core.pick_poratio": pick_poratio,
        }
        report = {
            "build_s": work_s,
            "pick_poratio": pick_poratio,
            "knowledge_pairs": len(result.knowledge_base),
            "picks": sorted(set(picks)),
            "checks": checks,
        }
        return work_s, attempted, failed, report

    def layer_extras(self) -> dict:
        return self.counts


class Tune(Workload):
    """Online path: preselected UDR tuning, then export compile + predict."""

    algorithms = [algorithm for _, algorithm in inputs.TUNE_QUERIES]

    def setup(self) -> None:
        from repro import ResultStore, UserDemandResponser
        from repro.learners import default_registry

        self.registry = default_registry().subset(self.algorithms)
        with self.span("datasets.generate"):
            self.queries = inputs.tune_queries(self.seed)
        # A fresh store per run: every evaluation is written, none replayed.
        self.udr = UserDemandResponser(
            model=None,  # every query is preselected; the SNA is never asked
            registry=self.registry,
            cv=5,
            tuning_max_records=inputs.TUNE_RECORDS,
            # A forest's default configuration takes 1-2 s to score here, so
            # the 2 s probe rule would flip between GA and BO with machine
            # speed; the raised threshold keeps the GA.  A query's budget
            # covers the selector's 2 probes and 14 of the GA's initial
            # population of 20, so no GA generation runs.
            probe_time_threshold=3600.0,
            random_state=0,
            n_workers=1,
            store=ResultStore(self.tmp / "store"),
        )

    def measure(self):
        import numpy as np
        from repro.export import compile_model
        from repro.learners.pipeline import training_matrix

        answers = []
        start = time.monotonic()
        for op, (dataset, algorithm) in enumerate(self.queries):
            if self.tracer is not None:
                self.tracer.op = op
            answer = self.udr.respond(
                dataset,
                algorithm=algorithm,
                max_evaluations=inputs.TUNE_EVALUATIONS,
                time_limit=None,
            )
            X, _ = training_matrix(dataset, self.registry.get(algorithm))
            exported = None
            if algorithm in inputs.TUNE_EXPORTED:
                with self.span("export.compile"):
                    model = compile_model(answer.estimator)
                exported = model.predict(X.tolist())
            answers.append((dataset, algorithm, answer, X, exported))
        self.window = (start, time.monotonic())
        work_s = self.window[1] - start
        if self.tracer is not None:
            self.tracer.op = None

        failed = 0
        failures = []
        for dataset, algorithm, answer, X, exported in answers:
            problems = []
            if not self.registry.get(algorithm).space.validate(answer.config):
                problems.append("config outside the space")
            if not math.isfinite(answer.cv_score):
                problems.append("cv score not finite")
            # A guard: with the probe threshold raised the selector keeps the
            # GA, so this fails only if the selector's rule itself changes.
            if answer.optimizer != "genetic-algorithm":
                problems.append(f"selector picked {answer.optimizer}")
            if answer.estimator is None:
                problems.append("no final estimator")
            elif exported is not None and exported != answer.estimator.predict(X).tolist():
                problems.append("exported predictions differ")
            if problems:
                failed += 1
                failures.append({"dataset": dataset.name, "algorithm": algorithm, "problems": problems})
        answer_score = float(np.mean([a.cv_score for _, _, a, _, _ in answers]))
        self.quality = {"core.answer_score": answer_score}
        report = {
            "tune_s": work_s,
            "answer_score": answer_score,
            "answers": [
                {"algorithm": alg, "cv_score": round(a.cv_score, 4), "optimizer": a.optimizer}
                for _, alg, a, _, _ in answers
            ],
            "failures": failures,
        }
        return work_s, len(answers), failed, report

    def layer_extras(self) -> dict:
        return self.quality


class Serve(Workload):
    """HTTP ``/recommend`` against ``python -m repro.service serve``."""

    algorithms = inputs.SERVE_CATALOGUE
    model_name = "bench"
    # Set-up and both phases leave the CPUs idle between requests and polls.
    keeps_cpus_awake = True

    def setup(self) -> None:
        from repro import AutoModel, DecisionMakingModelDesigner
        from repro.learners import default_registry
        from repro.service import ModelRegistry

        registry_dir = self.tmp / "registry"
        registry_dir.mkdir(parents=True)
        self.spans_path = self.tmp / "server-spans.json"
        # Boot first: the server imports while this process fits the model.
        self.server = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve_launcher.py"),
                "--trace", "1" if self.tracer is not None else "0",
                "--spans", str(self.spans_path),
                "serve", "--registry", str(registry_dir), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        with self.span("datasets.generate"):
            knowledge = inputs.serve_knowledge(self.seed)
            # The closed phase is a tenth of the open one: its requests stall
            # on the transport (see README), so it stays the smaller part of
            # the summed latency and the server's own time the larger.
            self.n_open = max(int(inputs.SERVE_RATE * self.seconds * 0.8), 100)
            self.n_closed = self.n_open // 10
            known_bodies, refine, self.open_bodies, self.closed_bodies = inputs.serve_plan(
                self.seed, self.n_open, self.n_closed, self.model_name
            )
        model = AutoModel.fit_from_datasets(
            knowledge,
            registry=default_registry().subset(inputs.SERVE_CATALOGUE),
            dmd=DecisionMakingModelDesigner(
                skip_feature_selection=True,
                architecture_population=4,
                architecture_generations=1,
                architecture_max_evaluations=4,
                cv=2,
                random_state=0,
            ),
            cv=2,
            max_records=80,
        )
        ModelRegistry(registry_dir).publish(model, self.model_name)
        line = self.server.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        host_port = line.split("http://", 1)[1].split()[0]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        self.connections = [self._connect() for _ in range(2)]
        self.client_requests = 0
        self._count_lock = threading.Lock()
        # Refine every other known dataset through the server's own job route.
        jobs = [self._call(0, "POST", "/jobs", json.dumps(body).encode())[1] for body in refine]
        for job in jobs:
            while True:
                status, record = self._call(0, "GET", f"/jobs/{job['job_id']}")
                if record["status"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            if record["status"] != "done":
                raise RuntimeError(f"refine job failed: {record}")
        # Warm-up: every known dataset once, on both connections.
        for i, body in enumerate(known_bodies):
            self._recommend(i % 2, body)

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        conn.connect()
        return conn

    def _call(self, k: int, method: str, path: str, body: bytes | None = None):
        conn = self.connections[k]
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def _recommend(self, k: int, body: bytes):
        """One ``POST /recommend``; ``(status, payload, retried)``.  A dropped
        keep-alive connection is reopened and the request sent once more."""
        self._count()
        try:
            return (*self._call(k, "POST", "/recommend", body), 0)
        except (http.client.HTTPException, ConnectionError):
            self.connections[k].close()
            self.connections[k] = self._connect()
            self._count()
            try:
                return (*self._call(k, "POST", "/recommend", body), 1)
            except (http.client.HTTPException, ConnectionError):
                return 0, {}, 1

    def _count(self) -> None:
        with self._count_lock:
            self.client_requests += 1

    def _metrics(self) -> dict:
        return self._call(0, "GET", "/metrics")[1]

    def _phase(self, bodies: list[bytes], rate: float | None) -> list[dict]:
        """Send ``bodies`` over both connections: on a fixed schedule at
        ``rate`` requests/s (open loop) or back to back (``rate=None``)."""
        records: list[dict | None] = [None] * len(bodies)
        start = time.monotonic() + 0.05

        def drive(k: int) -> None:
            for i in range(k, len(bodies), 2):
                due = start + i / rate if rate else time.monotonic()
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                status, payload, retried = self._recommend(k, bodies[i])
                done = time.monotonic()
                records[i] = {
                    "due": due, "sent": sent, "done": done, "status": status,
                    "payload": payload if status == 200 else {}, "retried": retried,
                }

        threads = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records

    def measure(self):
        m0 = self._metrics()
        self.t_open = time.monotonic()
        open_records = self._phase(self.open_bodies, inputs.SERVE_RATE)
        m1 = self._metrics()
        self.t_closed = time.monotonic()
        closed_records = self._phase(self.closed_bodies, None)
        self.window = (self.t_open, time.monotonic())
        m2 = self._metrics()
        self.server_rss_mb = _vm_hwm_mb(self.server.pid)

        records = open_records + closed_records
        ok = [r for r in records if r["status"] == 200]
        failed = len(records) - len(ok)
        catalogue = set(inputs.SERVE_CATALOGUE)
        bad_answers = [r for r in ok if r["payload"].get("algorithm") not in catalogue]
        failed += len(bad_answers)
        server_count = _recommend_count(m2)
        counts_agree = server_count == self.client_requests
        failed += 0 if counts_agree else 1

        work_s = sum(r["done"] - r["due"] for r in open_records) + sum(
            r["done"] - r["sent"] for r in closed_records
        )
        tuned_share = sum(r["payload"].get("config_source") == "tuned-store" for r in ok) / max(len(ok), 1)
        open_ms = sorted(
            (r["done"] - r["due"]) * 1000.0 if r["status"] == 200 else math.inf
            for r in open_records
        )
        closed_ok = [r for r in closed_records if r["status"] == 200]
        closed_wall = max(r["done"] for r in closed_records) - min(r["sent"] for r in closed_records)
        tail_q = 1.0 - 10.0 / len(open_ms)  # the highest percentile with 10 samples beyond
        self.phases = {
            "open": _split(open_records, m0, m1),
            "closed": _split(closed_records, m1, m2),
        }
        self.service = {
            "service.server_ms_p50": _recommend_latency(m1).get("p50_ms") or 0.0,
            "service.dispatch_ms_p50": self.phases["open"]["dispatch_ms_p50"],
            "service.busy_client_ms_p50": self.phases["closed"]["client_ms_p50"],
            # Median client latency minus the mean server handler time.
            "service.transport_ms_p50": self.phases["closed"]["client_ms_p50"]
            - self.phases["closed"]["server_ms_mean"],
            "service.batch_size_mean": statistics.fmean(
                r["payload"].get("batch_size", 0) for r in ok
            ) if ok else 0.0,
            "service.tuned_share": tuned_share,
            "service.retried": sum(r["retried"] for r in records),
            "service.generator_lag_ms_max": max(r["sent"] - r["due"] for r in open_records) * 1000.0,
        }
        report = {
            "recommend_p50_ms": _quantile(open_ms, 0.5),
            f"recommend_p{100 * tail_q:.1f}_ms": _quantile(open_ms, tail_q),
            "recommend_p99_ms": _quantile(open_ms, 0.99),
            "open_requests": len(open_records),
            "recommend_rps": len(closed_ok) / closed_wall,
            "closed_requests": len(closed_records),
            "tuned_share": tuned_share,
            "client_requests": self.client_requests,
            "server_recommend_count": server_count,
            "split_ms": self.phases,
        }
        return work_s, len(records), failed, report

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def close(self) -> None:
        for conn in getattr(self, "connections", []):
            conn.close()
        if not hasattr(self, "server"):
            return
        if self.server.poll() is None:
            self.server.terminate()
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()

    def server_spans(self) -> list:
        if not self.spans_path.exists():
            return []
        return json.loads(self.spans_path.read_text())

    def layer_extras(self) -> dict:
        server = self.server_spans()
        open_window = (self.t_open, self.t_closed)
        out = dict(self.service)
        out["service.parse_ms_p50"] = layers.median_ms(server, "service.parse", open_window)
        forward = layers.median_ms(server, "core.forward", open_window)
        out["service.queue_wait_ms_p50"] = max(out["service.dispatch_ms_p50"] - forward, 0.0)
        for phase, split in self.phases.items():
            for part in ("client", "server", "dispatch", "transport"):
                out[f"service.{phase}.{part}_ms_mean"] = split[f"{part}_ms_mean"]
        return out


# A busy loop the kernel runs only when its CPU has nothing else to run; it
# ends by itself if its parent dies.
_IDLE_LOOP = """\
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print("ready", flush=True)
parent = int(sys.argv[1])
while os.getppid() == parent:
    pass
"""


@contextlib.contextmanager
def cpus_kept_awake():
    """One SCHED_IDLE busy loop per CPU while the block runs.

    An idle vCPU halts and the host deschedules it; how fast and how cold it
    comes back depends on the host's other tenants, which swung the server's
    time per open-loop request by half from one run to the next.  The loops
    keep the CPUs from halting, and any waking thread of the client or the
    server preempts them at once."""
    loops = []
    try:
        for _ in os.sched_getaffinity(0):
            loops.append(subprocess.Popen(
                [sys.executable, "-c", _IDLE_LOOP, str(os.getpid())],
                stdout=subprocess.PIPE,
                text=True,
            ))
        for loop in loops:
            if loop.stdout.readline().strip() != "ready":
                raise RuntimeError("a SCHED_IDLE busy loop did not start")
        yield
    finally:
        for loop in loops:
            loop.kill()
            loop.wait()
            loop.stdout.close()


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the server process")


def _recommend_latency(metrics: dict) -> dict:
    return metrics["http"]["endpoints"].get("POST /recommend", {}).get("latency", {})


def _recommend_count(metrics: dict) -> int:
    return metrics["http"]["endpoints"].get("POST /recommend", {}).get("n_requests", 0)


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list (``inf`` propagates)."""
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == math.inf:
        return math.inf if position > low or ordered[low] == math.inf else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _split(records: list[dict], before: dict, after: dict) -> dict:
    """Client / transport / server / dispatcher split of one phase.

    Means are exact per phase: the server's per-phase handler mean comes from
    the ``/metrics`` count and mean before and after the phase.  Transport is
    client time minus server handler time; dispatch is each response's
    ``latency_ms`` (dispatcher queue + batch)."""
    ok = [r for r in records if r["status"] == 200]
    client = [(r["done"] - r["sent"]) * 1000.0 for r in ok]
    dispatch = [r["payload"]["latency_ms"] for r in ok]
    lat0, lat1 = _recommend_latency(before), _recommend_latency(after)
    n0, n1 = lat0.get("count", 0), lat1.get("count", 0)
    total0 = (lat0.get("mean_ms") or 0.0) * n0
    total1 = (lat1.get("mean_ms") or 0.0) * n1
    server_mean = (total1 - total0) / (n1 - n0) if n1 > n0 else 0.0
    client_mean = statistics.fmean(client) if client else 0.0
    return {
        "requests": len(records),
        "client_ms_mean": client_mean,
        "client_ms_p50": statistics.median(client) if client else 0.0,
        "server_ms_mean": server_mean,
        "transport_ms_mean": client_mean - server_mean,
        "dispatch_ms_mean": statistics.fmean(dispatch) if dispatch else 0.0,
        "dispatch_ms_p50": statistics.median(dispatch) if dispatch else 0.0,
    }


WORKLOADS = {"build": Build, "tune": Tune, "serve": Serve}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    with cpus_kept_awake() if cls.keeps_cpus_awake else contextlib.nullcontext():
        return run(cls, args)


def run(cls, args) -> int:
    tracer = spans.Tracer() if args.trace else None
    start = time.monotonic()
    import repro  # noqa: F401 — the package import is part of set-up
    import_s = time.monotonic() - start

    if tracer is not None:
        spans.install(tracer, cls.algorithms)
    workload = cls(args.seed, args.seconds, args.tmp, tracer)
    try:
        workload.setup()
        emit("ready", {})
        if args.setup_only:
            return 0
        work_s, attempted, failed, report = workload.measure()
        peak = workload.peak_rss_mb()
    finally:
        workload.close()
    result = {
        "work_s": work_s,
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": failed,
        "report": report,
    }
    if tracer is not None:
        server = workload.server_spans() if isinstance(workload, Serve) else []
        result["layers"] = layers.layer_metrics(
            client=tracer.spans,
            server=server,
            window=workload.window,
            work_s=work_s,
            import_s=import_s,
            span_cost_s=spans.wrapper_cost_s(),
            extras=workload.layer_extras(),
        )
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
