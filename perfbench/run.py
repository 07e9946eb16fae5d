"""Auto-Model end-to-end benchmark: ``build``, ``tune`` and ``serve``.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up three times (two set-up-only processes
plus the measured one), measures once with tracing off, checks the outputs
and prints the end-to-end metrics.  ``--trace 1`` runs the workload once
traced, checks the outputs and prints the per-layer metrics, the tracing
overhead included.  A human-readable report comes first; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

DEADLINE_S = 170.0  # one invocation, all child processes included
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_s": "s",
}


class BenchError(RuntimeError):
    pass


def child_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)  # nothing is written outside the checkout
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the load generator, server and learners share 2 CPUs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, root: Path, tmp: Path, deadline: float, trace: int, setup_only: bool):
    """Start one worker; returns ``(setup_s, result or None)``."""
    tmp.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--tmp", str(tmp),
    ] + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    # Its own session, so a timeout stops the worker and the server it started.
    child = subprocess.Popen(
        command, cwd=root, env=child_env(root, tmp), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(
        max(deadline - started, 0.0), os.killpg, (child.pid, signal.SIGKILL)
    )
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in child.stdout:
            if line.startswith("PERFBENCH ready"):
                setup_s = time.monotonic() - started
            elif line.startswith("PERFBENCH result "):
                result = json.loads(line[len("PERFBENCH result "):])
        code = child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        child.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise BenchError(f"worker exited with code {code}")
    return setup_s, result


def untraced(args, root: Path, tmp: Path, deadline: float):
    setups = [
        run_child(args, root, tmp / f"setup{i}", deadline, 0, True)[0]
        for i in range(SETUP_REPEATS - 1)
    ]
    setup_s, result = run_child(args, root, tmp / "run", deadline, 0, False)
    setups.append(setup_s)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "work_s": result["work_s"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result["report"]["setup_s_samples"] = setups
    return result, metrics


def traced(args, root: Path, tmp: Path, deadline: float):
    import layers

    _, result = run_child(args, root, tmp / "traced", deadline, 1, False)
    metrics = {
        name: {"value": result["layers"][name], "unit": layers.unit(name)}
        for name in layers.PER_LAYER
    }
    return result, metrics


def print_report(args, result: dict, metrics: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  ops attempted={result['attempted']} failed={result['failed']}")
    for key, value in result["report"].items():
        print(f"  {key}: {json.dumps(value)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("build", "tune", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    # Bytecode is compiled before anything is timed.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE.relative_to(root))],
        cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    try:
        if args.trace:
            result, metrics = traced(args, root, tmp, deadline)
        else:
            result, metrics = untraced(args, root, tmp, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print_report(args, result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
