"""Smoke tests of the command-line entry points, run as real subprocesses.

These are the tests the CI ``service-smoke`` job runs: boot the server on an
ephemeral port via ``python -m repro.service serve``, issue ``/healthz`` and
``/recommend`` requests over the socket, and check ``python -m repro``.
"""

import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro import __version__
from repro.service import ModelRegistry

from _helpers import constant_automodel, dataset_payload

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class TestPackageEntryPoint:
    def test_version_flag(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True, env=_env(), timeout=120,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == __version__

    def test_default_report(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True, text=True, env=_env(), timeout=120,
        )
        assert out.returncode == 0
        assert __version__ in out.stdout
        assert "classification:" in out.stdout and "regression:" in out.stdout
        assert "J48" in out.stdout and "Ridge" in out.stdout
        assert "model registry:" in out.stdout
        assert "python -m repro.service serve" in out.stdout


class TestServiceCLI:
    def test_models_listing(self, tmp_path, clf_model):
        root = tmp_path / "registry"
        ModelRegistry(root).publish(clf_model, "clf")
        out = subprocess.run(
            [sys.executable, "-m", "repro.service", "models", "--registry", str(root)],
            capture_output=True, text=True, env=_env(), timeout=120,
        )
        assert out.returncode == 0
        listing = json.loads(out.stdout)
        assert listing["models"][0]["name"] == "clf"
        assert listing["models"][0]["current_version"] == "v0001"

    def test_serve_boot_healthz_recommend(self, tmp_path, clf_model, clf_dataset):
        root = tmp_path / "registry"
        ModelRegistry(root).publish(clf_model, "clf")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--registry", str(root), "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
        )
        try:
            line = proc.stdout.readline()
            assert "repro-service listening on http://" in line, line
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as resp:
                health = json.loads(resp.read())
            assert health["status"] == "ok"

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/recommend",
                data=json.dumps(
                    {"dataset": dataset_payload(clf_dataset), "model": "clf"}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                rec = json.loads(resp.read())
            assert rec["algorithm"] == "J48"
            assert rec["model"] == "clf" and rec["version"] == "v0001"
            assert proc.poll() is None  # still serving
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait(timeout=10)

    def test_serve_multiprocess_pool(self, tmp_path, clf_model, clf_dataset):
        """``serve --workers 2`` boots a pre-forked pool behind one port."""
        root = tmp_path / "registry"
        ModelRegistry(root).publish(clf_model, "clf")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--registry", str(root), "--port", "0", "--workers", "2",
                "--max-queue-depth", "64",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
        )
        try:
            line = proc.stdout.readline()
            assert "repro-service listening on http://" in line, line
            assert "workers: 2" in line
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/recommend",
                data=json.dumps(
                    {"dataset": dataset_payload(clf_dataset), "model": "clf"}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                rec = json.loads(resp.read())
            assert rec["algorithm"] == "J48"

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=30
            ) as resp:
                metrics = json.loads(resp.read())
            assert metrics["scope"] == "pool"
            assert len(metrics["workers"]) >= 1
            assert proc.poll() is None  # parent still supervising
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait(timeout=10)

    def test_serve_rejects_unknown_command(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.service", "frobnicate"],
            capture_output=True, text=True, env=_env(), timeout=120,
        )
        assert out.returncode != 0
