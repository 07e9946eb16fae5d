"""Top-level package surface tests."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: a meta-path finder refuses every top-level
# module outside the standard library and the declared dependencies (numpy
# and scipy), then the package and its service-side subpackages are imported.
# ``_sysconfigdata*`` is stdlib that ``sys.stdlib_module_names`` omits (scipy
# reads it).  Optional imports inside numpy and scipy are refused too, and
# those packages tolerate the refusal.
PURITY_SCRIPT = """
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "repro"}


class DeclaredDependenciesOnly:
    @staticmethod
    def find_spec(name, path=None, target=None):
        top = name.partition(".")[0]
        if top in ALLOWED or top.startswith("_sysconfigdata"):
            return None
        raise ModuleNotFoundError(f"{name!r} is not a declared dependency", name=name)


sys.meta_path.insert(0, DeclaredDependenciesOnly)
import repro, repro.core, repro.service, repro.obs

print("networkx" in sys.modules)
"""


class TestPackageSurface:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_facade_symbols_exported(self):
        assert hasattr(repro, "AutoModel")
        assert hasattr(repro, "DecisionMakingModelDesigner")
        assert hasattr(repro, "UserDemandResponser")
        assert hasattr(repro, "Dataset")

    def test_subpackages_importable(self):
        for name in (
            "baselines",
            "core",
            "corpus",
            "datasets",
            "evaluation",
            "execution",
            "hpo",
            "learners",
            "metafeatures",
            "service",
        ):
            assert hasattr(repro, name)

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None

    def test_subpackage_all_entries_resolve(self):
        for module in (
            repro.learners,
            repro.hpo,
            repro.datasets,
            repro.corpus,
            repro.core,
            repro.baselines,
            repro.evaluation,
            repro.execution,
            repro.metafeatures,
            repro.service,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


class TestDeclaredDependencies:
    def test_package_imports_with_only_numpy_and_scipy(self):
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        result = subprocess.run(
            [sys.executable, "-c", PURITY_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]
