"""Tests for the GP surrogate, the EI acquisition and the GA/BO selector."""

import time

import numpy as np
import pytest

from repro.hpo.bayesian import expected_improvement
from repro.hpo.genetic import GeneticAlgorithm
from repro.hpo.bayesian import BayesianOptimization
from repro.hpo.gp import GaussianProcess
from repro.hpo.selector import HPOTechniqueSelector, choose_hpo_technique
from repro.hpo.space import ConfigSpace, FloatParam


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(20, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        gp = GaussianProcess(noise=1e-8).fit(X, y)
        mean, std = gp.predict(X)
        np.testing.assert_allclose(mean, y, atol=1e-2)
        assert np.all(std < 0.2)

    def test_uncertainty_grows_away_from_data(self):
        X = np.array([[0.5, 0.5]])
        y = np.array([1.0])
        gp = GaussianProcess().fit(X, y)
        _, std_near = gp.predict(np.array([[0.5, 0.5]]))
        _, std_far = gp.predict(np.array([[3.0, 3.0]]))
        assert std_far[0] > std_near[0]

    def test_rbf_kernel_option(self):
        X = np.random.default_rng(1).uniform(size=(15, 1))
        y = X[:, 0] ** 2
        gp = GaussianProcess(kernel="rbf").fit(X, y)
        mean = gp.predict(X, return_std=False)
        assert np.mean((mean - y) ** 2) < 0.05

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcess(kernel="laplace")

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_log_marginal_likelihood_finite(self):
        X = np.random.default_rng(2).uniform(size=(10, 2))
        y = X.sum(axis=1)
        gp = GaussianProcess().fit(X, y)
        assert np.isfinite(gp.log_marginal_likelihood())


class TestExpectedImprovement:
    def test_zero_std_no_improvement(self):
        ei = expected_improvement(np.array([0.0]), np.array([0.0]), best=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_higher_mean_higher_ei(self):
        ei = expected_improvement(np.array([0.0, 2.0]), np.array([1.0, 1.0]), best=1.0)
        assert ei[1] > ei[0]

    def test_higher_std_higher_ei_below_incumbent(self):
        ei = expected_improvement(np.array([0.0, 0.0]), np.array([0.1, 2.0]), best=1.0)
        assert ei[1] > ei[0]

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(rng.normal(size=50), np.abs(rng.normal(size=50)), best=0.5)
        assert np.all(ei >= 0.0)

    def test_matches_scipy_stats_norm_bit_for_bit(self):
        # The written-out CDF/PDF must equal the stats.norm formula exactly,
        # signed zeros and infinities included (-inf * 0 is NaN in both).
        from scipy import stats

        z = np.concatenate([np.linspace(-40.0, 40.0, 80_001), [0.0, -0.0, np.inf, -np.inf]])
        mean, std, best, xi = z, np.ones_like(z), 0.0, 0.0
        with np.errstate(invalid="ignore"):
            expected = (mean - best - xi) * stats.norm.cdf(z) + std * stats.norm.pdf(z)
            actual = expected_improvement(mean, std, best, xi=xi)
        assert np.array_equal(actual, expected, equal_nan=True)

        rng = np.random.default_rng(1)
        mean, std = rng.normal(size=5000), np.abs(rng.normal(size=5000))
        std[::7] = 0.0  # clipped to 1e-12: huge |z|
        clipped = np.clip(std, 1e-12, None)
        improvement = mean - 0.3 - 0.01
        z = improvement / clipped
        expected = improvement * stats.norm.cdf(z) + clipped * stats.norm.pdf(z)
        assert np.array_equal(expected_improvement(mean, std, 0.3), expected)

    def test_import_repro_leaves_scipy_stats_out(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        code = "import sys, repro; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestSelector:
    def _space(self) -> ConfigSpace:
        return ConfigSpace([FloatParam("x", 0.0, 1.0)])

    def test_cheap_objective_selects_ga(self):
        selector = HPOTechniqueSelector(time_threshold=10.0, random_state=0)
        optimizer = selector.select(self._space(), lambda config: config["x"])
        assert isinstance(optimizer, GeneticAlgorithm)

    def test_expensive_objective_selects_bo(self):
        def slow(config):
            time.sleep(0.03)
            return config["x"]

        selector = HPOTechniqueSelector(time_threshold=0.01, n_probes=1, random_state=0)
        optimizer = selector.select(self._space(), slow)
        assert isinstance(optimizer, BayesianOptimization)

    def test_probe_tolerates_crashing_objective(self):
        selector = HPOTechniqueSelector(time_threshold=1.0, random_state=0)
        elapsed = selector.probe_evaluation_time(self._space(), lambda config: 1 / 0)
        assert elapsed >= 0.0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            HPOTechniqueSelector(time_threshold=0.0)
        with pytest.raises(ValueError):
            HPOTechniqueSelector(n_probes=0)

    def test_convenience_wrapper(self):
        optimizer = choose_hpo_technique(self._space(), lambda config: config["x"])
        assert isinstance(optimizer, (GeneticAlgorithm, BayesianOptimization))
