"""Tests for hyperparameter spaces (sampling, mutation, encoding, conditions)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpo import space as space_module
from repro.hpo.space import (
    BoolParam,
    CategoricalParam,
    Condition,
    ConfigSpace,
    FloatParam,
    IntParam,
)


@pytest.fixture()
def mixed_space() -> ConfigSpace:
    return ConfigSpace(
        [
            IntParam("n", 1, 50),
            FloatParam("lr", 1e-4, 1.0, log=True),
            CategoricalParam("kind", ["a", "b", "c"]),
            BoolParam("flag"),
        ]
    )


class TestParameters:
    def test_float_bounds_validation(self):
        with pytest.raises(ValueError):
            FloatParam("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            FloatParam("x", 0.0, 1.0, log=True)

    def test_int_bounds_validation(self):
        with pytest.raises(ValueError):
            IntParam("x", 5, 5)

    def test_categorical_needs_choices(self):
        with pytest.raises(ValueError):
            CategoricalParam("x", [])

    def test_float_unit_roundtrip(self):
        param = FloatParam("x", 2.0, 10.0)
        for value in (2.0, 5.0, 10.0):
            assert param.from_unit(param.to_unit(value)) == pytest.approx(value)

    def test_log_float_unit_roundtrip(self):
        param = FloatParam("x", 1e-3, 1e1, log=True)
        for value in (1e-3, 1e-1, 1e1):
            assert param.from_unit(param.to_unit(value)) == pytest.approx(value, rel=1e-9)

    def test_int_grid_is_unique_sorted_in_range(self):
        grid = IntParam("x", 1, 10).grid(5)
        assert grid == sorted(set(grid))
        assert all(1 <= v <= 10 for v in grid)

    def test_categorical_grid_returns_all_choices(self):
        assert CategoricalParam("x", ["a", "b"]).grid(17) == ["a", "b"]

    def test_bool_param_choices(self):
        assert set(BoolParam("x").choices) == {True, False}

    def test_mutation_stays_in_domain(self):
        rng = np.random.default_rng(0)
        int_param = IntParam("x", 1, 9)
        float_param = FloatParam("y", 0.0, 1.0)
        for _ in range(100):
            assert 1 <= int_param.mutate(5, rng) <= 9
            assert 0.0 <= float_param.mutate(0.5, rng) <= 1.0

    def test_categorical_mutation_changes_value_when_possible(self):
        rng = np.random.default_rng(0)
        param = CategoricalParam("x", ["a", "b"])
        assert param.mutate("a", rng) == "b"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            IntParam("", 1, 2)


class TestConfigSpace:
    def test_sample_is_valid(self, mixed_space):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert mixed_space.validate(mixed_space.sample(rng))

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace([IntParam("a", 1, 2), IntParam("a", 1, 3)])

    def test_default_configuration_valid(self, mixed_space):
        assert mixed_space.validate(mixed_space.default_configuration())

    def test_vector_roundtrip(self, mixed_space):
        rng = np.random.default_rng(1)
        config = mixed_space.sample(rng)
        roundtrip = mixed_space.from_vector(mixed_space.to_vector(config))
        assert roundtrip["kind"] == config["kind"]
        assert roundtrip["flag"] == config["flag"]
        assert roundtrip["n"] == config["n"]
        assert roundtrip["lr"] == pytest.approx(config["lr"], rel=1e-6)

    def test_crossover_takes_values_from_parents(self, mixed_space):
        rng = np.random.default_rng(2)
        a, b = mixed_space.sample(rng), mixed_space.sample(rng)
        child = mixed_space.crossover(a, b, rng)
        for name in mixed_space.names:
            assert child[name] in (a[name], b[name])

    def test_mutate_returns_valid_config(self, mixed_space):
        rng = np.random.default_rng(3)
        config = mixed_space.sample(rng)
        mutated = mixed_space.mutate(config, rng, mutation_rate=1.0)
        assert mixed_space.validate(mutated)

    def test_grid_respects_max_configs(self, mixed_space):
        grid = mixed_space.grid(resolution=4, max_configs=20)
        assert 0 < len(grid) <= 20
        assert all(mixed_space.validate(c) for c in grid)

    def test_validate_rejects_missing_and_out_of_range(self, mixed_space):
        config = mixed_space.default_configuration()
        assert not mixed_space.validate({k: v for k, v in config.items() if k != "n"})
        bad = dict(config)
        bad["n"] = 10_000
        assert not mixed_space.validate(bad)

    def test_condition_inactive_param_gets_default(self):
        space = ConfigSpace(
            [
                CategoricalParam("solver", ["sgd", "adam"]),
                FloatParam("momentum", 0.0, 1.0),
            ]
        )
        space.add_condition("momentum", Condition("solver", ("sgd",)))
        rng = np.random.default_rng(0)
        for _ in range(30):
            config = space.sample(rng)
            if config["solver"] != "sgd":
                assert config["momentum"] == space["momentum"].default()

    def test_condition_on_unknown_param_raises(self, mixed_space):
        with pytest.raises(KeyError):
            mixed_space.add_condition("nope", Condition("kind", ("a",)))


class TestSpaceProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_sampling_always_within_bounds(self, seed):
        space = ConfigSpace(
            [IntParam("i", -5, 17), FloatParam("f", 0.5, 2.0), CategoricalParam("c", [1, 2, 3])]
        )
        config = space.sample(np.random.default_rng(seed))
        assert -5 <= config["i"] <= 17
        assert 0.5 <= config["f"] <= 2.0
        assert config["c"] in (1, 2, 3)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_unit_encoding_is_monotone(self, u):
        param = FloatParam("x", 1.0, 100.0, log=True)
        value = param.from_unit(u)
        assert 1.0 <= value <= 100.0
        assert param.to_unit(value) == pytest.approx(u, abs=1e-9)


def _outcome(call):
    """``repr`` and type of ``call()``'s value, or the type it raised."""
    try:
        value = call()
    except (ValueError, OverflowError) as exc:
        return "raises", type(exc)
    return repr(value), type(value)


_any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 1.0])


class TestClipMatchesNumpy:
    """The parameters clamp Python scalars with ``min``/``max``; every method
    must return what the ``np.clip`` forms returned: same value, same type,
    NaN and signed zeros included, and the same exception where one raised."""

    @given(value=_any_float, low=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_clip_is_np_clip(self, value, low, width):
        high = low + width
        assert repr(float(space_module._clip(value, low, high))) == repr(
            float(np.clip(value, low, high))
        )

    @given(
        low=st.floats(1e-6, 1e3),
        width=st.floats(1e-3, 1e3),
        log=st.booleans(),
        u=_any_float,
        value=_any_float,
        whole=st.integers(-10**6, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_methods_match_the_np_clip_forms(self, low, width, log, u, value, whole, seed):
        real = FloatParam("x", low, low + width, log=log)
        count = IntParam("n", 1 + int(low), 2 + int(low + width), log=log)
        choice = CategoricalParam("c", ["a", "b", "c", "d"])
        calls = [
            lambda: real.from_unit(u),
            lambda: real.to_unit(value),
            lambda: real.mutate(value, np.random.default_rng(seed)),
            lambda: real.default(),
            lambda: count.from_unit(u),
            lambda: count.to_unit(whole),
            lambda: count.to_unit(value),
            lambda: count.sample(np.random.default_rng(seed)),
            lambda: count.mutate(whole, np.random.default_rng(seed)),
            lambda: count.default(),
            lambda: choice.from_unit(u),
        ]
        fast = [_outcome(call) for call in calls]
        with mock.patch.object(space_module, "_clip", np.clip):
            slow = [_outcome(call) for call in calls]
        assert fast == slow
