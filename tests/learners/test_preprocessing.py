"""Tests for scalers, encoders and imputation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from repro.learners.preprocessing import (
    LabelEncoder,
    MinMaxScaler,
    OneHotEncoder,
    SimpleImputer,
    StandardScaler,
)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        Xs = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Xs.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_does_not_divide_by_zero(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0]])
        Xs = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Xs))
        assert np.all(Xs[:, 0] == 0.0)

    def test_inverse_transform_roundtrip(self):
        X = np.random.default_rng(1).normal(size=(50, 3))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-9)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform([[1.0]])


class TestMinMaxScaler:
    def test_output_in_unit_interval(self):
        X = np.random.default_rng(2).normal(size=(100, 3)) * 10
        Xs = MinMaxScaler().fit_transform(X)
        assert Xs.min() >= 0.0 and Xs.max() <= 1.0

    def test_constant_column_handled(self):
        Xs = MinMaxScaler().fit_transform(np.array([[2.0], [2.0], [2.0]]))
        assert np.all(np.isfinite(Xs))


class TestLabelEncoder:
    def test_roundtrip(self):
        labels = ["b", "a", "c", "a"]
        encoder = LabelEncoder().fit(labels)
        encoded = encoder.transform(labels)
        assert set(encoded) == {0, 1, 2}
        assert list(encoder.inverse_transform(encoded)) == labels

    def test_unseen_label_raises(self):
        encoder = LabelEncoder().fit(["a", "b"])
        with pytest.raises(ValueError):
            encoder.transform(["c"])

    def test_out_of_range_inverse_raises(self):
        encoder = LabelEncoder().fit(["a", "b"])
        with pytest.raises(ValueError):
            encoder.inverse_transform([5])


class TestOneHotEncoder:
    def test_shape_and_one_active_bit_per_column(self):
        X = np.array([["a", "x"], ["b", "y"], ["a", "z"]], dtype=object)
        encoder = OneHotEncoder().fit(X)
        out = encoder.transform(X)
        assert out.shape == (3, encoder.n_output_features_)
        assert encoder.n_output_features_ == 2 + 3
        np.testing.assert_allclose(out.sum(axis=1), 2.0)

    def test_unknown_category_maps_to_zero_block(self):
        encoder = OneHotEncoder().fit(np.array([["a"], ["b"]], dtype=object))
        out = encoder.transform(np.array([["c"]], dtype=object))
        assert out.sum() == 0.0

    def test_column_count_mismatch_raises(self):
        encoder = OneHotEncoder().fit(np.array([["a", "x"]], dtype=object))
        with pytest.raises(ValueError):
            encoder.transform(np.array([["a"]], dtype=object))


class TestSimpleImputer:
    def test_mean_imputation(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0]])
        out = SimpleImputer(strategy="mean").fit_transform(X)
        assert out[0, 1] == pytest.approx(4.0)

    def test_median_imputation(self):
        X = np.array([[np.nan], [1.0], [2.0], [100.0]])
        out = SimpleImputer(strategy="median").fit_transform(X)
        assert out[0, 0] == pytest.approx(2.0)

    def test_constant_imputation(self):
        X = np.array([[np.nan, 1.0]])
        out = SimpleImputer(strategy="constant", fill_value=-7.0).fit_transform(X)
        assert out[0, 0] == -7.0

    def test_all_nan_column_uses_fill_value(self):
        X = np.array([[np.nan], [np.nan]])
        out = SimpleImputer(strategy="mean", fill_value=0.0).fit_transform(X)
        assert np.all(out == 0.0)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            SimpleImputer(strategy="mode")


class TestScalerProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(5, 30), st.integers(1, 5)),
            elements=st.floats(-1e4, 1e4, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_standard_scaler_is_finite_and_shape_preserving(self, X):
        Xs = StandardScaler().fit_transform(X)
        assert Xs.shape == X.shape
        assert np.all(np.isfinite(Xs))

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(5, 30), st.integers(1, 5)),
            elements=st.floats(-1e4, 1e4, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_minmax_scaler_bounds(self, X):
        Xs = MinMaxScaler().fit_transform(X)
        assert Xs.min() >= -1e-9 and Xs.max() <= 1.0 + 1e-9
