"""Tests for the estimator base protocol (fit/predict/params/validation)."""

import inspect

import numpy as np
import pytest

from repro.learners.base import (
    BaseClassifier,
    BaseEstimator,
    NotFittedError,
    check_array,
    check_X_y,
    clone,
)
from repro.learners.forest import RandomForest
from repro.learners.tree import DecisionTreeClassifier, J48
from repro.learners.rules import ZeroR


class TestCheckArray:
    def test_coerces_lists(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_promotes_1d_to_row(self):
        assert check_array([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_array([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_array([[1.0, np.inf]])


class TestCheckXy:
    def test_accepts_integer_like_floats(self):
        X, y = check_X_y([[1.0], [2.0]], [0.0, 1.0])
        assert y.dtype == np.int64

    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0], [2.0]], [0.5, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0], [2.0]], [0, 1, 0])

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0], [2.0]], [[0], [1]])


class TestBaseProtocol:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ZeroR().predict([[1.0, 2.0]])

    def test_get_set_params_roundtrip(self):
        model = J48(max_depth=5, min_samples_leaf=3)
        params = model.get_params()
        assert params["max_depth"] == 5
        model.set_params(max_depth=7)
        assert model.get_params()["max_depth"] == 7

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            J48().set_params(bogus=1)

    def test_clone_is_unfitted_copy(self, simple_xy):
        X, y = simple_xy
        model = J48(max_depth=4).fit(X, y)
        copy = clone(model)
        assert copy is not model
        assert copy.get_params()["max_depth"] == 4
        with pytest.raises(NotFittedError):
            copy.predict(X)

    def test_predict_labels_come_from_training_labels(self, simple_xy):
        X, y = simple_xy
        shifted = y + 5  # arbitrary non-contiguous labels
        model = J48().fit(X, shifted)
        predictions = model.predict(X)
        assert set(np.unique(predictions)).issubset(set(np.unique(shifted)))

    def test_predict_proba_rows_sum_to_one(self, simple_xy):
        X, y = simple_xy
        proba = J48().fit(X, y).predict_proba(X)
        assert proba.shape == (X.shape[0], len(np.unique(y)))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_score_matches_accuracy(self, simple_xy):
        X, y = simple_xy
        model = J48().fit(X, y)
        assert model.score(X, y) == pytest.approx(np.mean(model.predict(X) == y))

    def test_repr_contains_params(self):
        assert "max_depth=3" in repr(J48(max_depth=3))

    def test_n_classes_property(self, simple_xy):
        X, y = simple_xy
        assert J48().fit(X, y).n_classes_ == len(np.unique(y))


def _signature_params(model) -> dict:
    """``get_params`` as it read the signature on every call."""
    names = [
        name
        for name, parameter in inspect.signature(type(model).__init__).parameters.items()
        if name != "self"
        and parameter.kind not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    ]
    return {name: getattr(model, name) for name in names}


class TestParamNamesCache:
    def test_each_class_reads_its_own_signature_once(self, monkeypatch):
        class Parent(BaseEstimator):
            def __init__(self, a=1, b=2):
                self.a = a
                self.b = b

        class Child(Parent):
            def __init__(self, c=3, **kwargs):
                super().__init__(**kwargs)
                self.c = c

        class Same(Parent):
            pass

        reads = []
        real = inspect.signature
        monkeypatch.setattr(inspect, "signature", lambda f: reads.append(f) or real(f))
        assert Parent().get_params() == {"a": 1, "b": 2}
        assert Parent(a=5).get_params() == {"a": 5, "b": 2}
        assert Child(c=4, a=0).get_params() == {"c": 4}
        assert Same(b=7).get_params() == {"a": 1, "b": 7}
        assert Same().get_params() == {"a": 1, "b": 2}
        assert len(reads) == 3

    @pytest.mark.parametrize(
        "model",
        [DecisionTreeClassifier(max_depth=2), J48(max_depth=3), RandomForest(n_estimators=4)],
        ids=lambda m: type(m).__name__,
    )
    def test_clone_set_params_and_repr_are_unchanged(self, model):
        expected = _signature_params(model)
        assert model.get_params() == expected
        assert clone(model).get_params() == expected
        assert repr(model) == (
            f"{type(model).__name__}("
            + ", ".join(f"{k}={v!r}" for k, v in sorted(expected.items()))
            + ")"
        )
        with pytest.raises(ValueError) as error:
            model.set_params(bogus=1)
        assert str(error.value) == (
            f"invalid parameter 'bogus' for {type(model).__name__}; "
            f"valid parameters are {sorted(expected)}"
        )
