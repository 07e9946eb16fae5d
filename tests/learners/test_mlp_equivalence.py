"""Golden equivalence: the flat-buffer MLP engine vs the frozen per-layer one.

:class:`repro.learners.neural.MLPNetwork` trains on flat parameter, gradient,
velocity and Adam-moment buffers; ``ReferenceMLPNetwork`` in
``tests/support/reference_learners.py`` keeps the per-layer engine it
replaced.  An MLP's result depends on every rounding (its loss is non-convex
and it is sensitive to initialisation), so equality here is bit for bit: every
weight, bias, ``best_validation_loss_`` and ``forward`` output, down to the
sign of zero and NaN payloads.  The grid covers task × solver × activation ×
learning-rate schedule, with and without the validation split (n=6 never
splits, n=24 does) at depth 1 and 3, plus fits that overflow; one DMD run
(Algorithms 2–4) is compared whole.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.core import DecisionMakingModelDesigner
from repro.learners import neural
from repro.learners.neural import MLPClassifier, MLPNetwork, MLPRegressor

from reference_learners import ReferenceMLPNetwork

TASKS = ("classification", "regression")
SOLVERS = ("adam", "sgd", "lbfgs")
ACTIVATIONS = ("relu", "tanh", "logistic", "identity")
SCHEDULES = ("constant", "invscaling", "adaptive")
SHAPES = {"n6-depth1": (6, 1), "n6-depth3": (6, 3), "n24-depth1": (24, 1), "n24-depth3": (24, 3)}
GRID = list(itertools.product(TASKS, SOLVERS, ACTIVATIONS, SCHEDULES))


def assert_bit_identical(live, reference):
    live, reference = np.asarray(live), np.asarray(reference)
    assert live.shape == reference.shape and live.dtype == reference.dtype
    assert np.array_equal(live, reference, equal_nan=True)
    assert live.tobytes() == reference.tobytes()


def assert_same_network(live, reference, X):
    assert len(live.weights_) == len(reference.weights_)
    for got, want in zip(live.weights_ + live.biases_, reference.weights_ + reference.biases_):
        assert_bit_identical(got, want)
    assert_bit_identical(live.best_validation_loss_, reference.best_validation_loss_)
    assert_bit_identical(live.forward(X), reference.forward(X))


def _data(task, n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    if task == "classification":
        return X, np.eye(3)[rng.integers(0, 3, n)]
    return X, rng.normal(size=(n, 2))


def _fit_both(X, Y, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return MLPNetwork(**kwargs).fit(X, Y), ReferenceMLPNetwork(**kwargs).fit(X, Y)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize(
    "task,solver,activation,schedule", GRID, ids=["-".join(case) for case in GRID]
)
def test_network_bit_identical(task, solver, activation, schedule, shape):
    n, depth = SHAPES[shape]
    X, Y = _data(task, n)
    live, reference = _fit_both(
        X, Y, layer_sizes=[7] * depth, task=task, activation=activation, solver=solver,
        learning_rate=schedule, max_iter=40, validation_fraction=0.2, random_state=3,
    )
    assert_same_network(live, reference, X)


@pytest.mark.parametrize(
    "solver,activation,learning_rate_init",
    [("adam", "logistic", 1e150), ("sgd", "relu", 1.0), ("lbfgs", "identity", 1.0),
     ("adam", "relu", 1e200)],
    ids=["adam", "sgd", "lbfgs", "adam-never-finite"],
)
def test_overflowing_fit_bit_identical(solver, activation, learning_rate_init):
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(30, 4)) * 10, rng.normal(size=(30, 2)) * 100
    kwargs = dict(
        layer_sizes=[20] * 3, task="regression", activation=activation, solver=solver,
        learning_rate_init=learning_rate_init, max_iter=30, validation_fraction=0.2,
        random_state=1,
    )
    live, reference = _fit_both(X, Y, **kwargs)
    assert_same_network(live, reference, X)
    # The fit did overflow: its later epochs scored non-finite losses.
    probe = MLPNetwork(**kwargs)
    losses = []
    probe._loss = lambda X_, Y_: losses.append(MLPNetwork._loss(probe, X_, Y_)) or losses[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        probe.fit(X, Y)
    assert not np.isfinite(losses[-1])


def test_fitted_layers_are_views_of_one_best_buffer():
    X, Y = _data("regression", 24)
    network = MLPNetwork(layer_sizes=[7, 7], task="regression", max_iter=20, random_state=0)
    before = set(vars(network))
    network.fit(X, Y)
    assert set(vars(network)) - before == {"weights_", "biases_", "best_validation_loss_"}
    layers = network.weights_ + network.biases_
    buffer = layers[0].base
    assert all(layer.base is buffer for layer in layers)
    assert buffer.size == sum(layer.size for layer in layers)


def test_forward_accepts_plain_layer_lists():
    X, Y = _data("regression", 24)
    live, reference = _fit_both(X, Y, layer_sizes=[7], task="regression", max_iter=20,
                                random_state=0)
    for network in (live, reference):
        network.weights_ = [W.copy() for W in network.weights_]
        network.biases_ = [b.tolist() for b in network.biases_]
    assert_bit_identical(live.forward(X), reference.forward(X))
    assert_bit_identical(live.forward(X[:1]), reference.forward(X[:1]))


def test_estimators_bit_identical_through_the_engine(monkeypatch):
    X, Y = _data("regression", 40, seed=5)
    y = np.argmax(Y, axis=1)
    kwargs = dict(hidden_layer=2, hidden_layer_size=9, max_iter=30, random_state=0)
    live = MLPRegressor(**kwargs).fit(X, Y), MLPClassifier(**kwargs).fit(X, y)
    monkeypatch.setattr(neural, "MLPNetwork", ReferenceMLPNetwork)
    reference = MLPRegressor(**kwargs).fit(X, Y), MLPClassifier(**kwargs).fit(X, y)
    assert isinstance(reference[0].network_, ReferenceMLPNetwork)
    assert_bit_identical(live[0].predict(X), reference[0].predict(X))
    assert_bit_identical(live[1].predict_proba(X), reference[1].predict_proba(X))
    assert live[0].export_params() == reference[0].export_params()
    assert live[1].export_params() == reference[1].export_params()


def test_dmd_bit_identical(monkeypatch, small_corpus, dataset_lookup):
    def run():
        dmd = DecisionMakingModelDesigner(
            feature_population=8, feature_generations=3, feature_max_evaluations=25,
            architecture_population=6, architecture_generations=2,
            architecture_max_evaluations=8, cv=2, random_state=0,
        )
        return dmd.run(small_corpus, dataset_lookup)

    live = run()
    monkeypatch.setattr(neural, "MLPNetwork", ReferenceMLPNetwork)
    reference = run()
    assert isinstance(reference.model.regressor.network_, ReferenceMLPNetwork)
    assert live.architecture.config == reference.architecture.config
    assert_bit_identical(live.architecture.mse, reference.architecture.mse)
    assert live.key_features == reference.key_features
    assert_bit_identical(
        live.feature_selection.score, reference.feature_selection.score
    )
    X = np.zeros((1, len(live.key_features)))
    assert_same_network(live.model.regressor.network_, reference.model.regressor.network_, X)
    datasets = list(dataset_lookup.values())
    assert live.model.select_many(datasets) == reference.model.select_many(datasets)
    assert_bit_identical(
        live.model.scores_matrix(datasets), reference.model.scores_matrix(datasets)
    )
