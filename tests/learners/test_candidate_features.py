"""``kernels.candidate_features``: the features one tree node searches.

A seeded tree's later draws depend on the exact RNG calls its nodes make, so
the helper must draw a subset with exactly one ``rng.choice`` without
replacement, and make no call at all when every feature is searched.
"""

import numpy as np
import pytest

from repro.learners import kernels


@pytest.mark.parametrize(
    "max_features, n_features, k",
    [
        ("sqrt", 10, 3),
        ("sqrt", 3, 1),
        ("log2", 10, 3),
        ("log2", 2, 1),
        (4, 10, 4),
        (0, 10, 1),
        (2.9, 10, 2),
    ],
)
def test_a_subset_is_one_choice_draw(max_features, n_features, k):
    rng = np.random.default_rng(7)
    twin = np.random.default_rng(7)
    got = kernels.candidate_features(max_features, n_features, rng)
    expected = twin.choice(n_features, size=k, replace=False)
    np.testing.assert_array_equal(got, expected)
    # The stream continues exactly where one such draw leaves it.
    assert rng.integers(1 << 30) == twin.integers(1 << 30)


@pytest.mark.parametrize(
    "max_features, n_features",
    [(None, 6), ("sqrt", 1), ("log2", 1), (6, 6), (50, 6)],
)
def test_all_features_draw_nothing(max_features, n_features):
    rng = np.random.default_rng(7)
    got = kernels.candidate_features(max_features, n_features, rng)
    np.testing.assert_array_equal(got, np.arange(n_features))
    assert rng.integers(1 << 30) == np.random.default_rng(7).integers(1 << 30)
