"""Table III extraction is byte-identical to the frozen per-feature oracle.

``reference_features`` (in ``tests/support/``) keeps f1–f23 as they were when
every feature re-derived what it needed from the dataset.  The live features
read one shared :class:`~repro.metafeatures.features.Extraction`; every path
into them — the process-wide ``FeatureCache.vector``, an uncached
``FeatureExtractor.raw_vector`` and ``compute_feature`` — must give the same
bytes on clean, corrupted, numeric-only, categorical-only, single-class and
regression task instances, so decision models trained before the shared pass
see the same feature vectors.
"""

import numpy as np
import pytest

from reference_features import REFERENCE_FEATURE_FUNCTIONS, reference_vector
from repro.datasets import Dataset, knowledge_suite, make_friedman, make_gaussian_clusters
from repro.datasets.synthetic import corrupt
from repro.metafeatures import (
    FEATURE_NAMES,
    FeatureCache,
    FeatureExtractor,
    compute_feature,
    extract,
    feature_cache,
)


def _clean() -> Dataset:
    return make_gaussian_clusters(
        "clean", n_records=240, n_numeric=6, n_categorical=4, n_classes=3,
        imbalance=0.4, random_state=3,
    )


def _categorical_only() -> Dataset:
    rng = np.random.default_rng(5)
    categorical = np.column_stack(
        [rng.choice(list("abcdefg"[:k]), size=120).astype(object) for k in (2, 5, 3, 5)]
    )
    target = rng.choice(["yes", "no", "maybe"], size=120, p=[0.6, 0.3, 0.1])
    return Dataset("categorical-only", np.zeros((120, 0)), categorical, target)


def _single_class() -> Dataset:
    rng = np.random.default_rng(6)
    categorical = rng.choice(["x", "y"], size=(40, 2)).astype(object)
    return Dataset("single-class", rng.normal(size=(40, 3)), categorical, ["only"] * 40)


def _all_missing_column() -> Dataset:
    numeric = np.random.default_rng(7).normal(size=(30, 3))
    numeric[:, 1] = np.nan
    numeric[::4, 2] = np.nan
    return Dataset("all-missing-column", numeric, np.zeros((30, 0)), [0, 1, 2] * 10)


CASES = {
    "clean": _clean,
    "corrupted": lambda: corrupt(
        _clean(), missing_rate=0.3, scale_skew=1.0, rare_rate=0.2, random_state=0
    ),
    "numeric-only": lambda: make_gaussian_clusters(
        "numeric-only", n_records=90, n_numeric=4, n_classes=3, random_state=1
    ),
    "categorical-only": _categorical_only,
    "single-class": _single_class,
    "all-missing-column": _all_missing_column,
    "regression": lambda: make_friedman(
        "regression", n_records=150, n_numeric=5, n_categorical=2, random_state=2
    ),
    "regression-numeric-only": lambda: make_friedman(
        "regression-numeric-only", n_records=80, n_numeric=5, random_state=4
    ),
}
CASES.update(
    {
        f"suite-{dataset.name}": (lambda dataset=dataset: dataset)
        for dataset in knowledge_suite(
            n_datasets=6, max_records=160, corrupt_fraction=0.5, random_state=9
        )
    }
)


@pytest.fixture(params=sorted(CASES))
def dataset(request) -> Dataset:
    return CASES[request.param]()


@pytest.fixture
def expected(dataset) -> bytes:
    return reference_vector(dataset, FEATURE_NAMES).tobytes()


class TestByteIdentical:
    def test_feature_cache_vector(self, dataset, expected):
        cache = FeatureCache()
        assert cache.vector(dataset, FEATURE_NAMES).tobytes() == expected
        # The memoized values are the computed ones, bit for bit.
        assert cache.vector(dataset, FEATURE_NAMES).tobytes() == expected
        assert cache.stats.hits == len(FEATURE_NAMES)

    def test_partial_cache_hits(self, dataset, expected):
        cache = FeatureCache()
        cache.vector(dataset, ["f17", "f3", "f22"])
        assert cache.vector(dataset, FEATURE_NAMES).tobytes() == expected

    def test_raw_vector_with_and_without_cache(self, dataset, expected):
        extractor = FeatureExtractor()
        assert extractor.raw_vector(dataset, use_cache=False).tobytes() == expected
        feature_cache.clear()
        assert extractor.raw_vector(dataset).tobytes() == expected

    def test_compute_feature_each_name(self, dataset):
        for name in FEATURE_NAMES:
            live = np.float64(compute_feature(name, dataset))
            frozen = np.float64(REFERENCE_FEATURE_FUNCTIONS[name](dataset))
            assert live.tobytes() == frozen.tobytes(), name

    def test_subsets_in_any_order(self, dataset):
        names = FEATURE_NAMES[::-3] + ["f1", "f15"]
        live = np.array(extract(dataset, names), dtype=np.float64)
        assert live.tobytes() == reference_vector(dataset, names).tobytes()


class TestOnePass:
    """One full extraction counts the target once and each categorical
    column once; the per-feature oracle counted each column 8 times and the
    target or an extreme column 10 more times."""

    @pytest.fixture
    def unique_calls(self, monkeypatch):
        calls = []
        real_unique = np.unique

        def counting_unique(values, *args, **kwargs):
            calls.append(values)
            return real_unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        return calls

    @pytest.mark.parametrize(
        "path",
        [
            lambda d: FeatureExtractor().raw_vector(d, use_cache=False),
            lambda d: FeatureCache().vector(d, FEATURE_NAMES),
        ],
        ids=["raw_vector", "FeatureCache.vector"],
    )
    def test_unique_once_per_column(self, unique_calls, path):
        dataset = _clean()
        unique_calls.clear()
        path(dataset)
        assert len(unique_calls) == 1 + dataset.n_categorical
        assert sum(values is dataset.target for values in unique_calls) == 1
        columns = [values for values in unique_calls if values is not dataset.target]
        for j, values in enumerate(columns):
            assert np.shares_memory(values, dataset.categorical)
            assert np.array_equal(values, dataset.categorical[:, j])

    def test_reference_recounted_every_column(self, unique_calls):
        dataset = _clean()
        unique_calls.clear()
        reference_vector(dataset, FEATURE_NAMES)
        assert len(unique_calls) == 8 * dataset.n_categorical + 10

    def test_subset_computes_only_what_it_reads(self, unique_calls):
        dataset = _clean()
        unique_calls.clear()
        extract(dataset, ["f5", "f9", "f18", "f23"])
        assert unique_calls == []
