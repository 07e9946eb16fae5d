"""Tests for the Dataset container, synthetic generators and suites."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    CONCEPT_FAMILIES,
    Dataset,
    TEST_SUITE_SPECS,
    knowledge_suite,
    make_dataset,
    make_gaussian_clusters,
)
from repro.datasets import test_suite as build_test_suite


class TestDatasetContainer:
    def test_shape_properties(self, blobs_dataset):
        assert blobs_dataset.n_records == 180
        assert blobs_dataset.n_numeric == 6
        assert blobs_dataset.n_categorical == 2
        assert blobs_dataset.n_attributes == 8
        assert blobs_dataset.n_classes == 3

    def test_to_matrix_is_numeric_and_aligned(self, blobs_dataset):
        X, y = blobs_dataset.to_matrix()
        assert X.shape[0] == len(y) == blobs_dataset.n_records
        assert X.dtype == np.float64
        assert set(np.unique(y)) == set(range(blobs_dataset.n_classes))

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((5, 2)), np.zeros((4, 1), dtype=object), np.zeros(5))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((0, 2)), np.zeros((0, 0), dtype=object), np.zeros(0))

    def test_dataset_without_attributes_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((3, 0)), np.zeros((3, 0), dtype=object), np.zeros(3))

    def test_subsample_is_stratified_and_smaller(self, blobs_dataset):
        sub = blobs_dataset.subsample(60, random_state=0)
        assert sub.n_records <= 70
        assert sub.n_classes == blobs_dataset.n_classes

    def test_subsample_noop_when_large_enough(self, blobs_dataset):
        assert blobs_dataset.subsample(10_000) is blobs_dataset

    def test_take_preserves_blocks(self, blobs_dataset):
        subset = blobs_dataset.take(np.arange(10))
        assert subset.n_records == 10
        assert subset.n_numeric == blobs_dataset.n_numeric

    def test_train_test_split_partitions(self, blobs_dataset):
        train, test = blobs_dataset.train_test_split(test_size=0.3, random_state=0)
        assert train.n_records + test.n_records == blobs_dataset.n_records
        assert test.n_classes == blobs_dataset.n_classes

    def test_summary_layout(self, blobs_dataset):
        summary = blobs_dataset.summary()
        assert summary["records"] == 180
        assert summary["classes"] == 3


class TestSyntheticGenerators:
    @pytest.mark.parametrize("family", sorted(CONCEPT_FAMILIES))
    def test_family_produces_requested_shape(self, family):
        dataset = make_dataset(
            family,
            name=f"shape_{family}",
            n_records=120,
            n_numeric=5,
            n_categorical=3,
            n_classes=3,
            random_state=0,
        )
        assert dataset.n_records >= 110  # families may round class sizes slightly
        assert dataset.n_numeric == 5
        assert dataset.n_categorical == 3
        assert dataset.n_classes == 3

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            make_dataset("no_such_family", name="x")

    def test_generation_is_deterministic(self):
        a = make_gaussian_clusters("a", n_records=50, random_state=7)
        b = make_gaussian_clusters("b", n_records=50, random_state=7)
        np.testing.assert_allclose(a.numeric, b.numeric)
        np.testing.assert_array_equal(a.target, b.target)

    def test_different_seeds_differ(self):
        a = make_gaussian_clusters("a", n_records=50, random_state=1)
        b = make_gaussian_clusters("b", n_records=50, random_state=2)
        assert not np.allclose(a.numeric, b.numeric)

    def test_every_class_present(self):
        for family in CONCEPT_FAMILIES:
            dataset = make_dataset(
                family, name="c", n_records=100, n_numeric=4, n_categorical=2,
                n_classes=4, random_state=3,
            )
            assert dataset.n_classes == 4

    @given(st.integers(0, 1000), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_generators_are_valid_datasets(self, seed, n_classes):
        dataset = make_gaussian_clusters(
            "prop", n_records=80, n_numeric=4, n_categorical=1,
            n_classes=n_classes, random_state=seed,
        )
        X, y = dataset.to_matrix()
        assert np.all(np.isfinite(X))
        assert len(np.unique(y)) == n_classes


class TestSuites:
    def test_test_suite_matches_table_xi_shapes(self):
        suite = build_test_suite(max_records=300, max_numeric=20)
        assert len(suite) == 21
        by_name = {d.name: d for d in suite}
        for symbol, paper_name, records, n_num, n_cat, n_classes, _family in TEST_SUITE_SPECS:
            dataset = by_name[symbol]
            assert dataset.metadata["paper_name"] == paper_name
            assert dataset.n_classes == n_classes
            assert dataset.n_categorical == n_cat
            assert dataset.n_numeric == min(n_num, 20)
            assert dataset.n_records <= max(300, n_classes * 8)

    def test_test_suite_full_scale_record_counts(self):
        suite = build_test_suite(max_records=None, max_numeric=None, random_state=1)
        by_name = {d.name: d for d in suite}
        assert by_name["D1"].n_records == 108
        assert by_name["D12"].n_records == 1372

    def test_knowledge_suite_size_and_diversity(self):
        pool = knowledge_suite(n_datasets=12, random_state=0)
        assert len(pool) == 12
        families = {d.metadata["family"] for d in pool}
        assert len(families) >= 4

    def test_knowledge_suite_invalid_size(self):
        with pytest.raises(ValueError):
            knowledge_suite(n_datasets=0)


class TestCorruption:
    """The messy-data corruption layer feeding pipeline search."""

    def _clean(self):
        return make_dataset(
            "gaussian_clusters", "c", n_records=150, n_numeric=5,
            n_categorical=3, n_classes=3, random_state=0,
        )

    def test_missing_rate_injects_nans_into_numeric_only(self):
        from repro.datasets import corrupt

        clean = self._clean()
        messy = corrupt(clean, missing_rate=0.2, random_state=1)
        fraction = np.isnan(messy.numeric).mean()
        assert 0.1 < fraction < 0.3
        assert np.array_equal(messy.target, clean.target)
        assert np.array_equal(messy.categorical, clean.categorical)

    def test_rare_rate_introduces_fresh_categories(self):
        from repro.datasets import corrupt

        clean = self._clean()
        messy = corrupt(clean, missing_rate=0.0, rare_rate=0.2, random_state=2)
        clean_values = set(clean.categorical.ravel().tolist())
        new_values = set(messy.categorical.ravel().tolist()) - clean_values
        assert new_values and all(str(v).startswith("rare_") for v in new_values)
        assert np.array_equal(messy.numeric, clean.numeric)

    def test_scale_skew_rescales_columns(self):
        from repro.datasets import corrupt

        clean = self._clean()
        messy = corrupt(clean, missing_rate=0.0, scale_skew=2.0, random_state=3)
        ratios = np.abs(messy.numeric).mean(axis=0) / np.abs(clean.numeric).mean(axis=0)
        assert ratios.max() / ratios.min() > 5.0  # genuinely different scales

    def test_corruption_is_deterministic_and_metadata_tagged(self):
        from repro.datasets import corrupt

        clean = self._clean()
        a = corrupt(clean, missing_rate=0.15, rare_rate=0.1, random_state=9)
        b = corrupt(clean, missing_rate=0.15, rare_rate=0.1, random_state=9)
        assert a.fingerprint == b.fingerprint
        assert a.metadata["corrupted"]["source"] == "c"
        assert a.task == clean.task

    def test_invalid_rates_raise(self):
        from repro.datasets import corrupt

        clean = self._clean()
        with pytest.raises(ValueError):
            corrupt(clean, missing_rate=1.5)
        with pytest.raises(ValueError):
            corrupt(clean, rare_rate=-0.1)
        with pytest.raises(ValueError):
            corrupt(clean, scale_skew=-1.0)

    def test_knowledge_suite_corrupt_fraction(self):
        from repro.datasets import knowledge_suite as suite

        clean_pool = suite(n_datasets=6, random_state=7)
        messy_pool = suite(n_datasets=6, random_state=7, corrupt_fraction=0.5)
        assert [d.name for d in messy_pool] == [d.name for d in clean_pool]
        corrupted = [d for d in messy_pool if "corrupted" in d.metadata]
        assert len(corrupted) == 3
        # The untouched share is byte-identical to the historical pool.
        for clean, messy in zip(clean_pool, messy_pool):
            if "corrupted" not in messy.metadata:
                assert messy.fingerprint == clean.fingerprint


class TestMatrixEncoding:
    """to_matrix / to_raw_matrix and the deprecated hard-wired encode path."""

    def _mixed(self, with_nans=False):
        dataset = make_dataset(
            "gaussian_clusters", "m", n_records=60, n_numeric=3,
            n_categorical=2, n_classes=2, random_state=4,
        )
        if with_nans:
            from repro.datasets import corrupt

            dataset = corrupt(dataset, missing_rate=0.3, random_state=5)
        return dataset

    def test_to_matrix_identical_to_legacy_composition_on_clean_data(self):
        from repro.learners.preprocessing import OneHotEncoder, SimpleImputer

        dataset = self._mixed()
        X, y = dataset.to_matrix()
        legacy = np.hstack([
            SimpleImputer().fit_transform(dataset.numeric),
            OneHotEncoder().fit_transform(dataset.categorical),
        ])
        assert np.array_equal(X, legacy)  # byte-identical, imputation was a no-op

    def test_to_matrix_preserves_nans_for_bare_estimators(self):
        dataset = self._mixed(with_nans=True)
        X, _ = dataset.to_matrix()
        assert np.isnan(X).any()  # imputation is a pipeline step now

    def test_to_raw_matrix_layout_matches_to_matrix(self):
        dataset = self._mixed(with_nans=True)
        X_raw, y_raw = dataset.to_raw_matrix()
        X_enc, y_enc = dataset.to_matrix()
        assert X_raw.dtype == object
        assert X_raw.shape == (dataset.n_records, dataset.n_attributes)
        assert np.array_equal(y_raw, y_enc)
        # Numeric block first, original values preserved.
        raw_numeric = X_raw[:, : dataset.n_numeric].astype(np.float64)
        assert np.array_equal(
            np.nan_to_num(raw_numeric), np.nan_to_num(dataset.numeric)
        )
        assert X_raw[0, dataset.n_numeric] == dataset.categorical[0, 0]

    def test_to_raw_matrix_numeric_only_is_float(self):
        dataset = make_gaussian_clusters("num", n_records=40, n_numeric=4, random_state=0)
        X, y = dataset.to_raw_matrix()
        assert X.dtype == np.float64 and X.shape == (40, 4)
