"""Tests for the 23 Table III meta-features and the feature extractor."""

import numpy as np
import pytest

from repro.datasets import Dataset, make_gaussian_clusters
from repro.metafeatures import (
    FEATURE_DESCRIPTIONS,
    FEATURE_NAMES,
    FeatureCache,
    FeatureExtractor,
    compute_feature,
    feature_cache,
)


@pytest.fixture(scope="module")
def mixed_dataset() -> Dataset:
    rng = np.random.default_rng(0)
    numeric = np.column_stack([rng.normal(0, 1, 100), rng.normal(5, 2, 100)])
    categorical = np.column_stack(
        [
            np.array(["a", "b"] * 50, dtype=object),           # 2 categories
            np.array(["x", "y", "z", "x"] * 25, dtype=object),  # 3 categories
        ]
    )
    target = np.array([0] * 70 + [1] * 30)
    return Dataset("mixed", numeric, categorical, target)


@pytest.fixture(scope="module")
def numeric_only_dataset() -> Dataset:
    return make_gaussian_clusters(
        "numeric_only", n_records=90, n_numeric=4, n_categorical=0, n_classes=3, random_state=1
    )


class TestIndividualFeatures:
    def test_f1_class_count(self, mixed_dataset):
        assert compute_feature("f1", mixed_dataset) == 2.0

    def test_f2_target_entropy(self, mixed_dataset):
        expected = -(0.7 * np.log2(0.7) + 0.3 * np.log2(0.3))
        assert compute_feature("f2", mixed_dataset) == pytest.approx(expected)

    def test_f3_f4_majority_minority_proportions(self, mixed_dataset):
        assert compute_feature("f3", mixed_dataset) == pytest.approx(0.7)
        assert compute_feature("f4", mixed_dataset) == pytest.approx(0.3)

    def test_f5_to_f9_shape_features(self, mixed_dataset):
        assert compute_feature("f5", mixed_dataset) == 2.0
        assert compute_feature("f6", mixed_dataset) == 2.0
        assert compute_feature("f7", mixed_dataset) == pytest.approx(0.5)
        assert compute_feature("f8", mixed_dataset) == 4.0
        assert compute_feature("f9", mixed_dataset) == 100.0

    def test_f10_f14_categorical_cardinalities(self, mixed_dataset):
        assert compute_feature("f10", mixed_dataset) == 2.0  # fewest classes (A#)
        assert compute_feature("f14", mixed_dataset) == 3.0  # most classes (A?)

    def test_f12_f13_a_sharp_proportions(self, mixed_dataset):
        # A# is the 'a'/'b' column with a 50/50 split.
        assert compute_feature("f12", mixed_dataset) == pytest.approx(0.5)
        assert compute_feature("f13", mixed_dataset) == pytest.approx(0.5)

    def test_f16_f17_a_star_proportions(self, mixed_dataset):
        # A? is the x/y/z column with proportions 0.5 / 0.25 / 0.25.
        assert compute_feature("f16", mixed_dataset) == pytest.approx(0.5)
        assert compute_feature("f17", mixed_dataset) == pytest.approx(0.25)

    def test_f18_f19_numeric_average_extremes(self, mixed_dataset):
        averages = mixed_dataset.numeric.mean(axis=0)
        assert compute_feature("f18", mixed_dataset) == pytest.approx(averages.min())
        assert compute_feature("f19", mixed_dataset) == pytest.approx(averages.max())

    def test_f20_to_f23_variance_features(self, mixed_dataset):
        variances = mixed_dataset.numeric.var(axis=0)
        assert compute_feature("f20", mixed_dataset) == pytest.approx(variances.min())
        assert compute_feature("f21", mixed_dataset) == pytest.approx(variances.max())
        assert compute_feature("f22", mixed_dataset) == pytest.approx(
            mixed_dataset.numeric.mean(axis=0).var()
        )
        assert compute_feature("f23", mixed_dataset) == pytest.approx(variances.var())

    def test_categorical_features_zero_without_categoricals(self, numeric_only_dataset):
        for name in ("f10", "f11", "f12", "f13", "f14", "f15", "f16", "f17"):
            assert compute_feature(name, numeric_only_dataset) == 0.0
        assert compute_feature("f6", numeric_only_dataset) == 0.0

    def test_unknown_feature_raises(self, mixed_dataset):
        with pytest.raises(KeyError):
            compute_feature("f99", mixed_dataset)

    def test_all_features_have_descriptions(self):
        assert len(FEATURE_NAMES) == 23
        assert all(FEATURE_DESCRIPTIONS[name] for name in FEATURE_NAMES)


class TestFeatureExtractor:
    def test_full_vector_length(self, mixed_dataset):
        assert len(FeatureExtractor().raw_vector(mixed_dataset)) == 23

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(["f1", "nope"])

    def test_empty_feature_list_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor([])

    def test_subset_vector_order(self, mixed_dataset):
        extractor = FeatureExtractor(["f9", "f1"])
        vector = extractor.raw_vector(mixed_dataset)
        assert vector[0] == 100.0 and vector[1] == 2.0

    def test_normalisation_centers_reference_collection(self, numeric_only_dataset, mixed_dataset):
        extractor = FeatureExtractor().fit([numeric_only_dataset, mixed_dataset])
        matrix = extractor.transform_many([numeric_only_dataset, mixed_dataset])
        np.testing.assert_allclose(matrix.mean(axis=0), 0.0, atol=1e-9)

    def test_restrict_keeps_normalisation(self, numeric_only_dataset, mixed_dataset):
        extractor = FeatureExtractor().fit([numeric_only_dataset, mixed_dataset])
        restricted = extractor.restrict(["f1", "f9"])
        full = extractor.transform(mixed_dataset)
        partial = restricted.transform(mixed_dataset)
        assert partial[0] == pytest.approx(full[0])
        assert partial[1] == pytest.approx(full[8])

    def test_restrict_unknown_feature_raises(self):
        with pytest.raises(ValueError):
            FeatureExtractor(["f1"]).restrict(["f2"])

    def test_vectors_are_finite_for_all_suite_datasets(self):
        from repro.datasets import knowledge_suite

        datasets = knowledge_suite(n_datasets=6, random_state=0)
        matrix = FeatureExtractor().fit_transform(datasets)
        assert np.all(np.isfinite(matrix))


class TestFeatureCache:
    """Fingerprint-keyed memoization of raw feature values (the serving hot path)."""

    def setup_method(self):
        feature_cache.clear()
        feature_cache.reset_stats()

    def test_repeat_extraction_hits_cache(self, mixed_dataset):
        extractor = FeatureExtractor()
        first = extractor.raw_vector(mixed_dataset)
        assert feature_cache.stats.misses == 23
        second = extractor.raw_vector(mixed_dataset)
        np.testing.assert_array_equal(first, second)
        assert feature_cache.stats.hits == 23
        assert feature_cache.stats.hit_rate == pytest.approx(0.5)

    def test_cached_values_match_uncached(self, mixed_dataset, numeric_only_dataset):
        extractor = FeatureExtractor()
        for dataset in (mixed_dataset, numeric_only_dataset):
            cached = extractor.raw_vector(dataset)
            with feature_cache.disabled():
                uncached = extractor.raw_vector(dataset)
            np.testing.assert_array_equal(cached, uncached)

    def test_restricted_extractor_shares_cache_entries(self, mixed_dataset):
        FeatureExtractor().raw_vector(mixed_dataset)
        misses_before = feature_cache.stats.misses
        FeatureExtractor(["f1", "f9"]).raw_vector(mixed_dataset)
        # Per-feature keying: the subset is fully served from the full pass.
        assert feature_cache.stats.misses == misses_before

    def test_identical_content_different_name_shares_entries(self, mixed_dataset):
        clone = Dataset(
            name="other-name",
            numeric=mixed_dataset.numeric.copy(),
            categorical=mixed_dataset.categorical.copy(),
            target=mixed_dataset.target.copy(),
        )
        assert clone.fingerprint == mixed_dataset.fingerprint
        FeatureExtractor().raw_vector(mixed_dataset)
        misses_before = feature_cache.stats.misses
        FeatureExtractor().raw_vector(clone)
        assert feature_cache.stats.misses == misses_before

    def test_different_content_distinct_fingerprints(self, mixed_dataset):
        changed = Dataset(
            name=mixed_dataset.name,
            numeric=mixed_dataset.numeric + 1.0,
            categorical=mixed_dataset.categorical.copy(),
            target=mixed_dataset.target.copy(),
        )
        assert changed.fingerprint != mixed_dataset.fingerprint

    def test_disabled_cache_bypasses_lookup(self, mixed_dataset):
        with feature_cache.disabled():
            FeatureExtractor().raw_vector(mixed_dataset)
        assert feature_cache.stats.hits == 0
        assert feature_cache.stats.misses == 0
        assert len(feature_cache) == 0

    def test_eviction_bounds_memory(self, mixed_dataset, numeric_only_dataset):
        small = FeatureCache(maxsize=10)
        small.vector(mixed_dataset, list(FEATURE_NAMES))
        assert len(small) == 10
        assert small.stats.evictions == 13

    def test_stats_as_dict_shape(self):
        stats = feature_cache.stats.as_dict()
        assert set(stats) == {"hits", "misses", "hit_rate", "evictions"}

    def test_fingerprint_framing_resists_separator_collisions(self):
        """['a\\x1fb','c'] and ['a','b\\x1fc'] must not share a fingerprint."""
        numeric = np.ones((2, 1))
        target = np.array([0, 1])
        a = Dataset("a", numeric, np.array([["x\x1fy", "z"], ["x\x1fy", "z"]], dtype=object), target)
        b = Dataset("b", numeric, np.array([["x", "y\x1fz"], ["x", "y\x1fz"]], dtype=object), target)
        assert a.fingerprint != b.fingerprint

    @pytest.mark.parametrize(
        "categorical, target",
        [
            ([["a", "b"], ["a", "c"], ["b", "b"]], ["x", "y", "x"]),
            ([["é", "a\x00"], ["\x00", ""], ["a\x1fb", "é"]], ["s", "s", "t"]),
            ([[1, "1"], [1.0, True], [None, float("nan")]], [1, "1", 1.0]),
            ([["a", 2], ["a", 2], ["b", 3]], [True, False, True]),
        ],
        ids=["strings", "unicode-nul-empty", "mixed-equal-values", "mixed-types"],
    )
    def test_fingerprint_frames_every_cell(self, categorical, target):
        """Each distinct cell string is framed once; the digest is the one a
        per-cell framing of every value gives."""
        from hashlib import blake2s

        def framed(values):
            parts = []
            for value in values:
                encoded = str(value).encode("utf-8")
                parts += [len(encoded).to_bytes(4, "little"), encoded]
            return b"".join(parts)

        dataset = Dataset(
            "d", np.ones((3, 1)), np.array(categorical, dtype=object),
            np.array(target, dtype=object),
        )
        digest = blake2s(digest_size=16)
        digest.update(b"classification")
        digest.update(repr(dataset.numeric.shape).encode("utf-8"))
        digest.update(dataset.numeric.tobytes())
        digest.update(repr(dataset.categorical.shape).encode("utf-8"))
        digest.update(framed(dataset.categorical.ravel()))
        digest.update(framed(dataset.target))
        assert dataset.fingerprint == digest.hexdigest()

    def test_overlapping_disabled_sections_compose(self, mixed_dataset):
        with feature_cache.disabled():
            with feature_cache.disabled():
                assert not feature_cache.enabled
            # Inner exit must NOT re-enable while the outer is active.
            assert not feature_cache.enabled
        assert feature_cache.enabled
