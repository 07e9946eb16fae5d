"""Tests for resampling: k-fold splits and stratified CV scores on a FoldPlan."""

import numpy as np
import pytest

from repro.execution.folds import FoldPlan
from repro.learners.rules import ZeroR
from repro.learners.tree import J48
from repro.learners.validation import KFold, StratifiedKFold


class TestKFold:
    def test_partitions_cover_everything_once(self):
        X = np.zeros((20, 2))
        seen = np.zeros(20, dtype=int)
        for train_idx, test_idx in KFold(n_splits=4, random_state=0).split(X):
            seen[test_idx] += 1
            assert set(train_idx).isdisjoint(set(test_idx))
        assert np.all(seen == 1)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(np.zeros((3, 1))))

    def test_invalid_splits_raises(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)


class TestStratifiedKFold:
    def test_every_fold_has_both_classes(self):
        y = np.array([0] * 30 + [1] * 30)
        X = np.zeros((60, 1))
        for _, test_idx in StratifiedKFold(n_splits=3, random_state=0).split(X, y):
            assert set(np.unique(y[test_idx])) == {0, 1}

    def test_class_proportions_roughly_preserved(self):
        y = np.array([0] * 90 + [1] * 30)
        X = np.zeros((120, 1))
        for _, test_idx in StratifiedKFold(n_splits=4, random_state=0).split(X, y):
            assert np.mean(y[test_idx] == 1) == pytest.approx(0.25, abs=0.08)

    def test_partition_property(self):
        y = np.arange(40) % 4
        X = np.zeros((40, 1))
        seen = np.zeros(40, dtype=int)
        for _, test_idx in StratifiedKFold(n_splits=5, random_state=1).split(X, y):
            seen[test_idx] += 1
        assert np.all(seen == 1)


class TestCrossValScore:
    def test_returns_one_score_per_fold(self, simple_xy):
        X, y = simple_xy
        scores = FoldPlan.stratified(y, cv=4, random_state=0).scores(J48(), X, y)
        assert len(scores) == 4
        assert np.all((scores >= 0) & (scores <= 1))

    def test_zero_r_matches_majority_fraction(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = np.array([0] * 150 + [1] * 50)
        accuracy = FoldPlan.stratified(y, cv=5, random_state=0).score(ZeroR(), X, y)
        assert accuracy == pytest.approx(0.75, abs=0.05)

    def test_informative_model_beats_zero_r(self, simple_xy):
        X, y = simple_xy
        plan = FoldPlan.stratified(y, cv=3, random_state=0)
        assert plan.score(J48(), X, y) > plan.score(ZeroR(), X, y)

    def test_crashing_estimator_scores_zero_not_raises(self, simple_xy):
        class Broken(J48):
            def _fit(self, X, y):
                raise RuntimeError("boom")

        X, y = simple_xy
        scores = FoldPlan.stratified(y, cv=3, random_state=0).scores(Broken(), X, y)
        assert np.all(scores == 0.0)

    def test_cv_clamped_for_tiny_classes(self):
        # One class has only 2 members; requesting 10 folds must not crash.
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.array([0] * 18 + [1] * 2)
        scores = FoldPlan.stratified(y, cv=10, random_state=0).scores(J48(), X, y)
        assert len(scores) >= 2
