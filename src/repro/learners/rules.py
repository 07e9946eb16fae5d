"""Rule-based learners from Weka's ``rules`` package: ZeroR, OneR, JRip, PART, Ridor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .base import BaseClassifier

__all__ = ["ZeroR", "OneR", "JRip", "PART", "Ridor"]


class ZeroR(BaseClassifier):
    """Majority-class baseline."""

    def __init__(self) -> None:
        super().__init__()

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        counts = np.bincount(y, minlength=len(self.classes_)).astype(np.float64)
        self.distribution_ = counts / counts.sum()

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.distribution_, (X.shape[0], 1))


class OneR(BaseClassifier):
    """One-rule classifier: the single best discretised attribute."""

    def __init__(self, n_bins: int = 6) -> None:
        super().__init__()
        self.n_bins = n_bins

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        n_classes = len(self.classes_)
        best_error = np.inf
        best: tuple[int, np.ndarray, np.ndarray] | None = None
        quantiles = np.linspace(0, 100, self.n_bins + 1)[1:-1]
        majority = np.argmax(np.bincount(y, minlength=n_classes))
        for feature in range(X.shape[1]):
            edges = np.unique(np.percentile(X[:, feature], quantiles))
            bins = np.searchsorted(edges, X[:, feature], side="right")
            rules = np.full(len(edges) + 1, majority, dtype=np.int64)
            for b in range(len(edges) + 1):
                members = y[bins == b]
                if len(members):
                    rules[b] = np.argmax(np.bincount(members, minlength=n_classes))
            error = float(np.mean(rules[bins] != y))
            if error < best_error:
                best_error = error
                best = (feature, edges, rules)
        assert best is not None
        self.feature_, self.edges_, self.rules_ = best
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        self.prior_ = counts / counts.sum()

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        bins = np.searchsorted(self.edges_, X[:, self.feature_], side="right")
        bins = np.clip(bins, 0, len(self.rules_) - 1)
        predictions = self.rules_[bins]
        proba = np.tile(self.prior_ * 0.1, (X.shape[0], 1))
        proba[np.arange(X.shape[0]), predictions] += 0.9
        return proba / proba.sum(axis=1, keepdims=True)


@dataclass
class _Rule:
    """Conjunction of ``feature <op> threshold`` conditions predicting one class."""

    conditions: list[tuple[int, str, float]]
    label: int

    def covers(self, X: np.ndarray) -> np.ndarray:
        mask = np.ones(X.shape[0], dtype=bool)
        for feature, op, threshold in self.conditions:
            if op == "<=":
                mask &= X[:, feature] <= threshold
            else:
                mask &= X[:, feature] > threshold
        return mask


class _SequentialCovering(BaseClassifier):
    """Shared engine for separate-and-conquer rule induction (JRip/PART/Ridor)."""

    max_rules = 20
    max_conditions = 3
    min_coverage = 3

    def __init__(self, random_state: int | None = None) -> None:
        super().__init__()
        self.random_state = random_state

    def _best_condition(
        self, Xm: np.ndarray, hit: np.ndarray, current_precision: float
    ) -> tuple[int, str, float] | None:
        """Best-gain condition over the rows ``Xm`` still covered by the rule.

        Candidates are every feature's 25/50/75th percentile under ``<=`` and
        ``>``, scored in one array pass per feature block (blocks bounded by
        :data:`kernels.DEFAULT_CHUNK_ELEMENTS`).  The arithmetic is the
        historical per-candidate loop's, element for element, and the first
        maximum in (feature, quantile, op) order wins — its strict
        ``gain > best`` rule.
        """
        n_rows, n_features = Xm.shape
        thresholds = np.percentile(Xm, (25, 50, 75), axis=0).T
        best_gain = 0.0
        best: tuple[int, str, float] | None = None
        for block in kernels.query_chunks(n_features, n_rows * 3):
            below = Xm[:, block, None] <= thresholds[block]
            covered_le = below.sum(axis=0)
            hits_le = below[hit].sum(axis=0)
            # (feature, quantile, op) with op 0 = "<=", 1 = ">".
            covered = np.stack((covered_le, n_rows - covered_le), axis=-1)
            hits = np.stack((hits_le, hit.sum() - hits_le), axis=-1)
            precision = hits / np.maximum(covered, 1)  # covered == 0 is masked below
            gain = (precision - current_precision) * np.log1p(covered)
            gain = np.where(covered >= self.min_coverage, gain, -np.inf).ravel()
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                best_gain = gain[j]
                f, q, op = np.unravel_index(j, covered.shape)
                feature = block.start + int(f)
                best = (feature, ("<=", ">")[op], float(thresholds[feature, q]))
        return best

    def _grow_rule(self, X: np.ndarray, y: np.ndarray, target: int) -> _Rule | None:
        conditions: list[tuple[int, str, float]] = []
        mask = np.ones(X.shape[0], dtype=bool)
        hit = y == target
        for _ in range(self.max_conditions):
            if not mask.any():
                break
            best_condition = self._best_condition(X[mask], hit[mask], np.mean(hit[mask]))
            if best_condition is None:
                break
            conditions.append(best_condition)
            feature, op, threshold = best_condition
            mask &= X[:, feature] <= threshold if op == "<=" else X[:, feature] > threshold
            if mask.any() and np.mean(y[mask] == target) > 0.95:
                break
        if not conditions or not mask.any():
            return None
        return _Rule(conditions=conditions, label=target)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n_classes = len(self.classes_)
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        self.default_distribution_ = counts / counts.sum()
        self.rules_: list[_Rule] = []
        remaining = np.ones(X.shape[0], dtype=bool)
        # Learn rules for classes from rarest to most common (RIPPER ordering).
        class_order = np.argsort(counts)
        for target in class_order[:-1]:
            while remaining.sum() > self.min_coverage and len(self.rules_) < self.max_rules:
                if not np.any(y[remaining] == target):
                    break
                rule = self._grow_rule(X[remaining], y[remaining], int(target))
                if rule is None:
                    break
                covered_local = rule.covers(X[remaining])
                precision = np.mean(y[remaining][covered_local] == target)
                if precision < 0.5:
                    break
                self.rules_.append(rule)
                remaining_idx = np.flatnonzero(remaining)
                remaining[remaining_idx[covered_local]] = False

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n_classes = len(self.classes_)
        proba = np.zeros((X.shape[0], n_classes))
        decided = np.zeros(X.shape[0], dtype=bool)
        for rule in self.rules_:
            mask = rule.covers(X) & ~decided
            proba[mask, rule.label] = 1.0
            decided |= mask
        proba[~decided] = self.default_distribution_
        return proba


class JRip(_SequentialCovering):
    """RIPPER-style repeated incremental pruning (sequential covering)."""

    max_rules = 20
    max_conditions = 3


class PART(_SequentialCovering):
    """PART analogue: longer rules extracted greedily from partial trees."""

    max_rules = 30
    max_conditions = 4


class Ridor(_SequentialCovering):
    """RIpple-DOwn rule learner analogue: few, shallow exception rules."""

    max_rules = 10
    max_conditions = 2
