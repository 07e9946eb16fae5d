"""Task-instance meta-features (Table III of the paper)."""

from .extractor import FeatureCache, FeatureCacheStats, FeatureExtractor, feature_cache
from .features import (
    FEATURE_DESCRIPTIONS,
    FEATURE_FUNCTIONS,
    FEATURE_NAMES,
    Extraction,
    compute_feature,
    extract,
)

__all__ = [
    "FeatureExtractor",
    "FeatureCache",
    "FeatureCacheStats",
    "feature_cache",
    "FEATURE_DESCRIPTIONS",
    "FEATURE_FUNCTIONS",
    "FEATURE_NAMES",
    "Extraction",
    "extract",
    "compute_feature",
]
