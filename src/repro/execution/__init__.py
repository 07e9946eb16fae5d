"""Unified trial-execution subsystem.

Every configuration evaluation in the reproduction — HPO optimizers, the
online UDR, the offline corpus/performance layer and the CASH baselines —
runs through one :class:`EvaluationEngine`: a cached, optionally parallel,
budget-aware executor with crash accounting.  See :mod:`repro.execution.engine`
for the design notes.
"""

from .budget import Budget
from .cache import EvaluationCache, config_fingerprint
from .coordinator import CoordinatorStats, WorkCoordinator, claims_context
from .engine import EngineStats, EvalOutcome, EvaluationEngine, timed_call
from .folds import FoldPlan
from .jobs import JobQueue, JobQueueStats, JobRecord
from .objectives import CrossValObjective, estimator_engine, objective_context_suffix
from .store import ResultStore, StoreStats, fingerprint_key
from .store_backends import (
    HttpStoreBackend,
    JsonlBackend,
    ShardImage,
    SqliteBackend,
    StoreBackend,
)

__all__ = [
    "JobQueue",
    "JobQueueStats",
    "JobRecord",
    "Budget",
    "EvaluationCache",
    "config_fingerprint",
    "CoordinatorStats",
    "WorkCoordinator",
    "claims_context",
    "EngineStats",
    "EvalOutcome",
    "EvaluationEngine",
    "timed_call",
    "FoldPlan",
    "CrossValObjective",
    "estimator_engine",
    "objective_context_suffix",
    "ResultStore",
    "StoreStats",
    "fingerprint_key",
    "StoreBackend",
    "ShardImage",
    "JsonlBackend",
    "SqliteBackend",
    "HttpStoreBackend",
]
