"""Baseline CASH solvers the paper compares against (Auto-WEKA and friends)."""

from .autoweka import (
    ALGORITHM_KEY,
    AutoWekaBaseline,
    joint_space,
    split_joint_config,
)
from .random_cash import RandomCASH, SingleBestBaseline

__all__ = [
    "ALGORITHM_KEY",
    "AutoWekaBaseline",
    "joint_space",
    "split_joint_config",
    "RandomCASH",
    "SingleBestBaseline",
]
