"""Front-end: fetch unit and hybrid branch predictor.

The paper's key energy observation is that this is the part of the core
that traditional runahead keeps busy (up to 40% of core power) and the
runahead buffer clock-gates.
"""

from .branch_predictor import (
    BranchPredictor,
    BranchPredictorStats,
    PredictorSnapshot,
)
from .fetch import INST_BYTES, FetchUnit

__all__ = [
    "BranchPredictor",
    "BranchPredictorStats",
    "FetchUnit",
    "INST_BYTES",
    "PredictorSnapshot",
]
