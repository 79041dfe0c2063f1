"""The simulated core: processor, statistics, dataflow analytics, runner."""

from .dataflow import DataflowTracker
from .processor import Processor
from .sim import SimulationResult, simulate, simulate_cohort
from .stats import ChainAnalysis, SimStats
from .trace import CommitTrace, CommittedOp, render_interval_timeline

__all__ = [
    "ChainAnalysis",
    "CommitTrace",
    "CommittedOp",
    "DataflowTracker",
    "Processor",
    "SimStats",
    "SimulationResult",
    "render_interval_timeline",
    "simulate",
    "simulate_cohort",
]
