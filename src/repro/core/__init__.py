"""The simulated core: processor, statistics, dataflow analytics, runner."""

from .dataflow import DataflowTracker
from .processor import Processor
from .sim import SimulationResult, cohort_runs, simulate, simulate_cohort
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
    "cohort_runs",
    "render_interval_timeline",
    "simulate",
    "simulate_cohort",
]
