"""Experiment harness: run matrix, per-figure extractors, reporting."""

from . import figures
from .experiments import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    KEY_SCHEMA,
    MODEL_VERSION,
    ExperimentMatrix,
)
from .metrics import gmean
from .parallel import CellSpec, print_progress, resolve_jobs, simulate_cells
from .report import Table, render, write_report
from .sweeps import (
    CANNED_SWEEPS,
    SweepPoint,
    run_named_sweep,
    run_sweep,
    sweep_table,
)

__all__ = [
    "CANNED_SWEEPS",
    "CellSpec",
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_WARMUP",
    "ExperimentMatrix",
    "KEY_SCHEMA",
    "MODEL_VERSION",
    "Table",
    "figures",
    "gmean",
    "print_progress",
    "render",
    "resolve_jobs",
    "run_named_sweep",
    "run_sweep",
    "simulate_cells",
    "sweep_table",
    "SweepPoint",
    "write_report",
]
