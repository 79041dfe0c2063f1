"""Benchmark fixtures: the shared experiment matrix.

Every ``benchmarks/test_figNN_*.py`` target reproduces one figure/table of
the paper from the same cached (workload x configuration) matrix.  The
session fixture pre-populates every cell the figure suite reads in one
process-parallel fan-out (``repro.analysis.parallel``) and persists
``results/experiments.json``; later runs re-use it and individual tests
only read the cache.  Budgets are controlled by ``REPRO_BENCH_INSTS`` /
``REPRO_BENCH_WARMUP``; worker count by ``REPRO_BENCH_JOBS``
(default: all cores).

Rendered figure reproductions are written to ``results/figures/``.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentMatrix, figures, render, write_report
from repro.analysis.parallel import print_progress


@pytest.fixture(scope="session")
def matrix():
    m = ExperimentMatrix()
    simulated = m.prefetch(figures.figure_matrix_cells(),
                           progress=print_progress)
    if simulated.cells:
        print(f"matrix: simulated {simulated.cells} missing cells in "
              f"{simulated.runs} runs")
    yield m
    m.save()


@pytest.fixture
def publish(matrix):
    """Render a figure table, persist it, and echo it to the log."""

    def _publish(table, filename):
        path = write_report(table, filename)
        print()
        print(render(table))
        matrix.save()
        return path

    return _publish
