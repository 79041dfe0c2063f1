"""Ablation: runahead benefit vs out-of-order window (ROB) size.

Runahead exists to *virtually* extend the instruction window (the paper's
§1: "runahead targets cache misses that ... cannot be issued by the core
due to limitations on the size of the reorder buffer").  The corollary
this sweep checks: the bigger the real window, the less runahead is worth
— and the runahead buffer's advantage persists across window sizes.
"""

import pytest

from repro.analysis import CellSpec, Table, gmean, simulate_cells
from repro.config import RunaheadMode, make_config

BENCHES = ("mcf", "milc", "soplex")
ROB_SIZES = (96, 192, 384)
MODES = (RunaheadMode.NONE, RunaheadMode.TRADITIONAL, RunaheadMode.BUFFER)


def _config(mode, rob):
    cfg = make_config(mode)
    cfg.core.rob_size = rob
    cfg.core.num_phys_regs = rob + 160
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def sweep():
    runs = [(rob, name, mode)
            for rob in ROB_SIZES for name in BENCHES for mode in MODES]
    specs = [CellSpec(name, f"{mode.value}.rob{rob}", _config(mode, rob),
                      3000, 12_000) for rob, name, mode in runs]
    ipc = {run: stats["ipc"]
           for run, stats in zip(runs, simulate_cells(specs).stats)}

    def speedup(rob, mode):
        return 100.0 * (gmean([ipc[rob, name, mode]
                               / ipc[rob, name, RunaheadMode.NONE]
                               for name in BENCHES]) - 1.0)

    return {rob: (speedup(rob, RunaheadMode.TRADITIONAL),
                  speedup(rob, RunaheadMode.BUFFER)) for rob in ROB_SIZES}


def test_window_size_sweep(sweep, publish):
    table = Table("Ablation: ROB size vs runahead benefit "
                  "(gmean % IPC over same-ROB baseline)",
                  ["rob_size", "runahead_pct", "rab_pct"])
    for rob in ROB_SIZES:
        table.add(rob, *sweep[rob])
    publish(table, "ablation_window_size.txt")

    # Runahead helps at every window size on the gather set.
    for rob in ROB_SIZES:
        assert sweep[rob][1] > 0.0

    # The benefit shrinks as the real window grows.
    assert sweep[384][1] < sweep[96][1] + 5.0
