"""Ablation (beyond the paper's figures): runahead buffer size sweep.

The paper states 32 uops was chosen through sensitivity analysis (§5).
This sweep regenerates that analysis: small buffers truncate chains
(can't hold one loop body), very large ones add nothing because chains
are short (Fig. 5).
"""

import pytest

from repro.analysis.sweeps import buffer_size_sweep

BENCHES = ("mcf", "milc", "soplex", "omnetpp")
SIZES = (8, 16, 32, 64)


@pytest.fixture(scope="module")
def sweep():
    points = buffer_size_sweep(SIZES, benches=BENCHES, instructions=3000,
                               warmup=12_000)
    return {point.value: point.speedup_pct for point in points}


def test_buffer_size_sweep(sweep, publish, benchmark):
    from repro.analysis import Table
    table = Table("Ablation: runahead buffer size (gmean % IPC vs baseline)",
                  ["buffer_uops", "speedup_pct"])
    for size in SIZES:
        table.add(size, sweep[size])
    publish(table, "ablation_buffer_size.txt")
    benchmark(lambda: dict(sweep))

    # The paper's operating point is a sensible choice: 32 is at least as
    # good as the small buffers, and 64 adds little beyond 32.
    assert sweep[32] >= sweep[8] - 2.0
    assert abs(sweep[64] - sweep[32]) < max(10.0, 0.5 * abs(sweep[32]))
    # All sizes produce positive gains on the gather set.
    assert all(v > 0 for v in sweep.values())
