"""Fig. 2: % of cache misses with source data available on chip.

Paper claim: the large majority of misses have all the data needed to
compute their addresses on chip — these are the misses runahead can
target.  The dependent-walk benchmark (sphinx3) is the main exception.
"""

from repro.analysis import figures
from repro.workloads import medium_high_names


def test_fig02_source_on_chip(matrix, publish):
    table = figures.fig02_source_on_chip(matrix)
    publish(table, "fig02_source_on_chip.txt")

    rows = table.row_map()
    analyzed = {n: rows[n][2] for n in medium_high_names()}
    onchip = {n: rows[n][1] for n in medium_high_names() if analyzed[n] > 10}

    # Majority of misses targetable by runahead for most benchmarks.
    mostly_onchip = [n for n, pct in onchip.items() if pct >= 70.0]
    assert len(mostly_onchip) >= len(onchip) - 2

    # The serially-dependent walk has a large off-chip-source fraction.
    if analyzed.get("sphinx3", 0) > 10:
        assert onchip["sphinx3"] < 75.0

    # Pure streams compute every address from on-chip data.
    for name in ("libquantum", "bwaves"):
        if analyzed.get(name, 0) > 10:
            assert onchip[name] > 90.0
