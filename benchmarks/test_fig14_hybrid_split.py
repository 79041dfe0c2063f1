"""Fig. 14: % of runahead cycles spent in the buffer under the hybrid.

Paper claim: the hybrid policy favours the runahead buffer (71% of
runahead cycles on average) but falls back to traditional runahead on
the chain-hostile benchmarks (omnetpp most of the time).
"""

from repro.analysis import figures


def test_fig14_hybrid_split(matrix, publish):
    table = figures.fig14_hybrid_split(matrix)
    publish(table, "fig14_hybrid_split.txt")

    rows = table.row_map()
    # The hybrid favours the buffer overall (paper: 71%).
    assert rows["Average"][1] > 50.0

    # omnetpp executes mostly (paper: majority) in traditional mode.
    assert rows["omnetpp"][1] < 50.0

    # The short-chain gathers essentially always use the buffer.
    for name in ("mcf", "milc", "soplex"):
        assert rows[name][1] > 80.0
