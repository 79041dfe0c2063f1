"""Fig. 11: % of total cycles spent in runahead-buffer mode.

Paper claim: on average 47% of execution cycles are spent in runahead
buffer mode — cycles during which the front-end is clock-gated, the
source of the buffer's dynamic-energy savings.
"""

from repro.analysis import figures


def test_fig11_rab_cycles(matrix, publish):
    table = figures.fig11_rab_cycles(matrix)
    publish(table, "fig11_rab_cycles.txt")

    rows = table.row_map()
    average = rows["Average"][1]
    # A large fraction of cycles, in the paper's ballpark (47%).
    assert 15.0 <= average <= 70.0

    # Memory-bound gathers spend the most time in buffer mode.
    assert rows["mcf"][1] > 20.0
    # Fractions are sane percentages.
    for name, row in rows.items():
        assert 0.0 <= row[1] <= 100.0
