"""Fig. 16: additional DRAM requests vs the no-PF baseline.

Paper claims: traditional runahead is nearly free (+4% requests — it
replays the program's own accurate addresses); the runahead buffer costs
more (+12%, with inaccurate outliers omnetpp/sphinx); the hybrid reduces
that (+9%); the stream prefetcher is by far the most traffic-hungry
(+38%) even with FDP throttling.
"""

from repro.analysis import figures


def test_fig16_memory_traffic(matrix, publish):
    table = figures.fig16_memory_traffic(matrix)
    publish(table, "fig16_memory_traffic.txt")

    rows = table.row_map()
    gmean = rows["GMean"]
    runahead, rab, rab_cc, hybrid, pf = gmean[1:6]

    # Traditional runahead barely moves traffic.
    assert abs(runahead) < 15.0
    # The prefetcher is the most traffic-hungry scheme.
    assert pf > runahead + 10.0
    assert pf > hybrid
    # The buffer costs more traffic than traditional runahead...
    assert rab >= runahead - 3.0
    # ...and the hybrid does not exceed the prefetcher.
    assert hybrid <= pf

    # The paper's inaccurate-request outliers add real traffic under the
    # buffer.
    assert rows["sphinx3"][2] > rows["sphinx3"][1]
