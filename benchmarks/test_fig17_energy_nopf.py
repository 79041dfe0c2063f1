"""Fig. 17: normalized energy, no prefetching.

Paper claims (gmean): traditional runahead +44% energy (front-end active
through every interval); with the ISCA'05 enhancements +9%; the runahead
buffer saves energy (-4.4%, -6.7% with the chain cache); the hybrid is
in between (-2.3%) because it spends some cycles in the less efficient
traditional mode.
"""

from repro.analysis import figures


def test_fig17_energy_nopf(matrix, publish):
    table = figures.fig17_energy_nopf(matrix)
    publish(table, "fig17_energy_nopf.txt")

    gmean = table.row_map()["GMean"]
    runahead, runahead_enh, rab, rab_cc, hybrid = gmean[1:6]

    # Traditional runahead costs energy; the enhancements reduce the cost.
    assert runahead > 5.0
    assert runahead_enh <= runahead + 1.0

    # The runahead buffer is far cheaper than traditional runahead and
    # lands near/below break-even (paper: -4.4%/-6.7%).
    assert rab < runahead - 8.0
    assert rab_cc <= rab + 1.5
    assert rab_cc < 8.0

    # Hybrid stays close to the buffer's efficiency.
    assert hybrid < runahead - 8.0
