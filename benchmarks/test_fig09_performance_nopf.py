"""Fig. 9: performance of the runahead configurations, no prefetching.

Paper claims (medium+high gmean over the no-PF baseline):
  runahead +14.3%, runahead buffer +14.4%, +chain cache +17.2%,
  hybrid +21.0%.  Key per-benchmark shapes: the buffer beats traditional
  runahead on mcf/milc/zeusmp/cactus; omnetpp strongly prefers
  traditional runahead; the hybrid never loses badly to either.
"""

from repro.analysis import figures


def test_fig09_performance_nopf(matrix, publish):
    table = figures.fig09_performance_nopf(matrix)
    publish(table, "fig09_performance_nopf.txt")

    rows = table.row_map()
    gmean = rows["GMean"]
    runahead, rab, rab_cc, hybrid = gmean[1], gmean[2], gmean[3], gmean[4]

    # Everything helps on average, and the paper's ordering holds:
    # runahead <= rab <= rab_cc <= hybrid (with slack for noise).
    assert runahead > 5.0
    assert rab > 5.0
    assert rab_cc >= rab - 2.0
    assert hybrid >= rab_cc - 2.0
    assert hybrid >= runahead - 2.0

    # The runahead buffer's best cases (paper: mcf, milc, zeusmp, cactus).
    wins = sum(rows[n][2] > rows[n][1]
               for n in ("mcf", "milc", "zeusmp", "cactusADM"))
    assert wins >= 3

    # omnetpp prefers traditional runahead; the hybrid follows it there.
    assert rows["omnetpp"][1] > rows["omnetpp"][2] + 5.0
    assert rows["omnetpp"][4] >= rows["omnetpp"][1] - 2.0
