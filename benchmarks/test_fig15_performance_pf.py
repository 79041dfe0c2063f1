"""Fig. 15: performance with a stream prefetcher.

Paper claims (gmean over the no-PF baseline): pf +37.5%, runahead+pf
+48.3%, buffer+pf +47.1%, buffer+cc+pf +48.2%, hybrid+pf +51.5%.
Runahead modes do well where the prefetcher does not (zeusmp, cactus,
mcf).  Known deviation of this reproduction (see EXPERIMENTS.md): on the
synthetic pure-stream kernels the prefetcher is closer to perfect than on
real SPEC streams, so the buffer+pf combinations trail pf-alone instead
of leading it; traditional runahead + pf preserves the paper's ordering.
"""

from repro.analysis import figures


def test_fig15_performance_pf(matrix, publish):
    table = figures.fig15_performance_pf(matrix)
    publish(table, "fig15_performance_pf.txt")

    rows = table.row_map()
    gmean = rows["GMean"]
    pf, ra_pf = gmean[1], gmean[2]

    # The prefetcher alone is a large win (paper +37.5%).
    assert pf > 20.0
    # Traditional runahead composes with the prefetcher (paper +48.3%).
    assert ra_pf > pf - 2.0

    # Runahead modes add the most where the prefetcher is weakest
    # (paper: zeusmp, cactus, mcf).
    helped = sum(
        max(rows[n][2], rows[n][4], rows[n][5]) > rows[n][1]
        for n in ("mcf", "milc", "soplex", "sphinx3")
    )
    assert helped >= 2

    # All runahead+pf configurations still improve on the no-PF baseline.
    for col in range(1, 6):
        assert gmean[col] > 10.0
