"""Fig. 3: fraction of runahead-executed ops on miss dependence chains.

Paper claim: for most applications only a minority of the operations
traditional runahead executes are needed to generate cache misses (mcf:
36%) — the rest is wasted front-end/back-end energy, the motivation for
the filtered runahead buffer.
"""

from repro.analysis import figures


def test_fig03_chain_fraction(matrix, publish):
    table = figures.fig03_chain_fraction(matrix)
    publish(table, "fig03_chain_fraction.txt")

    rows = {r[0]: r for r in table.rows}
    measured = {n: row[1] for n, row in rows.items() if row[2] > 100}

    # Most benchmarks: well under half the executed ops are on chains.
    minority = [n for n, pct in measured.items() if pct < 50.0]
    assert len(minority) >= len(measured) // 2

    # omnetpp is the paper's outlier: almost all executed ops are on the
    # (very long) chains.
    if "omnetpp" in measured:
        assert measured["omnetpp"] > 50.0

    # Stencils with big FP bodies waste the most.
    for name in ("zeusmp", "cactusADM"):
        if name in measured:
            assert measured[name] < 30.0
