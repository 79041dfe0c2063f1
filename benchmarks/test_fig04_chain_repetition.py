"""Fig. 4: unique vs repeated dependence chains within runahead intervals.

Paper claim: most chains leading to misses in a runahead interval are
repeats of chains already seen in that interval — the speculation the
runahead buffer is built on.
"""

from repro.analysis import figures


def test_fig04_chain_repetition(matrix, publish):
    table = figures.fig04_chain_repetition(matrix)
    publish(table, "fig04_chain_repetition.txt")

    rows = {r[0]: r for r in table.rows}
    # Only judge benchmarks with a meaningful number of chains.
    measured = {n: row[1] for n, row in rows.items()
                if row[2] + row[3] >= 20}
    assert measured, "no benchmark produced enough chains"

    repeated_majority = [n for n, pct in measured.items() if pct >= 50.0]
    assert len(repeated_majority) >= max(1, int(0.6 * len(measured)))

    # The gather kernels (mcf/milc/soplex) are highly repetitive.
    for name in ("mcf", "milc", "soplex"):
        if name in measured:
            assert measured[name] > 60.0
