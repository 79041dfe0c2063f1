"""Fig. 13: % of chain-cache hits exactly matching the ROB-generated chain.

Paper claim: ~53% of chain-cache hits exactly match the chain that would
have been generated from the ROB at that moment — a hit is deliberate
speculation that an old chain is better than paying generation latency.
"""

from repro.analysis import figures


def test_fig13_chain_cache_accuracy(matrix, publish):
    table = figures.fig13_chain_cache_accuracy(matrix)
    publish(table, "fig13_chain_cache_accuracy.txt")

    rows = table.row_map()
    measured = {n: r[1] for n, r in rows.items()
                if n != "Average" and isinstance(r[2], int) and r[2] >= 5}
    assert measured, "no benchmark produced enough checked hits"

    # Exact-match fractions are meaningful percentages, and the stable
    # single-chain gathers match nearly always.
    for name, pct in measured.items():
        assert 0.0 <= pct <= 100.0
    for name in ("mcf", "milc"):
        if name in measured:
            assert measured[name] > 50.0
