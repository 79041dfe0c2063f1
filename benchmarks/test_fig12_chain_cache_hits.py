"""Fig. 12: chain cache hit rate.

Paper claim: benchmarks that benefit most from the chain cache show very
high hit rates (>95% for mcf/soplex class); the cache is tiny (2 entries)
so benchmarks whose blocking PCs rotate across many static loads miss.
"""

from repro.analysis import figures


def test_fig12_chain_cache_hits(matrix, publish):
    table = figures.fig12_chain_cache_hits(matrix)
    publish(table, "fig12_chain_cache_hits.txt")

    rows = table.row_map()
    # The single-delinquent-load gathers hit nearly always.
    for name in ("mcf", "milc", "soplex"):
        hits = rows[name][2]
        if isinstance(hits, int) and hits + rows[name][3] >= 5:
            assert rows[name][1] > 60.0, name

    for name, row in rows.items():
        if name == "Average":
            continue
        assert 0.0 <= row[1] <= 100.0
