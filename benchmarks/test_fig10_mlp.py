"""Fig. 10: memory accesses generated per runahead interval.

Paper claims: the runahead buffer generates ~2x the cache misses of
traditional runahead per interval (it runs further ahead on the filtered
chain); adding a stream prefetcher reduces the MLP both schemes generate
(it prefetches some of the same addresses), yet the buffer retains a
large advantage.
"""

from repro.analysis import figures


def test_fig10_mlp(matrix, publish):
    table = figures.fig10_mlp(matrix)
    publish(table, "fig10_mlp.txt")

    avg = table.row_map()["Average"]
    ra, rab, ra_pf, rab_pf = avg[1], avg[2], avg[3], avg[4]

    # The buffer generates well over the paper's ~2x more MLP on average.
    assert rab > 1.5 * ra

    # Prefetching eats part of both schemes' MLP.
    assert rab_pf < rab
    # The buffer keeps a clear advantage even with the prefetcher.
    assert rab_pf > ra_pf

    # Per-benchmark: the big-body stencils show the largest gaps
    # (paper: zeusmp, cactus, milc, bwaves, mcf).
    rows = table.row_map()
    big_gaps = sum(rows[n][2] > 2 * max(rows[n][1], 0.5)
                   for n in ("zeusmp", "cactusADM", "milc", "bwaves", "mcf"))
    assert big_gaps >= 3
