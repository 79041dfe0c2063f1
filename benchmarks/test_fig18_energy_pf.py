"""Fig. 18: normalized energy with prefetching.

Paper claims (gmean vs the no-PF baseline): pf -19.5%; runahead+pf -1.7%
(i.e. it gives back most of the prefetcher's saving); enhancements+pf
-15.4%; buffer+pf -20.8%; buffer+cc+pf -22.5%; hybrid+pf -19.9%.  The
robust orderings: the buffer variants are the most efficient runahead
schemes, and traditional runahead+pf is the least efficient.
"""

from repro.analysis import figures


def test_fig18_energy_pf(matrix, publish):
    table = figures.fig18_energy_pf(matrix)
    publish(table, "fig18_energy_pf.txt")

    gmean = table.row_map()["GMean"]
    pf, ra_pf, ra_enh_pf, rab_pf, rab_cc_pf, hybrid_pf = gmean[1:7]

    # The prefetcher saves energy by cutting execution time.
    assert pf < 0.0
    # Traditional runahead spends back a chunk of that saving.
    assert ra_pf > pf + 3.0
    # The enhancements recover part of it.
    assert ra_enh_pf <= ra_pf + 1.0
    # The buffer variants stay cheaper than traditional runahead + pf.
    assert rab_cc_pf < ra_pf + 2.0
    assert rab_pf < ra_pf + 4.0
    assert hybrid_pf < ra_pf + 4.0
