"""The abstract's headline numbers, measured against the paper.

This is the one-stop summary EXPERIMENTS.md quotes; it asserts only the
claims DESIGN.md promises to preserve (who wins, directions, rough
factors), not absolute numbers.
"""

from repro.analysis import figures


def test_headline_summary(matrix, publish):
    table = figures.headline_summary(matrix)
    publish(table, "headline_summary.txt")

    measured = {row[0]: row[1] for row in table.rows}

    # Performance: every runahead flavour gains; hybrid >= buffer >= none.
    assert measured["runahead perf %"] > 5.0
    assert measured["rab_cc perf %"] > 5.0
    assert measured["hybrid perf %"] >= measured["rab_cc perf %"] - 2.0

    # Energy: traditional runahead costs, the buffer is ~neutral-to-saving,
    # the enhancements cut traditional runahead's bill.
    assert measured["runahead energy %"] > 5.0
    assert measured["runahead_enh energy %"] <= measured["runahead energy %"]
    assert measured["rab_cc energy %"] < measured["runahead energy %"] - 8.0
    assert measured["hybrid energy %"] < measured["runahead energy %"]
