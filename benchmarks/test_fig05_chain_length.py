"""Fig. 5: average dependence-chain length in uops.

Paper claim: with the exception of omnetpp (~70 uops), memory-intensive
applications have average chain lengths under 32 uops — hence the 32-uop
runahead buffer; mcf/libquantum/bwaves/soplex are under 20.
"""

from repro.analysis import figures


def test_fig05_chain_length(matrix, publish):
    table = figures.fig05_chain_length(matrix)
    publish(table, "fig05_chain_length.txt")

    rows = {r[0]: r for r in table.rows}
    measured = {n: row[1] for n, row in rows.items()
                if n != "Average" and row[2] >= 10}
    assert measured

    # All but omnetpp fit inside the 32-uop runahead buffer.
    for name, length in measured.items():
        if name != "omnetpp":
            assert length <= 32.0, f"{name} chain too long: {length}"

    # omnetpp's chains exceed the buffer cap (paper: ~70 uops).
    if "omnetpp" in measured:
        assert measured["omnetpp"] > 30.0

    # The paper's short-chain set.
    for name in ("mcf", "libquantum", "bwaves", "soplex"):
        if name in measured:
            assert measured[name] < 20.0
