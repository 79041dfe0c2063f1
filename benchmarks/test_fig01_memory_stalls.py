"""Fig. 1: % of cycles stalled waiting for memory, whole suite.

Paper claim: memory-intensive applications (right of GemsFDTD) spend over
half their cycles stalled on memory and largely run at IPC < 1; the
low-intensity applications barely stall.
"""

from repro.analysis import figures
from repro.workloads import names_by_intensity


def test_fig01_memory_stalls(matrix, publish):
    table = figures.fig01_memory_stalls(matrix)
    publish(table, "fig01_memory_stalls.txt")

    rows = table.row_map()
    high = names_by_intensity("high")
    low = names_by_intensity("low")

    # High-intensity: majority of cycles stalled on memory, IPC mostly < 1.
    high_stalls = [rows[n][2] for n in high]
    assert sum(s > 50.0 for s in high_stalls) >= len(high) - 2
    high_ipcs = [rows[n][3] for n in high]
    assert sum(i < 1.2 for i in high_ipcs) >= len(high) - 2

    # Low-intensity: little memory stalling.
    low_stalls = [rows[n][2] for n in low]
    assert max(low_stalls) < 30.0

    # Stall time grows with memory intensity on average.
    assert (sum(high_stalls) / len(high_stalls)
            > 3 * sum(low_stalls) / len(low_stalls) if sum(low_stalls)
            else True)
