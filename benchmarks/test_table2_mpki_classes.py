"""Table 2: SPEC06 classification by memory intensity (MPKI).

High: MPKI >= 10; medium: 2 < MPKI < 10; low: MPKI <= 2.  The measured
class of every synthetic benchmark must match the paper's Table 2
membership (a small tolerance band absorbs run-length noise).
"""

from repro.analysis import figures
from repro.workloads import intensity_of, workload_names


def test_table2_mpki_classes(matrix, publish):
    table = figures.table2_mpki_classes(matrix)
    publish(table, "table2_mpki_classes.txt")

    mismatches = []
    for name, mpki, measured, registered in table.rows:
        if measured != registered:
            # Tolerance: within 25% of a class boundary.
            near_boundary = (abs(mpki - 10) < 2.5) or (abs(mpki - 2) < 0.5)
            if not near_boundary:
                mismatches.append((name, mpki, measured, registered))
    assert not mismatches, f"class mismatches: {mismatches}"

    # Spot-check the paper's anchors.
    rows = table.row_map()
    assert rows["mcf"][1] >= 10
    assert rows["libquantum"][1] >= 10
    assert 2 < rows["zeusmp"][1] < 12
    assert rows["calculix"][1] <= 2
    assert intensity_of("mcf") == "high"
    assert len(workload_names()) == len(table.rows)
