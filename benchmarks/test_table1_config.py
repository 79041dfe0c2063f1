"""Table 1: the simulated system configuration must match the paper."""

from repro.analysis import figures


def test_table1_configuration(publish):
    table = figures.table1_configuration()
    publish(table, "table1_configuration.txt")
    for parameter, value, paper in table.rows:
        assert value == paper, f"{parameter}: {value} != paper {paper}"
