"""Ablation: the ISCA'05 runahead enhancements applied to the buffer.

Paper (§4.6): the short/overlapping-interval filters matter a lot for
traditional runahead's energy but "do not noticeably effect energy
consumption for the runahead buffer policies".
"""

import pytest

from repro.analysis import CellSpec, Table, gmean, simulate_cells
from repro.config import RunaheadMode, make_config

BENCHES = ("mcf", "milc", "libquantum", "zeusmp")
VARIANTS = {
    "baseline": (RunaheadMode.NONE, False),
    "runahead": (RunaheadMode.TRADITIONAL, False),
    "runahead_enh": (RunaheadMode.TRADITIONAL, True),
    "rab": (RunaheadMode.BUFFER, False),
    "rab_enh": (RunaheadMode.BUFFER, True),
}


@pytest.fixture(scope="module")
def results():
    runs = [(name, label) for name in BENCHES for label in VARIANTS]
    specs = []
    for name, label in runs:
        mode, enhancements = VARIANTS[label]
        specs.append(CellSpec(name, label,
                              make_config(mode, enhancements=enhancements),
                              3000, 12_000))
    batch = simulate_cells(specs)
    energy = {run: stats["total_energy_j"]
              for run, stats in zip(runs, batch.stats)}
    return {label: 100.0 * (gmean([energy[name, label]
                                   / energy[name, "baseline"]
                                   for name in BENCHES]) - 1.0)
            for label in VARIANTS if label != "baseline"}


def test_enhancements_matter_less_for_the_buffer(results, publish,
                                                 benchmark):
    table = Table("Ablation: ISCA'05 enhancements (gmean % energy vs "
                  "baseline)", ["config", "energy_pct"])
    for label, value in results.items():
        table.add(label, value)
    publish(table, "ablation_enhancements.txt")
    benchmark(lambda: dict(results))

    effect_on_runahead = results["runahead"] - results["runahead_enh"]
    effect_on_rab = abs(results["rab"] - results["rab_enh"])
    # The buffer's energy moves less than traditional runahead's, and the
    # buffer is cheaper than traditional runahead either way.
    assert results["rab"] < results["runahead"]
    assert effect_on_rab < max(6.0, abs(effect_on_runahead) + 6.0)
