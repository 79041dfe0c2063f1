"""Cycle-equivalence suite: the optimized hot paths must be timing no-ops.

The simulator's inner loops carry several profile-guided optimizations
(static decode tables, MRU cache fast paths, indexed wakeup — see
``docs/simulator.md``).  Each one is argued to be *bit-identical* to the
straightforward implementation; this suite enforces that argument: every
workload x runahead mode must reproduce the pinned pre-optimization
reference stats exactly — cycles, IPC, every cache/DRAM counter, and
every energy-event count.

The reference (``tests/golden/cycle_equivalence.json``) was generated
from the unoptimized simulator (plus the intentional fetch ``_line_ready``
redirect fix) at small budgets.  To regenerate after an *intentional*
model change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_cycle_equivalence.py -q

and commit the updated JSON together with the model change.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.config import build_named_config
from repro.core import simulate, simulate_cohort
from repro.workloads import workload_names

GOLDEN_PATH = Path(__file__).parent / "golden" / "cycle_equivalence.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

# One named config per RunaheadMode (NONE, TRADITIONAL, BUFFER,
# BUFFER_CHAIN_CACHE, HYBRID).
CONFIGS = ("baseline", "runahead", "rab", "rab_cc", "hybrid")

INSTRUCTIONS = 2_000
WARMUP = 1_500

# Derived float metrics are recomputed from the integer counters, so a
# mismatch would be double-reported; drop them plus free-form metadata.
_SKIP_KEYS = frozenset({
    "workload", "config_name", "energy_report", "ipc", "mpki",
    "memstall_fraction", "branch_accuracy", "rab_cycle_fraction",
    "runahead_cycle_fraction", "hybrid_rab_share", "chain_cache_hit_rate",
    "chain_cache_exact_fraction", "misses_per_interval", "total_energy_j",
})


def _canonical(stats) -> dict:
    """The integer-exact projection of SimStats that must not drift."""
    out = {}
    for key, value in stats.to_dict().items():
        if key in _SKIP_KEYS:
            continue
        if isinstance(value, float):
            # chains analysis carries a few derived floats; normalize.
            value = round(value, 12)
        out[key] = value
    return out


def _simulate_cell(workload: str, config_name: str) -> dict:
    result = simulate(workload, build_named_config(config_name),
                      max_instructions=INSTRUCTIONS,
                      warmup_instructions=WARMUP)
    return _canonical(result.stats)


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.skip("golden reference missing; regenerate with "
                    "REPRO_REGEN_GOLDEN=1")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    if REGEN:
        doc = {
            "instructions": INSTRUCTIONS,
            "warmup": WARMUP,
            "cells": {
                f"{workload}/{config}": _simulate_cell(workload, config)
                for workload in workload_names()
                for config in CONFIGS
            },
        }
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return doc
    return _load_golden()


@pytest.mark.parametrize("config_name", CONFIGS)
def test_cycle_identical(golden, config_name):
    assert golden["instructions"] == INSTRUCTIONS
    assert golden["warmup"] == WARMUP
    mismatches = []
    for workload in workload_names():
        reference = golden["cells"][f"{workload}/{config_name}"]
        current = _simulate_cell(workload, config_name)
        if current != reference:
            diffs = []
            for key in sorted(set(reference) | set(current)):
                ref_v, cur_v = reference.get(key), current.get(key)
                if ref_v != cur_v:
                    diffs.append(f"{key}: ref={ref_v!r} cur={cur_v!r}")
            mismatches.append(f"{workload}: " + "; ".join(diffs[:8]))
    assert not mismatches, (
        f"{config_name}: stats drifted from the pinned reference on "
        f"{len(mismatches)} workload(s):\n  " + "\n  ".join(mismatches)
    )


# -- cohorts ---------------------------------------------------------------------
#
# The runahead configs of one workload run as one cohort
# (simulate_cohort): one core simulates the shared trajectory and each
# member keeps its own entry policy.  Every member must reproduce its own
# pinned cell, including the fields its policy owns: chain-cache hits and
# misses, chain generations, entries_blocked_*, and the chain readout's
# share of rob_read.

COHORT = ("runahead", "rab", "rab_cc", "hybrid")


def test_cohort_members_match_golden(golden):
    mismatches = []
    for workload in workload_names():
        results, _runs = simulate_cohort(
            workload, [build_named_config(c) for c in COHORT],
            max_instructions=INSTRUCTIONS, warmup_instructions=WARMUP)
        for config_name, stats in zip(COHORT, results):
            reference = golden["cells"][f"{workload}/{config_name}"]
            current = _canonical(stats)
            if current != reference:
                keys = sorted(k for k in reference
                              if current.get(k) != reference[k])
                mismatches.append(f"{workload}/{config_name}: {keys[:8]}")
    assert not mismatches, (
        "cohort members drifted from their pinned cells:\n  "
        + "\n  ".join(mismatches))


# -- core/shared-complex graph ------------------------------------------------
#
# Each core's hierarchy calls its LLC/DRAM complex (SharedLLC) directly:
# every golden cell above already exercises that graph, because the
# default single-core hierarchy builds a private complex.  These tests
# make the contract explicit: the graph is real (not vestigial), and
# driving the same cells through the *multi-core* construction path
# (System with N=1) reproduces the pinned reference bit-for-bit.

PORT_SAMPLE_WORKLOADS = ("mcf", "lbm", "omnetpp", "libquantum")


def test_default_hierarchy_routes_through_the_port_graph():
    from repro.config import build_named_config
    from repro.core.processor import Processor
    from repro.memory import SharedLLC
    from repro.workloads import build_workload

    workload = build_workload("mcf")
    proc = Processor(workload.program, build_named_config("rab_cc"),
                     memory=workload.memory, init_regs=workload.init_regs)
    hierarchy = proc.hierarchy
    shared = hierarchy.shared
    assert isinstance(shared, SharedLLC)
    # A private complex with this core as its only connection.
    assert shared._accounts == [hierarchy._acct] and hierarchy.core_id == 0
    assert not hierarchy.is_shared
    assert shared._l1_pairs == [(hierarchy.l1d, hierarchy.l1i)]
    assert hierarchy.llc is shared.llc
    # The complex settles every LLC victim: evicting a line this core
    # holds back-invalidates its L1D.
    line = 0x40000
    hierarchy.warm_load(line << hierarchy._line_shift)
    for k in range(1, shared.llc.assoc + 1):
        shared.fill(line + k * shared.llc.num_sets, 0)
    assert not shared.llc.probe(line) and not hierarchy.l1d.probe(line)


@pytest.mark.parametrize("config_name", ("baseline", "rab_cc"))
def test_port_graph_single_core_matches_golden(golden, config_name):
    from repro import simulate_multicore

    mismatches = []
    for workload in PORT_SAMPLE_WORKLOADS:
        reference = golden["cells"][f"{workload}/{config_name}"]
        result = simulate_multicore([workload], cores=1,
                                    configs=[config_name],
                                    max_instructions=INSTRUCTIONS,
                                    warmup_instructions=WARMUP)
        if _canonical(result.per_core[0]) != reference:
            mismatches.append(workload)
    assert not mismatches, (
        f"{config_name}: the N=1 component-graph path drifted from the "
        f"pinned single-core reference on {mismatches}")


# -- the wake-up-driven clock --------------------------------------------------
#
# A full window blocked behind an LLC miss (and any other stretch in which
# no stage can act) costs one _step call, not one per cycle.  The cells
# must still match the pinned reference, which was produced by stepping
# such stretches cycle by cycle.

@pytest.mark.parametrize("config_name,max_share", (("baseline", 0.5),
                                                   ("hybrid", 0.75)))
def test_idle_stretches_cost_one_step(golden, config_name, max_share):
    steps = 0

    def count(_proc) -> None:
        nonlocal steps
        steps += 1

    result = simulate("mcf", build_named_config(config_name),
                      max_instructions=INSTRUCTIONS,
                      warmup_instructions=WARMUP,
                      attach=lambda proc: proc.set_cycle_hook(count))
    assert _canonical(result.stats) == golden["cells"][f"mcf/{config_name}"]
    cycles = result.stats.cycles
    assert steps <= max_share * cycles, (
        f"mcf/{config_name}: {steps} steps for {cycles} simulated cycles")


def test_golden_covers_full_grid(golden):
    expected = {f"{w}/{c}" for w in workload_names() for c in CONFIGS}
    assert expected == set(golden["cells"])
    # Sanity: the reference itself must describe real runs.
    for key, cell in golden["cells"].items():
        assert cell["committed_insts"] >= INSTRUCTIONS, key
        assert cell["cycles"] > 0, key
        assert math.isfinite(cell["cycles"]), key
