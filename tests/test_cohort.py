"""Cohorts: policy-only variants of one workload simulated as one run.

``simulate_cohort`` runs configurations that differ only in their
runahead entry policy on one trajectory.  A rider detaches where its
entry decision takes another path than the lead's, and re-runs; a rider
whose chain only reaches the buffer later (no chain-cache hit) stays
attached until the buffer issues a uop for exactly one of them.  Every
member's stats must equal its standalone ``simulate()`` run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import build_named_config
from repro.core import Processor, simulate, simulate_cohort
from repro.core.stats import ChainAnalysis
from repro.workloads import build_workload


def _config(name: str):
    """A named config; a ``+chains`` suffix collects chain statistics."""
    base, chains, _ = name.partition("+chains")
    config = build_named_config(base)
    if chains:
        config.runahead.collect_chain_stats = True
    return config


def _standalone(workload: str, name: str, insts: int, warmup: int) -> dict:
    return simulate(workload, _config(name), max_instructions=insts,
                    warmup_instructions=warmup,
                    config_name=name).stats.to_dict()


def _cohort(workload: str, names, insts: int, warmup: int):
    results, runs = simulate_cohort(
        workload, [_config(n) for n in names], max_instructions=insts,
        warmup_instructions=warmup, config_names=names)
    return [stats.to_dict() for stats in results], runs


def test_rider_detaches_at_a_different_entry_decision():
    # Traditional runahead and the buffer take different paths at the
    # first entry candidate, so the rider leaves right there.
    built = build_workload("mcf")
    proc = Processor(built.program, _config("runahead"),
                     memory=built.memory, init_regs=built.init_regs,
                     riders=[_config("rab").runahead])
    proc.warm_up(1_500)
    live_after_entry = []
    enter = proc._maybe_enter_runahead

    def watched(head, now):
        enter(head, now)
        live_after_entry.append(len(proc.members))

    proc._maybe_enter_runahead = watched
    proc.run(2_000)
    assert live_after_entry[0] == 1
    assert proc.attached() == [True, False]
    assert proc.member_stats()[1] is None

    stats, runs = _cohort("mcf", ["runahead", "rab"], 2_000, 1_500)
    assert runs == 2
    for name, cell in zip(["runahead", "rab"], stats):
        assert cell == _standalone("mcf", name, 2_000, 1_500), name


def test_later_buffer_start_alone_does_not_detach():
    # soplex at the figure budget: rab_cc's 18 chain-cache hits start the
    # buffer earlier than rab's fresh chains, but the buffer never issues
    # between the two start cycles, so the trajectories stay one.
    stats, runs = _cohort("soplex", ["rab_cc", "rab"], 5_000, 12_000)
    assert runs == 1
    assert stats[0]["chain_cache_hits"] == 18
    for name, cell in zip(["rab_cc", "rab"], stats):
        assert cell == _standalone("soplex", name, 5_000, 12_000), name


@pytest.mark.parametrize("names", [["rab_cc+chains", "rab_cc"],
                                   ["rab_cc", "rab_cc+chains"]])
def test_only_a_chains_member_gets_the_tracker_analysis(names):
    stats, runs = _cohort("mcf", names, 2_000, 1_500)
    assert runs == 1
    by_name = dict(zip(names, stats))
    empty = ChainAnalysis().to_dict()
    assert by_name["rab_cc+chains"]["chains"] != empty
    assert by_name["rab_cc"]["chains"] == empty
    for name, cell in by_name.items():
        assert cell == _standalone("mcf", name, 2_000, 1_500), name


def test_riders_must_differ_only_in_the_entry_policy():
    built = build_workload("mcf")
    lead = _config("rab")
    for rider in (replace(lead.runahead, chain_cache_entries=4),
                  _config("baseline").runahead):
        with pytest.raises(ValueError, match="cohort members"):
            Processor(built.program, lead, memory=built.memory,
                      init_regs=built.init_regs, riders=[rider])
