"""Multi-core system tests: determinism, single-core equivalence,
warm-up lane independence, scaling, contention accounting, and runahead
fairness.

The determinism gate is the load-bearing test: a multi-core run's
per-core fingerprints must be byte-identical across reruns (the heap
scheduler breaks ties by core index and nothing anywhere is random), so
any nondeterminism introduced into the shared LLC/DRAM path fails here
first.  The N=1 test pins the stronger property the golden grid relies
on: one core behind a shared-complex graph is *bit-identical* to
the legacy single-core path, not merely close.
"""

from __future__ import annotations

from functools import partialmethod

import pytest

from repro import simulate, simulate_multicore
from repro.config import assert_shared_geometry, build_named_config
from repro.core.processor import Processor
from repro.multicore import CoreSpec, System

INSTS = 2_000
WARMUP = 3_000


def _small_llc_config(name: str, size_bytes: int = 16 * 1024):
    """A named config with the LLC shrunk so mixed workloads actually
    collide in it at test budgets (the default 1 MB LLC holds both
    synthetic footprints without conflict)."""
    config = build_named_config(name)
    config.llc.size_bytes = size_bytes
    return config


def _run(workloads, configs, **kwargs):
    return simulate_multicore(workloads, cores=len(workloads),
                              configs=configs,
                              max_instructions=INSTS,
                              warmup_instructions=WARMUP, **kwargs)


# -- determinism gate --------------------------------------------------------


def test_determinism_reruns_are_byte_identical():
    runs = [_run(["mcf", "lbm"], ["rab_cc", "rab_cc"]) for _ in range(2)]
    fp_a = runs[0].system.fingerprints()
    fp_b = runs[1].system.fingerprints()
    assert fp_a == fp_b
    assert runs[0].shared == runs[1].shared
    assert [s.to_dict() for s in runs[0].per_core] == \
        [s.to_dict() for s in runs[1].per_core]


def test_max_cycles_caps_every_core_clock():
    """System.run bounds each core's idle jumps by its cycle cap, a
    jump stored before the run starts included."""
    system = System([CoreSpec("mcf"), CoreSpec("lbm")])
    system.warm_up(WARMUP)
    system.run(500)
    cap = max(core.now for core in system.cores) + 50
    for core in system.cores:
        core._wake = cap + 1000
    system.run(10**9, max_cycles=cap)
    assert [core.now for core in system.cores] == [cap, cap]


# -- N=1 equivalence ---------------------------------------------------------


@pytest.mark.parametrize("config_name", ["baseline", "rab_cc"])
def test_single_core_system_is_bit_identical(config_name):
    single = simulate("mcf", build_named_config(config_name),
                      max_instructions=INSTS, warmup_instructions=WARMUP,
                      config_name=config_name)
    multi = _run(["mcf"], [config_name])
    assert multi.per_core[0].to_dict() == single.stats.to_dict()


# -- scaling smoke -----------------------------------------------------------


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_scaling_smoke(cores):
    result = simulate_multicore("mcf", cores=cores,
                                configs=["rab_cc"] * cores,
                                max_instructions=INSTS,
                                warmup_instructions=WARMUP)
    assert len(result.per_core) == cores
    assert result.shared["cores"] == cores
    for stats in result.per_core:
        assert stats.committed_insts >= INSTS
        assert stats.ipc > 0
    assert len(result.shared["fairness"]) == cores
    assert len(result.energy) == cores


# -- shared-LLC contention ---------------------------------------------------


def test_contention_counters_fire_under_a_small_llc():
    configs = [_small_llc_config("rab_cc"), _small_llc_config("rab_cc")]
    result = _run(["mcf", "lbm"], configs)
    contention = result.shared["contention"]
    assert contention["cross_core_evictions"] > 0
    per_core = result.shared["per_core"]
    assert len(per_core) == 2
    assert all(acct["accesses"] > 0 for acct in per_core)
    # Per-core DRAM attribution covers the controller's read total.
    dram_reads = result.shared["dram"]["reads"]
    assert sum(acct["dram_reads"] for acct in per_core) == dram_reads


def test_mshr_contention_is_reported():
    result = _run(["mcf", "lbm"], ["rab_cc", "rab_cc"])
    contention = result.shared["contention"]
    assert contention["mshr_contended_rejections"] > 0
    assert contention["spec_cap_rejections"] >= 0


# -- warm-up lanes -----------------------------------------------------------


def test_warm_up_is_lane_independent_and_runs_on_the_jit_lane(monkeypatch):
    """Both fast-forward lanes leave a shared LLC in the same warm state,
    so the timed runs match, and the default (jit) lane really runs."""
    runs = {}
    for lane in ("jit", "interp"):
        if lane == "interp":
            monkeypatch.setattr(
                Processor, "fast_forward",
                partialmethod(Processor.fast_forward, lane="interp"))
        warm = {}

        def attach(system, warm=warm):
            warm["llc_evictions"] = system.shared.llc.stats.evictions
            warm["translate_s"] = sum(core.ff_translate_seconds
                                      for core in system.cores)

        configs = [_small_llc_config("rab_cc"), _small_llc_config("rab_cc")]
        runs[lane] = (_run(["mcf", "lbm"], configs, attach=attach), warm)
    (interp, interp_warm), (jit, jit_warm) = runs["interp"], runs["jit"]
    assert interp_warm["llc_evictions"] > 0
    assert jit_warm["llc_evictions"] == interp_warm["llc_evictions"]
    assert interp_warm["translate_s"] == 0
    assert jit_warm["translate_s"] > 0
    assert jit.system.fingerprints() == interp.system.fingerprints()
    assert jit.shared == interp.shared


# -- fairness ----------------------------------------------------------------


def test_runahead_core_does_not_starve_corunner():
    """A runahead-buffer core sharing the LLC/MSHRs with a plain
    pointer-chasing baseline core must not starve it: both finish their
    budgets and neither collapses to a sliver of total progress."""
    result = _run(["lbm", "mcf"], ["rab_cc", "baseline"])
    fairness = result.shared["fairness"]
    assert all(f["committed"] >= INSTS for f in fairness)
    shares = [f["progress_share"] for f in fairness]
    assert min(shares) > 0.15
    # The rab core actually exercised runahead against the shared pool.
    rab = fairness[0]["runahead"]
    assert rab["intervals"] > 0
    assert rab["runahead_cycles"] > 0
    assert fairness[1]["runahead"]["intervals"] == 0


# -- construction guards -----------------------------------------------------


def test_llc_share_requires_matching_geometry():
    big = build_named_config("rab_cc")
    small = _small_llc_config("rab_cc")
    with pytest.raises(ValueError):
        assert_shared_geometry([big, small])
    with pytest.raises(ValueError):
        System([CoreSpec("mcf", big), CoreSpec("lbm", small)])


@pytest.mark.parametrize("share", ["dram", "llc"])
def test_only_the_llc_dram_share_level_is_accepted(share):
    """The cores share one LLC, MSHR pool, prefetcher and controller;
    any other share spec is an input error, not a knob."""
    with pytest.raises(ValueError, match="share"):
        simulate_multicore(["mcf", "lbm"], cores=2,
                           configs=["rab_cc"] * 2, share=share,
                           max_instructions=INSTS,
                           warmup_instructions=WARMUP)


def test_workload_count_must_match_cores():
    with pytest.raises(ValueError):
        simulate_multicore(["mcf", "lbm"], cores=3,
                           configs=["rab_cc"] * 3,
                           max_instructions=INSTS,
                           warmup_instructions=WARMUP)
