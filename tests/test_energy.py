"""Energy model tests: arithmetic, breakdown, calibration properties, and
the counters each energy event is priced from."""

import pytest

from repro.config import (EnergyConfig, RunaheadMode, SamplingConfig,
                          build_named_config, make_config)
from repro.core import Processor, simulate, simulate_cohort
from repro.energy import EnergyModel, EnergyReport
from repro.workloads import build_workload


def make_model():
    return EnergyModel(EnergyConfig(), clock_ghz=3.2)


class TestArithmetic:
    def test_zero_events_zero_cycles(self):
        report = make_model().compute({}, cycles=0)
        assert report.total == 0.0

    def test_leakage_scales_with_time(self):
        model = make_model()
        one = model.compute({}, cycles=3_200_000_000)  # one second
        assert one.core_leakage == pytest.approx(EnergyConfig().core_leakage_w)
        assert one.dram_background == pytest.approx(
            EnergyConfig().dram_background_w)

    def test_event_energy_accumulates(self):
        model = make_model()
        cfg = EnergyConfig()
        report = model.compute({"fetch": 1000}, cycles=0)
        assert report.frontend_dynamic == pytest.approx(
            1000 * cfg.fetch_pj * 1e-12)

    def test_unknown_events_ignored(self):
        report = make_model().compute({"quantum_flux": 10**9}, cycles=0)
        assert report.total == 0.0

    def test_breakdown_sums_to_total(self):
        events = {"fetch": 100, "decode": 100, "rename": 100, "alu": 50,
                  "l1d_access": 30, "dram_access": 5, "pc_cam": 2}
        report = make_model().compute(events, cycles=10_000)
        parts = (report.frontend_dynamic + report.backend_dynamic
                 + report.runahead_dynamic + report.cache_dynamic
                 + report.dram_dynamic + report.core_leakage
                 + report.dram_background)
        assert report.total == pytest.approx(parts)

    def test_to_dict_fields(self):
        report = make_model().compute({"fetch": 1}, cycles=100)
        d = report.to_dict()
        for key in ("total", "frontend_dynamic", "core_dynamic",
                    "exec_seconds"):
            assert key in d


class TestCalibration:
    def test_frontend_fraction_near_40pct(self):
        """The paper's calibration point: front-end ~40% of core dynamic
        power on a typical baseline run."""
        result = simulate("milc", make_config(), max_instructions=3000)
        report = result.energy
        fraction = report.frontend_fraction_of_core_dynamic
        assert 0.25 <= fraction <= 0.55

    def test_rab_spends_less_frontend_energy_than_runahead(self):
        from repro.config import RunaheadMode
        ra = simulate("mcf", make_config(RunaheadMode.TRADITIONAL),
                      max_instructions=3000)
        rab = simulate("mcf", make_config(RunaheadMode.BUFFER),
                       max_instructions=3000)
        assert rab.energy.frontend_dynamic < ra.energy.frontend_dynamic

    def test_runahead_buffer_pays_cam_energy(self):
        from repro.config import RunaheadMode
        rab = simulate("mcf", make_config(RunaheadMode.BUFFER),
                       max_instructions=3000)
        assert rab.energy.runahead_dynamic > 0
        events = rab.stats.energy_events
        assert events.get("pc_cam", 0) > 0
        assert events.get("destreg_cam", 0) > 0
        assert events.get("rab_read", 0) > 0

    def test_chain_cache_events_counted(self):
        from repro.config import RunaheadMode
        cc = simulate("mcf", make_config(RunaheadMode.BUFFER_CHAIN_CACHE),
                      max_instructions=3000)
        assert cc.stats.energy_events.get("chain_cache_read", 0) > 0


# Energy events present in every run, and those a chain generation adds.
MEMORY_EVENTS = ("l1i_access", "l1d_access", "llc_access", "dram_access",
                 "dram_activate")
CHAIN_EVENTS = ("pc_cam", "destreg_cam", "sq_cam")


def assert_priced_from_counters(proc, policy, stats):
    """Each energy event of ``stats`` (``policy``'s run on ``proc``)
    equals the one counter that counts its fact."""
    events = stats.energy_events
    cache = policy.chain_cache
    rc = proc.runahead_cache
    assert events.get("checkpoint", 0) == stats.runahead_intervals
    assert events.get("pc_cam", 0) == stats.chain_generations
    assert stats.chain_generations == policy.chain_generations
    assert events.get("chain_cache_read", 0) == (stats.chain_cache_hits
                                                 + stats.chain_cache_misses)
    assert events.get("chain_cache_write", 0) == (
        cache.insertions if cache is not None else 0)
    assert events["decode"] == events["fetch"] == stats.fetched_uops
    assert stats.runahead_misses_generated == (
        stats.runahead_misses_rab + stats.runahead_misses_traditional)
    assert events.get("runahead_cache", 0) == rc.writes + rc.hits + rc.misses
    # ROB reads: one per commit plus the chain uops read out of the ROB.
    assert stats.committed_insts == proc.committed
    assert events["rob_read"] == proc.committed + policy.chain_readout
    # Key set: chain-generation events exactly when a chain was
    # generated (even at a count of 0); memory events always.
    generated = stats.chain_generations > 0
    for key in CHAIN_EVENTS:
        assert (key in events) == generated, key
    for key in MEMORY_EVENTS:
        assert key in events, key


class TestEventCounters:
    """``Processor._member_fields`` prices every energy event from the
    counter that already counts it; no second count is kept in lockstep."""

    @pytest.mark.parametrize("mode", list(RunaheadMode))
    def test_standalone_run(self, mode):
        result = simulate("mcf", make_config(mode), max_instructions=2_000,
                          warmup_instructions=1_500)
        proc, stats = result.processor, result.stats
        assert_priced_from_counters(proc, proc.members[0], stats)
        events = stats.energy_events
        if mode is RunaheadMode.NONE:
            assert stats.runahead_intervals == 0
            assert "checkpoint" not in events
        else:
            assert events["checkpoint"] > 0
        if mode is RunaheadMode.TRADITIONAL:
            assert events["runahead_cache"] > 0
        if mode in (RunaheadMode.BUFFER, RunaheadMode.BUFFER_CHAIN_CACHE,
                    RunaheadMode.HYBRID):
            assert events["pc_cam"] > 0
        if mode in (RunaheadMode.BUFFER_CHAIN_CACHE, RunaheadMode.HYBRID):
            assert events["chain_cache_read"] > events["chain_cache_write"] > 0

    def test_chain_events_present_at_zero(self):
        # lbm's chains compute the miss address without another load, so
        # its generations search the store queue 0 times: the event is
        # still reported.
        result = simulate("lbm", make_config(RunaheadMode.BUFFER),
                          max_instructions=2_000, warmup_instructions=1_500)
        proc, stats = result.processor, result.stats
        assert stats.chain_generations > 0
        assert stats.energy_events["sq_cam"] == 0
        assert_priced_from_counters(proc, proc.members[0], stats)

    def test_two_level_run(self):
        plan = SamplingConfig(tier="two-level", ramp_instructions=200,
                              window_instructions=600,
                              stride_instructions=2_000)
        result = simulate("mcf", build_named_config("hybrid"),
                          max_instructions=8_000, warmup_instructions=1_500,
                          sampling=plan)
        proc, stats = result.processor, result.stats
        assert stats.committed_insts < 8_000   # the gaps fast-forwarded
        assert stats.energy_events["checkpoint"] > 0
        assert_priced_from_counters(proc, proc.members[0], stats)

    def test_cohort_rider(self):
        # soplex: a rab_cc rider stays on rab's trajectory, but hits its
        # chain cache, so its chain events differ from the lead's.
        configs = [build_named_config("rab"), build_named_config("rab_cc")]
        built = build_workload("soplex")
        proc = Processor(built.program, configs[0], memory=built.memory,
                         init_regs=built.init_regs,
                         riders=[configs[1].runahead])
        proc.warm_up(1_500)
        proc.run(2_000)
        assert proc.attached() == [True, True]
        lead_stats, rider_stats = proc.member_stats()
        lead, rider = proc.members
        assert rider_stats.chain_cache_hits > 0
        assert rider.chain_readout < lead.chain_readout
        assert_priced_from_counters(proc, lead, lead_stats)
        assert_priced_from_counters(proc, rider, rider_stats)
        cohort, runs = simulate_cohort("soplex", configs,
                                       max_instructions=2_000,
                                       warmup_instructions=1_500)
        assert runs == 1
        assert [s.energy_events for s in cohort] == [
            lead_stats.energy_events, rider_stats.energy_events]
