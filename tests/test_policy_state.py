"""Runahead entry filters (Policies 1 and 2) and the interval facts the
processor holds for them."""

from types import SimpleNamespace

import pytest

from repro.config import (RunaheadConfig, RunaheadMode, build_named_config,
                          default_system, make_config)
from repro.core import Processor
from repro.runahead import EntryPolicy
from repro.workloads import build_workload, linked_list

from util import build_counted_loop


def make_policy(**overrides):
    cfg = RunaheadConfig(mode=RunaheadMode.TRADITIONAL, enhancements=True,
                         **overrides)
    return EntryPolicy(cfg)


def run_interval(proc, entry, exit_cycle, committed, program_order,
                 pseudo_retired=None, misses=0):
    """One interval on ``proc``: open it at cycle ``entry`` with
    ``committed`` instructions retired, pseudo-retire ``pseudo_retired``
    uops (default ``program_order``), ``program_order`` of them in
    program order, generate ``misses`` misses in traditional runahead,
    and close it at ``exit_cycle``."""
    proc.now, proc.committed = entry, committed
    proc._take_checkpoint(SimpleNamespace(pc=0, done_cycle=exit_cycle),
                          entry)
    proc._interval_pseudo_retired_arch = program_order
    stats = proc.stats
    stats.runahead_pseudo_retired += (program_order if pseudo_retired is None
                                      else pseudo_retired)
    stats.runahead_misses_traditional += misses
    proc.now = exit_cycle
    proc._close_interval()


def idle_processor():
    return Processor(build_counted_loop(10), default_system())


class TestEnhancementFilters:
    def test_allows_fresh_miss(self):
        policy = make_policy()
        assert policy.enhancements_allow(committed=1000,
                                         miss_issue_retired=950,
                                         furthest=-1)

    def test_policy1_blocks_stale_miss(self):
        """A miss issued >= 250 instructions ago: interval would be short."""
        policy = make_policy()
        assert not policy.enhancements_allow(committed=1000,
                                             miss_issue_retired=700,
                                             furthest=-1)
        assert policy.entries_blocked_short == 1

    def test_policy1_threshold_configurable(self):
        policy = make_policy(enhancement_distance=500)
        assert policy.enhancements_allow(committed=1000,
                                         miss_issue_retired=700,
                                         furthest=-1)

    def test_policy1_skipped_when_unknown(self):
        policy = make_policy()
        assert policy.enhancements_allow(committed=1000,
                                         miss_issue_retired=-1,
                                         furthest=-1)

    def test_policy2_blocks_overlapping_interval(self):
        """Execution has not passed the last interval's furthest point."""
        policy = make_policy()
        assert not policy.enhancements_allow(committed=1200,
                                             miss_issue_retired=1150,
                                             furthest=1400)
        assert policy.entries_blocked_overlap == 1
        assert policy.enhancements_allow(committed=1500,
                                         miss_issue_retired=1450,
                                         furthest=1400)


class TestIntervals:
    def test_interval_lifecycle(self):
        """Closing records the interval's entry and exit cycles, and its
        misses and pseudo-retirements as the counters' growth since
        entry; no interval stays open.  Misses count in either mode."""
        proc = idle_processor()
        proc.stats.runahead_misses_rab = 3
        proc.stats.runahead_pseudo_retired = 40
        run_interval(proc, entry=10, exit_cycle=60, committed=500,
                     program_order=120, misses=7)
        assert proc.last_interval == (10, 60, 7, 120, False)
        assert proc._interval_entry == -1
        assert proc.furthest_instruction == 620

    def test_end_without_begin_is_noop(self):
        """Closing with no open interval records nothing and leaves
        Policy 2's marker where it is."""
        proc = idle_processor()
        proc._close_interval()
        assert proc.last_interval is None
        assert proc.furthest_instruction == -1
        run_interval(proc, entry=0, exit_cycle=10, committed=100,
                     program_order=300)
        proc.now = 50
        proc._close_interval()
        assert proc.last_interval == (0, 10, 0, 300, False)
        assert proc.furthest_instruction == 400

    def test_furthest_point_monotonic(self):
        proc = idle_processor()
        run_interval(proc, entry=0, exit_cycle=10, committed=100,
                     program_order=300)
        run_interval(proc, entry=20, exit_cycle=30, committed=150,
                     program_order=10)
        assert proc.furthest_instruction == 400

    def test_program_distance_caps_furthest_point(self):
        """Buffer mode: the chain loop may pseudo-retire thousands of
        uops, but only genuine program-order progress advances Policy 2's
        furthest-point marker."""
        proc = idle_processor()
        run_interval(proc, entry=0, exit_cycle=100, committed=1000,
                     program_order=50, pseudo_retired=10_000)
        assert proc.furthest_instruction == 1050
        assert proc.last_interval[3] == 10_000
        # Progress past 1050 must be allowed again immediately.
        assert make_policy().enhancements_allow(
            committed=1051, miss_issue_retired=1050,
            furthest=proc.furthest_instruction)

    @pytest.mark.parametrize(
        "config, cap, mode, marker, final", [
            ("runahead_enh", 1175, "runahead", 474, (3713, 10, 24, 6885)),
            ("hybrid", 1216, "rab", 504, (3652, 14, 0, 6179)),
        ])
    def test_interval_split_across_runs(self, config, cap, mode, marker,
                                        final):
        """A run that returns inside an interval closes it there: Policy
        2's marker moves to the point the interval had reached.  The
        next run resumes the interval, whose rest moves the marker no
        further, but its cycles still count."""
        wl = build_workload("mcf")
        proc = Processor(wl.program, build_named_config(config),
                         memory=wl.memory, init_regs=wl.init_regs)
        proc.fast_forward(3000)
        proc.run(10 ** 6, max_cycles=cap)
        assert proc.mode == mode
        assert proc._interval_entry == -1
        assert proc.furthest_instruction == marker
        stats = proc.run(3000)
        assert (proc.furthest_instruction, stats.runahead_intervals,
                stats.entries_blocked_enh, stats.cycles) == final


class TestPolicy2BufferVsTraditional:
    """Regression: buffer-mode chain loops must not inflate Policy 2.

    Pre-fix, closing an interval credited every pseudo-retired uop —
    including the looped chain's repeated iterations — as program-order
    progress, so one buffer interval could push Policy 2's furthest-point
    marker thousands of instructions ahead and wrongly block every later
    entry that traditional runahead would have taken at the same point."""

    def _run(self, mode, insts=4000):
        wl = linked_list("t_policy2")
        cfg = make_config(mode, enhancements=True)
        proc = Processor(wl.program, cfg, memory=wl.memory)
        proc.warm_up(2000)
        proc.run(insts)
        return proc

    def test_buffer_counts_only_program_order_progress(self):
        proc = self._run(RunaheadMode.BUFFER)
        assert proc.stats.rab_intervals > 0, "runahead never entered"
        # On the pointer chase each interval drains roughly one window of
        # program-order uops but pseudo-retires ~2x that including chain
        # iterations; the marker must reflect only the former.  Pre-fix
        # the last interval alone pushed the marker ~works past commit.
        window = proc.config.core.rob_size + proc.decode_queue_cap
        assert proc.furthest_instruction <= proc.committed + window

    def test_buffer_enters_more_intervals_than_traditional(self):
        trad = self._run(RunaheadMode.TRADITIONAL)
        buf = self._run(RunaheadMode.BUFFER)
        trad_count = trad.stats.runahead_intervals
        buf_count = buf.stats.runahead_intervals
        assert trad_count > 0
        # Buffer intervals cover less program-order distance than
        # traditional ones (the chain loop revisits the same PCs), so on
        # the pointer chase Policy 2 re-arms much sooner and buffer mode
        # takes well over twice as many intervals.  Pre-fix the looped
        # chain's pseudo-retirements inflated the furthest-point marker
        # to traditional-like distances, halving the entry count.
        assert buf_count >= 2 * trad_count, (
            f"buffer={buf_count} traditional={trad_count}: Policy 2 is "
            f"overcounting buffer-mode program-order progress")
