"""Commit trace and interval timeline tests."""

import pytest

from repro.config import RunaheadMode, default_system, make_config
from repro.core import CommitTrace, Processor, render_interval_timeline
from repro.obs import TraceEvent
from repro.workloads import gather

from util import build_counted_loop


class TestCommitTrace:
    def test_records_commits_in_order(self):
        proc = Processor(build_counted_loop(10), default_system())
        trace = CommitTrace(capacity=1000)
        proc.commit_hook = trace.on_commit
        stats = proc.run(1000)
        assert trace.total_commits == stats.committed_insts
        seqs = [op.seq for op in trace.entries]
        assert seqs == sorted(seqs)

    def test_capacity_bounded(self):
        proc = Processor(build_counted_loop(100), default_system())
        trace = CommitTrace(capacity=16)
        proc.commit_hook = trace.on_commit
        proc.run(10_000)
        assert len(trace) == 16
        assert trace.total_commits > 16

    def test_trace_is_architectural_path_only(self):
        """Squashed wrong-path uops must never appear in the trace."""
        wl = gather("t_trace", deref_depth=1)
        proc = Processor(wl.program, make_config(RunaheadMode.BUFFER),
                         memory=wl.memory)
        trace = CommitTrace(capacity=100_000)
        proc.commit_hook = trace.on_commit
        stats = proc.run(1500)
        assert stats.rab_intervals > 0
        # Committed PCs must all be real program PCs on the committed path;
        # compare against the reference interpreter.
        from repro.isa import Interpreter
        ref = gather("t_trace", deref_depth=1)
        interp = Interpreter(ref.program, ref.memory)
        ref_pcs = [op.pc for op in interp.run(trace.total_commits)]
        assert trace.pcs() == ref_pcs[-len(trace.entries):]

    def test_format(self):
        proc = Processor(build_counted_loop(5), default_system())
        trace = CommitTrace()
        proc.commit_hook = trace.on_commit
        proc.run(100)
        text = trace.format(5)
        assert "cycle" in text
        assert "ADDI" in text or "BNE" in text

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            CommitTrace(capacity=0)

    def test_capacity_one_keeps_latest_commit(self):
        proc = Processor(build_counted_loop(50), default_system())
        trace = CommitTrace(capacity=1)
        proc.commit_hook = trace.on_commit
        stats = proc.run(500)
        assert len(trace) == 1
        assert trace.total_commits == stats.committed_insts
        # The surviving entry is the newest one, and every accessor
        # agrees on the single-element view.
        (op,) = trace.entries
        assert op.seq == max(op.seq for op in trace.last(100))
        assert trace.pcs() == [op.pc]
        assert trace.format(5).count("\n") == 1  # header + one row

    def test_rollover_keeps_most_recent_window(self):
        proc = Processor(build_counted_loop(100), default_system())
        small = CommitTrace(capacity=8)
        proc.commit_hook = small.on_commit
        proc.run(2000)
        proc2 = Processor(build_counted_loop(100), default_system())
        full = CommitTrace(capacity=100_000)
        proc2.commit_hook = full.on_commit
        proc2.run(2000)
        assert small.total_commits == full.total_commits
        assert [op.seq for op in small.entries] == \
            [op.seq for op in full.entries][-8:]

    def test_last_n(self):
        proc = Processor(build_counted_loop(20), default_system())
        trace = CommitTrace()
        proc.commit_hook = trace.on_commit
        proc.run(1000)
        assert len(trace.last(3)) == 3


class TestIntervalTimeline:
    def _exit(self, mode, entry, exit_cycle, misses=0):
        return TraceEvent("runahead_exit", exit_cycle, {
            "mode": mode, "blocking_pc": 0, "entry_cycle": entry,
            "misses_generated": misses, "pseudo_retired": 0,
            "used_chain_cache": False})

    def test_marks_modes(self):
        timeline = render_interval_timeline(
            [self._exit("buffer", 0, 100),
             self._exit("traditional", 500, 600)],
            total_cycles=1000, width=40)
        lane = timeline.split("\n")[1]
        assert "B" in lane and "T" in lane and "." in lane

    def test_empty_run(self):
        assert render_interval_timeline([], 0) == "(empty run)"

    def test_zero_intervals_with_cycles(self):
        """A real run that never entered runahead: all-normal lane."""
        timeline = render_interval_timeline([], total_cycles=500, width=40)
        lane = timeline.split("\n")[1]
        assert lane == "." * 40
        assert "0 intervals (0 buffer, 0 traditional)" in timeline

    def test_single_cycle_interval(self):
        """entry == exit must render one mark, not crash or mark nothing."""
        timeline = render_interval_timeline(
            [self._exit("buffer", 250, 250)], total_cycles=1000, width=40)
        lane = timeline.split("\n")[1]
        assert lane.count("B") == 1
        assert "cycles 250..250 (0)" in timeline

    def test_interval_at_final_cycle_stays_in_lane(self):
        timeline = render_interval_timeline(
            [self._exit("traditional", 999, 1000)],
            total_cycles=1000, width=40)
        lane = timeline.split("\n")[1]
        assert lane[-1] == "T"
        assert len(lane) == 40

    def test_summary_counts(self):
        timeline = render_interval_timeline(
            [self._exit("buffer", 0, 10),
             self._exit("buffer", 20, 30),
             self._exit("traditional", 40, 50)],
            total_cycles=100)
        assert "3 intervals (2 buffer, 1 traditional)" in timeline

    def test_interval_details_listed(self):
        timeline = render_interval_timeline(
            [self._exit("buffer", 5, 25, misses=7)], total_cycles=100)
        assert "misses=7" in timeline
