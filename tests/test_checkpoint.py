"""Warm-state snapshots and the two-tier engine's plan check.

Two concerns:

* ``Processor.snapshot()`` — the format the lane-equivalence gate in
  tests/test_warmup_parity.py compares through
  ``repro.fastpath.snapshot_bytes``: it is safe *mid-episode* (taken at
  a runahead-adjacent point it collapses to the architectural state
  and nothing more), it leaves run statistics out, and a core whose
  hierarchy is shared refuses it;
* plan plumbing — the two-tier engine rejects a degenerate plan before
  it simulates anything.
"""

from __future__ import annotations

import pytest

from repro.config import SamplingConfig, build_named_config
from repro.core.processor import Processor
from repro.core.stats import SimStats
from repro.fastpath import run_two_tier, snapshot_bytes
from repro.workloads import build_workload


def _processor(workload: str = "mcf", config_name: str = "rab_cc"):
    built = build_workload(workload)
    return Processor(built.program, build_named_config(config_name),
                     memory=built.memory, init_regs=built.init_regs)


# ---------------------------------------------------------------------------
# Snapshot format
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_mid_episode_snapshot_at_runahead_adjacent_point(self):
        """snapshot() mid-run — after detailed execution that entered and
        exited runahead episodes — collapses to the architectural point
        and nothing more: it equals the snapshot of a twin that only
        called sync_architectural(), and both continue to the same
        state."""
        proc = _processor("mcf", "rab_cc")
        ref = _processor("mcf", "rab_cc")
        for p in (proc, ref):
            p.warm_up(12_000)
            p.run(4_000)   # long enough to cross runahead entries on mcf
        assert proc.stats.runahead_intervals > 0
        snap = proc.snapshot()
        ref.sync_architectural()
        assert snapshot_bytes(ref.snapshot()) == snapshot_bytes(snap)
        proc.fast_forward(5_000)
        ref.fast_forward(5_000)
        assert snapshot_bytes(proc.snapshot()) == snapshot_bytes(
            ref.snapshot())

    def test_snapshot_excludes_run_statistics(self):
        """A twin whose run statistics were reset snapshots to the same
        bytes; the snapshot keeps the stream position, not the stats."""
        proc = _processor()
        twin = _processor()
        for p in (proc, twin):
            p.warm_up(12_000)
            p.run(2_000)
        twin.stats = SimStats(workload=twin.program.name)
        snap = proc.snapshot()
        assert snapshot_bytes(twin.snapshot()) == snapshot_bytes(snap)
        assert twin.stats.committed_insts == 0
        # Position, not stats: the reset twin still stands where proc does.
        assert snap["committed"] == twin.committed == proc.committed > 0


# ---------------------------------------------------------------------------
# Shared hierarchies don't snapshot
# ---------------------------------------------------------------------------

class TestSharedHierarchyRejection:
    """A core whose hierarchy is shared cannot snapshot.  Its warm state
    spans co-runners (one LLC array, one MSHR pool, one DRAM
    controller), so a per-core snapshot would silently capture other
    cores' state.  It must refuse loudly instead."""

    def test_snapshot_raises(self):
        from repro.memory import SharedHierarchyError
        from repro.multicore import CoreSpec, System
        system = System([CoreSpec("mcf"), CoreSpec("lbm")])
        with pytest.raises(SharedHierarchyError):
            system.cores[0].snapshot()


# ---------------------------------------------------------------------------
# Plan plumbing
# ---------------------------------------------------------------------------

class TestPlanPlumbing:
    def test_degenerate_plan_window_ge_stride_rejected(self):
        plan = SamplingConfig(tier="two-level", ramp_instructions=500,
                              window_instructions=5_000,
                              stride_instructions=5_000)
        with pytest.raises(ValueError):
            run_two_tier(_processor(), plan, 50_000)
