"""Contract tests for the core↔memory seam.

A :class:`~repro.memory.MemoryHierarchy` reaches everything below its
L1s through two :class:`~repro.memory.SharedLLC` calls:
``accept_at(line, now, kind, core)`` (the LLC MSHR admission check: 0, or
the cycle to retry) and ``serve(line, cycle, kind, core)``, which returns
the :class:`~repro.memory.AccessResult` a load hands back to the core.
These tests pin what callers rely on: a refused load touches no memory
state and reports the cycle an MSHR drains, a retry at that cycle is
admitted, and only loads are gated.
"""

from __future__ import annotations

import pytest

from repro.config import default_system
from repro.memory import AccessResult, MemoryHierarchy, SharedLLC


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(default_system())


def _fill_mshr_pool(shared: SharedLLC, drain_cycle: int) -> None:
    for _ in range(shared._mshr_limit):
        shared._register_fill(drain_cycle)


def _memory_state(shared: SharedLLC) -> tuple:
    return (shared.llc.snapshot(), shared.controller.stats.requests,
            tuple(shared._fills))


class TestRealEndpoint:
    def test_hierarchy_is_port_connected(self, hierarchy):
        shared = hierarchy.shared
        assert isinstance(shared, SharedLLC)
        assert shared._hiers == [hierarchy]
        assert hierarchy.llc is shared.llc
        assert hierarchy.controller is shared.controller

    def test_load_roundtrip(self, hierarchy, monkeypatch):
        # A load miss returns the very result serve() built, after
        # filling the L1D with its completion cycle.
        shared = hierarchy.shared
        served = []

        def serve(*args):
            result = SharedLLC.serve(shared, *args)
            served.append(result)
            return result

        monkeypatch.setattr(shared, "serve", serve)
        result = hierarchy.load(0x1000 << hierarchy._line_shift, now=20)
        assert served == [result] and served[0] is result
        assert isinstance(result, AccessResult)
        assert result.level == "DRAM" and not result.merged
        assert result.done_cycle > 20
        line = hierarchy.l1d.lookup(0x1000)
        assert line is not None and line.ready_cycle == result.done_cycle

    def test_full_mshr_pool_backpressures_gated_loads(self, hierarchy):
        shared = hierarchy.shared
        drain_cycle = 10_000
        _fill_mshr_pool(shared, drain_cycle)
        before = _memory_state(shared)
        assert shared.accept_at(0x2000, 10, "demand", 0) == drain_cycle
        result = hierarchy.load(0x2000 << hierarchy._line_shift, now=10)
        assert result == AccessResult(drain_cycle, "RETRY")
        assert hierarchy.mshr_rejections == 1
        # Refused: no LLC allocation, no DRAM request, no new fill.
        assert _memory_state(shared) == before
        assert not hierarchy.l1d.probe(0x2000)

    def test_ungated_requests_bypass_the_mshr_gate(self, hierarchy):
        # Stores and instruction fetches are not subject to MSHR
        # backpressure (nothing in the core waits on them the same way).
        shared = hierarchy.shared
        _fill_mshr_pool(shared, 10_000)
        requests = shared.controller.stats.requests
        hierarchy.store_commit(0x3000 << hierarchy._line_shift, now=10)
        assert hierarchy.l1d.probe(0x3000) and shared.llc.probe(0x3000)
        done = hierarchy.ifetch(0x3400 << hierarchy._line_shift, now=10)
        assert done > 10 and shared.llc.probe(0x3400)
        assert shared.controller.stats.requests == requests + 2
        assert hierarchy.mshr_rejections == 0

    def test_retry_cycle_frees_the_request(self, hierarchy):
        # Retrying at the returned cycle (when the blocking fills drain)
        # must succeed: the contract callers rely on for progress.
        shared = hierarchy.shared
        _fill_mshr_pool(shared, 5_000)
        addr = 0x4000 << hierarchy._line_shift
        refused = hierarchy.load(addr, now=10)
        assert refused.level == "RETRY"
        assert shared.accept_at(0x4000, refused.done_cycle, "demand", 0) == 0
        retry = hierarchy.load(addr, now=refused.done_cycle)
        assert retry.level == "DRAM"
        assert retry.done_cycle >= refused.done_cycle
