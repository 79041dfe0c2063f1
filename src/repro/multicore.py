"""Multi-core simulation: N cores contending on one shared LLC/DRAM.

The paper evaluates the runahead buffer on one core; this module runs N
out-of-order cores (each with private L1s and its own runahead
machinery) whose hierarchies call one
:class:`~repro.memory.shared.SharedLLC` complex: one LLC array, one MSHR
pool, one prefetcher and one memory controller.  That gives the full
contention story: cross-core evictions, inter-core prefetch pollution,
MSHR fairness.  Outside the tests its one caller is the benchmark's
``multicore`` workload.

Scheduling is a min-heap over ``(core.now, core_index)``: the globally
earliest core steps one cycle (which may bulk-skip far ahead), then
re-enters the heap.  Each core's event arithmetic is untouched, ties
break by core index, and no randomness exists anywhere — so a given
(workload list, config list) is deterministic, which
``System.fingerprints`` pins and tests/test_multicore.py gates.

Entry point::

    from repro import simulate_multicore
    result = simulate_multicore("mcf", cores=2,
                                configs=["rab_cc", "rab_cc"])
    result.per_core[0].ipc, result.shared["contention"]
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .config import (SystemConfig, assert_shared_geometry,
                     build_named_config, default_system)
from .core.processor import Processor, _WATCHDOG_CYCLES
from .core.sim import _finish, _resolve_workload
from .core.stats import SimStats
from .energy import EnergyReport
from .memory import MemoryHierarchy, SharedLLC

__all__ = ["CoreSpec", "MulticoreResult", "System", "simulate_multicore"]

#: What the cores share: everything below the L1s.
SHARE = "llc,dram"


@dataclass
class CoreSpec:
    """One core of a multi-core system: a workload plus its config."""

    workload: Union[str, object]
    config: Optional[SystemConfig] = None
    config_name: str = ""


@dataclass
class MulticoreResult:
    """Everything one multi-core run produces."""

    per_core: list[SimStats]
    energy: list[EnergyReport]
    shared: dict
    system: "System"

    def to_dict(self) -> dict:
        return {
            "per_core": [s.to_dict() for s in self.per_core],
            "shared": self.shared,
        }


class System:
    """N cores, one bulk-skipping global clock, shared memory below L1."""

    def __init__(self, specs: Sequence[CoreSpec]) -> None:
        if not specs:
            raise ValueError("at least one core required")
        configs = [spec.config if spec.config is not None
                   else default_system() for spec in specs]
        assert_shared_geometry(configs)
        self.specs = list(specs)
        self.shared = SharedLLC(configs[0])
        self.cores: list[Processor] = []
        for spec, cfg in zip(specs, configs):
            program, memory, init_regs = _resolve_workload(spec.workload)
            hierarchy = MemoryHierarchy(cfg, shared=self.shared)
            proc = Processor(program, cfg, memory=memory,
                             init_regs=init_regs, hierarchy=hierarchy)
            self.cores.append(proc)

    # -- phases ------------------------------------------------------------------

    def warm_up(self, instructions: int) -> list[int]:
        """Functionally warm each core in core order.  Sequential by
        design: warm-up is untimed, and a fixed order keeps the shared
        LLC's warm contents deterministic.

        Warm-up evictions are attributed to the warming core, then the
        interference counters are reset: warm-order artifacts are not
        contention.  Line ownership survives into the timed run."""
        shared = self.shared
        executed = []
        for core in self.cores:
            shared._active_core = core.core_id
            shared._active_kind = "warm"
            executed.append(core.warm_up(instructions))
        shared.reset_interference()
        return executed

    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> list[SimStats]:
        """Run until every core commits ``max_instructions`` (or halts).

        A core that reaches its commit target (or HALT, or ``max_cycles``)
        drops out of the heap; the rest keep contending.  Drop-out changes
        the interference the remaining cores see — that is the modeled
        behaviour (a finished program stops issuing memory traffic), and
        it is deterministic.
        """
        targets = [core.committed + max_instructions for core in self.cores]
        for core in self.cores:
            core.set_cycle_cap(max_cycles)
        heap = [(core.now, idx) for idx, core in enumerate(self.cores)
                if not core.halted and core.committed < targets[idx]]
        heapq.heapify(heap)
        while heap:
            _now, idx = heapq.heappop(heap)
            core = self.cores[idx]
            core._step()
            if core.now - core._last_progress > _WATCHDOG_CYCLES:
                raise RuntimeError(
                    f"core {idx}: no forward progress for "
                    f"{_WATCHDOG_CYCLES} cycles at cycle {core.now} "
                    f"(mode={core.mode})")
            if core.halted or core.committed >= targets[idx]:
                continue
            if max_cycles is not None and core.now >= max_cycles:
                continue
            heapq.heappush(heap, (core.now, idx))
        stats = []
        for core in self.cores:
            core._close_interval()
            stats.append(core._finalize_stats())
        return stats

    # -- reporting ---------------------------------------------------------------

    def shared_stats(self) -> dict:
        """Shared-level view: LLC totals, DRAM bank behaviour, the
        interference counters, and per-core fairness profiles."""
        doc: dict = {"share": SHARE, "cores": len(self.cores),
                     **self.shared.contention_dict()}
        total_committed = sum(c.committed for c in self.cores) or 1
        doc["fairness"] = [
            {
                "core": idx,
                "config": self.specs[idx].config_name
                or core.config.runahead.mode.value,
                "committed": core.committed,
                "cycles": core.now,
                "ipc": core.committed / core.now if core.now else 0.0,
                "progress_share": core.committed / total_committed,
                "mshr_rejections": core.hierarchy.mshr_rejections,
                "runahead": _runahead_profile(core),
            }
            for idx, core in enumerate(self.cores)
        ]
        return doc

    def fingerprints(self) -> list[str]:
        """Canonical per-core fingerprints (see
        :func:`repro.fastpath.stats_fingerprint`) — the determinism
        gate's byte-identity comparison."""
        from .fastpath import stats_fingerprint
        return [stats_fingerprint(core.stats.to_dict(), None)
                for core in self.cores]


def _runahead_profile(core: Processor) -> dict:
    """One core's runahead activity for fairness reporting: how often
    and how long it ran ahead, by mode, and how many entries its
    filters blocked."""
    s = core.stats
    policy = core.members[0]
    by_kind = {}
    for kind, intervals, cycles, misses in (
            ("buffer", s.rab_intervals, s.cycles_in_rab,
             s.runahead_misses_rab),
            ("traditional", s.traditional_intervals,
             s.cycles_in_traditional, s.runahead_misses_traditional)):
        if intervals:
            by_kind[kind] = {"intervals": intervals, "cycles": cycles,
                             "misses_per_interval": misses / intervals}
    return {
        "intervals": s.runahead_intervals,
        "runahead_cycles": s.cycles_in_rab + s.cycles_in_traditional,
        "by_kind": by_kind,
        "entries_blocked_short": policy.entries_blocked_short,
        "entries_blocked_overlap": policy.entries_blocked_overlap,
        "entries_blocked_no_chain": policy.entries_blocked_no_chain,
    }


def simulate_multicore(
    workloads: Union[str, Sequence[Union[str, object]]],
    config: Optional[SystemConfig] = None,
    *,
    cores: Optional[int] = None,
    configs: Optional[Sequence[Union[str, SystemConfig]]] = None,
    share: str = SHARE,
    max_instructions: int = 20_000,
    warmup_instructions: int = 12_000,
    max_cycles: Optional[int] = None,
    config_names: Optional[Sequence[str]] = None,
    attach: Optional[Callable[["System"], None]] = None,
) -> MulticoreResult:
    """Run N cores against a shared memory system.

    ``workloads`` is either one name replicated across ``cores``
    homogeneous cores, or an explicit per-core list (mixed workloads).
    ``configs`` likewise: per-core named configs or SystemConfig
    instances; a single ``config`` replicates (deep-copied per core —
    core-private config state must not alias).  ``attach`` is called
    with the built System after warm-up, before the timed run.
    ``share`` must be ``"llc,dram"``, the one share level.
    """
    if share != SHARE:
        raise ValueError(f"unknown share spec {share!r}; the cores share "
                         f"{SHARE!r}")
    if isinstance(workloads, (str,)) or not isinstance(workloads, Sequence):
        n = cores if cores is not None else 1
        workload_list = [workloads] * n
    else:
        workload_list = list(workloads)
        if cores is not None and cores != len(workload_list):
            raise ValueError(
                f"cores={cores} but {len(workload_list)} workloads given")
    n = len(workload_list)
    if not workload_list:
        raise ValueError("at least one workload required")

    names = list(config_names) if config_names is not None else [""] * n
    if len(names) != n:
        raise ValueError("config_names must match the number of cores")
    cfg_list: list[SystemConfig] = []
    if configs is not None:
        if len(configs) != n:
            raise ValueError(
                f"{len(configs)} configs for {n} cores")
        for i, c in enumerate(configs):
            if isinstance(c, str):
                cfg_list.append(build_named_config(c))
                if not names[i]:
                    names[i] = c
            else:
                cfg_list.append(copy.deepcopy(c))
    else:
        base = config if config is not None else default_system()
        cfg_list = [copy.deepcopy(base) for _ in range(n)]

    specs = [CoreSpec(w, cfg, name)
             for w, cfg, name in zip(workload_list, cfg_list, names)]
    system = System(specs)
    if warmup_instructions > 0:
        system.warm_up(warmup_instructions)
    if attach is not None:
        attach(system)
    per_core = system.run(max_instructions, max_cycles=max_cycles)
    energy = [_finish(stats, cfg, spec.config_name)
              for spec, cfg, stats in zip(specs, cfg_list, per_core)]
    return MulticoreResult(per_core=per_core, energy=energy,
                           shared=system.shared_stats(), system=system)
