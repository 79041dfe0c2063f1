"""Multi-core simulation: N cores contending on a shared LLC/DRAM.

The paper evaluates the runahead buffer per-core; this module scales the
*modeled* system following Hashemi's dissertation direction — multiple
out-of-order cores (each with private L1s and its own runahead
machinery) whose hierarchies call one
:class:`~repro.memory.shared.SharedLLC` complex.  Two share levels:

* ``"llc,dram"`` — one LLC array, one MSHR pool, one prefetcher, one
  memory controller.  The full contention story: cross-core evictions,
  inter-core prefetch pollution, MSHR fairness.
* ``"dram"`` — private LLCs, shared memory controller: cores contend
  only for DRAM banks/bandwidth.

Scheduling is a min-heap over ``(core.now, core_index)``: the globally
earliest core steps one cycle (which may bulk-skip far ahead), then
re-enters the heap.  Each core's event arithmetic is untouched, ties
break by core index, and no randomness exists anywhere — so a given
(workload list, config list, share level) is deterministic, which
``System.fingerprints`` pins and tests/test_multicore.py gates.

Entry point::

    from repro import simulate_multicore
    result = simulate_multicore("mcf", cores=2,
                                configs=["rab_cc", "rab_cc"])
    result.per_core[0].ipc, result.shared["contention"]
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .config import (SystemConfig, assert_shared_geometry,
                     build_named_config, default_system, validate_share)
from .core.processor import Processor, _WATCHDOG_CYCLES
from .core.sim import _resolve_workload
from .core.stats import SimStats
from .energy import EnergyModel, EnergyReport
from .memory import MemoryController, MemoryHierarchy, SharedLLC

__all__ = ["CoreSpec", "MulticoreResult", "System", "simulate_multicore",
           "trace_multicore"]


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

    def __init__(self, specs: Sequence[CoreSpec],
                 share: str = "llc,dram") -> None:
        if not specs:
            raise ValueError("at least one core required")
        self.share = validate_share(share)
        configs = []
        for spec in specs:
            cfg = spec.config if spec.config is not None else default_system()
            configs.append(cfg)
        assert_shared_geometry(configs, self.share)
        self.specs = list(specs)

        if "llc" in self.share:
            # One complex for everything below the L1s.
            self.shared = SharedLLC(configs[0])
            self.controller = self.shared.controller
            complexes = [self.shared] * len(specs)
        else:
            # Private LLCs, shared memory controller.
            self.controller = MemoryController(configs[0].dram)
            complexes = [SharedLLC(cfg, controller=self.controller)
                         for cfg in configs]
            self.shared = None
        self._complexes = complexes

        self.cores: list[Processor] = []
        for spec, cfg, cplx in zip(specs, configs, complexes):
            program, memory, init_regs = _resolve_workload(spec.workload)
            hierarchy = MemoryHierarchy(cfg, shared=cplx)
            proc = Processor(program, cfg, memory=memory,
                             init_regs=init_regs, hierarchy=hierarchy)
            self.cores.append(proc)
        self.num_cores = len(self.cores)

    # -- phases ------------------------------------------------------------------

    def warm_up(self, instructions: int) -> list[int]:
        """Functionally warm each core in core order.  Sequential by
        design: warm-up is untimed, and a fixed order keeps the shared
        LLC's warm contents deterministic.

        Warm-up evictions are attributed to the warming core, then the
        interference counters are reset: warm-order artifacts are not
        contention.  Line ownership survives into the timed run."""
        executed = []
        for idx, core in enumerate(self.cores):
            cplx = self._complexes[idx]
            cplx._active_core = core.core_id
            cplx._active_kind = "warm"
            executed.append(core.warm_up(instructions))
        for cplx in dict.fromkeys(self._complexes):
            cplx.reset_interference()
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
        import heapq
        targets = [core.committed + max_instructions for core in self.cores]
        for core in self.cores:
            core.set_cycle_cap(max_cycles)
        heap = [(core.now, idx) for idx, core in enumerate(self.cores)
                if not core.halted and core.committed < targets[idx]]
        heapq.heapify(heap)
        while heap:
            now, idx = heapq.heappop(heap)
            core = self.cores[idx]
            if core.now != now:
                # Stale entry (never happens with one entry per core,
                # but cheap to guard).
                heapq.heappush(heap, (core.now, idx))
                continue
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
            if core.ra_policy.current is not None:
                core._finish_interval()
            stats.append(core._finalize_stats())
        return stats

    # -- reporting ---------------------------------------------------------------

    def shared_stats(self) -> dict:
        """Shared-level view: LLC totals, DRAM bank behaviour, the
        interference counters, and per-core fairness profiles."""
        d = self.controller.stats
        doc: dict = {
            "share": self.share,
            "cores": self.num_cores,
            "dram": {
                "reads": d.reads,
                "writes": d.writes,
                "row_hits": d.row_hits,
                "row_misses": d.row_misses,
                "bank_conflicts": d.row_conflicts,
                "activates": d.activates,
                "busiest_wait": d.busiest_wait,
                "by_kind": dict(d.by_kind),
            },
        }
        if self.shared is not None:
            doc.update(self.shared.contention_dict())
            doc["dram"]["by_kind"] = dict(d.by_kind)
        else:
            doc["contention"] = {
                "cross_core_evictions": 0,
                "prefetch_pollution_evictions": 0,
                "pollution_misses": 0,
                "mshr_contended_rejections": 0,
                "spec_cap_rejections": 0,
            }
            doc["per_core"] = [
                cplx._accounts[0].to_dict() for cplx in self._complexes]
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
                "runahead": core.ra_policy.fairness_summary(),
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


def simulate_multicore(
    workloads: Union[str, Sequence[Union[str, object]]],
    config: Optional[SystemConfig] = None,
    *,
    cores: Optional[int] = None,
    configs: Optional[Sequence[Union[str, SystemConfig]]] = None,
    share: str = "llc,dram",
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
    with the built System after warm-up, before the timed run (the
    multicore tracing seam).
    """
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
    system = System(specs, share=share)
    if warmup_instructions > 0:
        system.warm_up(warmup_instructions)
    if attach is not None:
        attach(system)
    per_core = system.run(max_instructions, max_cycles=max_cycles)
    energy = []
    for spec, cfg, stats in zip(specs, cfg_list, per_core):
        stats.config_name = spec.config_name or stats.config_name
        model = EnergyModel(cfg.energy, cfg.core.clock_ghz)
        report = model.compute(stats.energy_events, stats.cycles)
        stats.energy_report = report.to_dict()
        energy.append(report)
    return MulticoreResult(per_core=per_core, energy=energy,
                           shared=system.shared_stats(), system=system)


def trace_multicore(system: System, kinds: Optional[tuple] = None):
    """Attach per-core tracers plus shared-level ``mc.*`` events.

    Returns ``(core_traces, shared_trace, tracers)``.  Per-core tracers
    deliberately exclude the ``dram`` kind: with a shared controller,
    N tracers would each re-shadow ``controller.request`` and emit N
    duplicate events.  The single shared trace gets one dram shadow and
    the complex's ``mc.*`` interference events instead.
    """
    from .obs import Tracer

    core_kinds = kinds if kinds is not None else (
        "fetch_redirect", "runahead_enter", "runahead_exit",
        "chain_extract", "chain_cache", "prefetch_issue")
    if "dram" in core_kinds:
        raise ValueError(
            "per-core multicore tracers may not include 'dram' — the "
            "shared trace owns the controller shadow")
    core_traces = []
    tracers = []
    for core in system.cores:
        tracer = Tracer(kinds=core_kinds)
        tracer.attach(core)
        core_traces.append(tracer.trace)
        tracers.append(tracer)

    # One dram shadow on the shared controller (attached through core 0;
    # the controller object is the same for every core) plus the
    # complex's mc.* interference events.
    shared_tracer = Tracer(kinds=("dram",))
    shared_tracer.attach(system.cores[0])
    shared_trace = shared_tracer.trace
    tracers.append(shared_tracer)
    for cplx in dict.fromkeys(system._complexes):
        cplx.mc_hook = shared_trace.emit
    return core_traces, shared_trace, tracers
