"""High-level simulation runner: workload -> processor -> stats + energy.

This is the main entry point of the public API::

    from repro import simulate, make_config, RunaheadMode
    result = simulate("mcf", make_config(RunaheadMode.BUFFER_CHAIN_CACHE),
                      max_instructions=20_000)
    print(result.stats.ipc, result.energy.total)

:func:`simulate_cohort` runs several configurations that differ only in
their runahead entry policy together, sharing runs where their entry
decisions agree; :func:`simulate` is the cohort of one.  Its run loop,
:func:`cohort_runs`, also serves the differential fuzz campaign
(:mod:`repro.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from ..config import (RunaheadConfig, SamplingConfig, SystemConfig,
                      default_system)
from ..energy import EnergyModel, EnergyReport
from ..isa import Program
from .processor import Processor
from .stats import SimStats


@dataclass
class SimulationResult:
    """Everything one run produces.

    ``sampling`` is ``None`` for fully detailed runs; two-level runs
    carry the engine's metadata dict (instruction/timing split per tier,
    estimated whole-run cycles) there, keeping ``stats`` bit-compatible
    across tiers.
    """

    stats: SimStats
    energy: EnergyReport
    processor: Processor
    sampling: Optional[dict] = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def _resolve_workload(workload) -> tuple[Program, object, Optional[list[int]]]:
    """Accept a workload name, a Workload object, or a bare Program."""
    if isinstance(workload, str):
        from ..workloads import build_workload
        built = build_workload(workload)
        return built.program, built.memory, built.init_regs
    if isinstance(workload, Program):
        return workload, None, None
    # Duck-typed Workload (program/memory/init_regs attributes).
    return workload.program, workload.memory, getattr(workload, "init_regs",
                                                      None)


def simulate(
    workload: Union[str, Program, object],
    config: Optional[SystemConfig] = None,
    max_instructions: int = 20_000,
    warmup_instructions: int = 12_000,
    max_cycles: Optional[int] = None,
    config_name: str = "",
    attach: Optional[Callable[[Processor], None]] = None,
    sampling: Optional[SamplingConfig] = None,
) -> SimulationResult:
    """Run one workload on one configuration and return stats + energy.

    ``attach`` is called with the processor after warm-up but before the
    timed run — the seam observers use (e.g.
    :meth:`repro.obs.Tracer.attach`) so functional warm-up traffic never
    pollutes a trace.

    ``sampling`` selects the execution tier.  ``None`` or
    ``tier="detailed"`` runs every instruction through the detailed
    core — bit-identical to the pre-sampling simulator.  ``"two-level"``
    alternates detailed windows with functional fast-forward
    (see :mod:`repro.fastpath`); ``result.stats`` then describes the
    detailed windows only and ``result.sampling`` holds the split.
    """
    if config is None:
        config = default_system()
    program, memory, init_regs = _resolve_workload(workload)
    processor = Processor(program, config, memory=memory, init_regs=init_regs)
    if warmup_instructions > 0:
        processor.warm_up(warmup_instructions)
    if attach is not None:
        attach(processor)
    if sampling is not None and sampling.is_sampled:
        from ..fastpath import run_two_tier
        meta = run_two_tier(processor, sampling, max_instructions,
                            max_cycles=max_cycles)
        stats = processor.stats
    else:
        meta = None
        stats = processor.run(max_instructions, max_cycles=max_cycles)
    energy = _finish(stats, config, config_name)
    return SimulationResult(stats=stats, energy=energy, processor=processor,
                            sampling=meta)


def cohort_runs(
    configs: Sequence[SystemConfig],
    build: Callable[[SystemConfig, list[RunaheadConfig]], Processor],
    max_instructions: int,
) -> Iterator[tuple[Processor, list[int], Optional[Exception]]]:
    """Run ``configs``, which differ only in their runahead entry policy
    (equal :func:`~repro.config.cohort_key`), in as few detailed runs as
    their trajectories allow.

    Each run simulates a trajectory for every pending config: the first
    (the lead) steers it, and each other config rides along with its own
    entry policy until its decision takes another path.
    ``build(lead, riders)`` returns the run's processor, built and warmed
    but not yet run; this loop runs it for ``max_instructions``.

    Yields ``(processor, members, error)`` per run: ``members`` are the
    run's configs as positions in ``configs``, in construction order
    (the order of ``processor.attached()`` and ``member_stats()``), and
    ``error`` is the exception the run raised, or ``None``.  A failed
    run's error belongs to every member still attached when it was
    raised.  Members that detached run again from scratch as the next
    run's cohort.  A caller that drops ``processor`` before asking for
    the next run keeps one processor alive at a time."""
    pending = list(range(len(configs)))
    while pending:
        processor = build(configs[pending[0]],
                          [configs[i].runahead for i in pending[1:]])
        error = None
        try:
            processor.run(max_instructions)
        except Exception as exc:   # handed to the caller with its members
            error = exc
        members = pending
        pending = [i for i, attached in zip(members, processor.attached())
                   if not attached]
        yield processor, members, error
        # The caller holds this run now: free it before the next build.
        del processor, error


def simulate_cohort(
    workload: str,
    configs: Sequence[SystemConfig],
    max_instructions: int = 20_000,
    warmup_instructions: int = 12_000,
    config_names: Sequence[str] = (),
) -> tuple[list[SimStats], int]:
    """Run ``configs``, which differ only in their runahead entry policy
    (equal :func:`~repro.config.cohort_key`), on the named workload in as
    few detailed runs as their trajectories allow (:func:`cohort_runs`).

    Returns each config's stats, in order, each equal to the stats
    :func:`simulate` returns for that config alone (energy report
    included), and the number of runs it took.
    """
    from ..workloads import build_workload

    def build(lead: SystemConfig, riders: list[RunaheadConfig]
              ) -> Processor:
        built = build_workload(workload)
        processor = Processor(
            built.program, lead, memory=built.memory,
            init_regs=built.init_regs, riders=riders)
        if warmup_instructions > 0:
            processor.warm_up(warmup_instructions)
        return processor

    names = list(config_names) or [""] * len(configs)
    results: list[Optional[SimStats]] = [None] * len(configs)
    runs = 0
    for processor, members, error in cohort_runs(configs, build,
                                                 max_instructions):
        if error is not None:
            raise error
        runs += 1
        for index, stats in zip(members, processor.member_stats()):
            if stats is not None:
                _finish(stats, configs[index], names[index])
                results[index] = stats
        del processor   # free this run before the next one is built
    return results, runs


def _finish(stats: SimStats, config: SystemConfig,
            config_name: str) -> EnergyReport:
    """Name a finished run and price its energy events."""
    stats.config_name = config_name or stats.config_name
    model = EnergyModel(config.energy, config.core.clock_ghz)
    energy = model.compute(stats.energy_events, stats.cycles)
    stats.energy_report = energy.to_dict()
    return energy
