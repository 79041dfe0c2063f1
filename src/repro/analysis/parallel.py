"""Process-parallel simulation fan-out.

The experiment matrix, the sweeps, and the CLI all reduce to the same
shape of work: a list of independent, deterministic simulations whose
results are plain JSON-able stats dicts.  This module fans that list out
over a :class:`~concurrent.futures.ProcessPoolExecutor` (the simulator is
pure Python, so threads would serialize on the GIL) and returns results
in submission order.

Two spec types cover every caller:

* :class:`CellSpec` — a named-configuration matrix cell.  Workers rebuild
  the config from its name, so nothing heavier than a tuple of strings
  and ints crosses the process boundary on the way in.
* :class:`SimSpec` — an explicit :class:`~repro.config.SystemConfig`
  (pickled to the worker), for sweep points whose configs have no name.

Determinism: a worker runs exactly the code a serial caller would, the
simulator uses no global randomness, and the stats dicts round-trip
through pickle unchanged — so parallel results are byte-identical to
serial ones.  ``jobs=1`` (or a single spec) short-circuits to in-process
execution with no pool overhead.

Worker count resolution (:func:`resolve_jobs`): explicit argument, else
``REPRO_BENCH_JOBS``, else the CPUs this process may run on
(:func:`usable_cpus`).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, NamedTuple, Optional, Sequence


class CellSpec(NamedTuple):
    """One experiment-matrix cell: a named config on a named workload.

    ``tier`` selects the execution tier (``"detailed"`` or
    ``"two-level"``); the ramp/window/stride plan only matters for
    sampled cells and stays zero otherwise, so detailed specs pickle
    and compare exactly as before.

    ``cores`` > 1 makes the spec a multi-core cell (detailed tier
    only): ``workloads`` names the per-core workload list
    (comma-joined, core order), ``share`` the share level, and the
    worker runs :func:`repro.multicore.simulate_multicore` with
    ``config_name`` on every core.  Single-core specs keep all three
    fields at their defaults, so their pickled shape and equality are
    unchanged.
    """

    workload: str
    config_name: str
    chain_stats: bool
    instructions: int
    warmup: int
    tier: str = "detailed"
    ramp: int = 0
    window: int = 0
    stride: int = 0
    cores: int = 1
    share: str = "llc,dram"
    workloads: str = ""

    @property
    def label(self) -> str:
        if self.cores > 1:
            return (f"{self.workloads or self.workload}/{self.config_name}"
                    f" [mc{self.cores}:{self.share}]")
        suffix = "+chains" if self.chain_stats else ""
        tier = f" [{self.tier}]" if self.tier != "detailed" else ""
        return f"{self.workload}/{self.config_name}{suffix}{tier}"


class SimSpec(NamedTuple):
    """One ad-hoc simulation: an explicit config on a named workload."""

    workload: str
    config: Any  # a SystemConfig; pickled to the worker
    instructions: int
    warmup: int
    name: str = ""

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.name}" if self.name else self.workload


def usable_cpus() -> int:
    """CPUs this process may run on: the scheduler affinity mask where
    the platform has one (a cpuset-restricted container grants fewer
    CPUs than ``os.cpu_count()`` reports), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: argument, else ``REPRO_BENCH_JOBS``, else
    :func:`usable_cpus`."""
    if jobs is None:
        jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or usable_cpus()
    return max(1, int(jobs))


def simulate_cell(spec: CellSpec) -> dict[str, Any]:
    """Simulate one matrix cell (the worker entry point)."""
    from ..config import SamplingConfig, build_named_config
    from ..core import simulate

    if spec.cores > 1:
        if spec.tier != "detailed":
            raise ValueError(
                "multi-core cells are detailed-tier only "
                f"(got tier={spec.tier!r})")
        from ..multicore import simulate_multicore
        workload_list = ((spec.workloads or spec.workload).split(",")
                         if (spec.workloads or spec.workload) else [])
        result = simulate_multicore(
            workload_list,
            cores=spec.cores,
            configs=[spec.config_name] * spec.cores,
            share=spec.share,
            max_instructions=spec.instructions,
            warmup_instructions=spec.warmup,
        )
        return result.to_dict()

    config = build_named_config(spec.config_name)
    if spec.chain_stats:
        config.runahead.collect_chain_stats = True
    sampling = None
    if spec.tier != "detailed":
        sampling = SamplingConfig(
            tier=spec.tier, ramp_instructions=spec.ramp,
            window_instructions=spec.window, stride_instructions=spec.stride)
    result = simulate(
        spec.workload,
        config,
        max_instructions=spec.instructions,
        warmup_instructions=spec.warmup,
        config_name=spec.config_name,
        sampling=sampling,
    )
    stats = result.stats.to_dict()
    if result.sampling is not None:
        from ..fastpath import scrub_host_keys
        stats["sampling"] = scrub_host_keys(result.sampling)
    return stats


def _simulate_spec(spec: SimSpec) -> dict[str, Any]:
    from ..core import simulate

    result = simulate(
        spec.workload,
        spec.config,
        max_instructions=spec.instructions,
        warmup_instructions=spec.warmup,
        config_name=spec.name,
    )
    return result.stats.to_dict()


def _fan_out(
    fn: Callable[[Any], dict[str, Any]],
    specs: Sequence[Any],
    jobs: Optional[int],
    progress: Optional[Callable[[Any, int, int], None]],
) -> list[dict[str, Any]]:
    """Map ``fn`` over ``specs``, preserving order; ``progress`` fires as
    each spec completes (in completion order) with (spec, done, total)."""
    specs = list(specs)
    total = len(specs)
    jobs = min(resolve_jobs(jobs), total) if total else 1
    results: list[Optional[dict[str, Any]]] = [None] * total
    if jobs <= 1:
        for index, spec in enumerate(specs):
            results[index] = fn(spec)
            if progress is not None:
                progress(spec, index + 1, total)
        return results  # type: ignore[return-value]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(fn, spec): index
                   for index, spec in enumerate(specs)}
        done = 0
        for future in as_completed(futures):
            index = futures[future]
            results[index] = future.result()
            done += 1
            if progress is not None:
                progress(specs[index], done, total)
    return results  # type: ignore[return-value]


def simulate_cells(
    cells: Sequence[CellSpec],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[CellSpec, int, int], None]] = None,
) -> list[dict[str, Any]]:
    """Simulate matrix cells across processes; stats dicts in cell order."""
    return _fan_out(simulate_cell, cells, jobs, progress)


def simulate_configs(
    specs: Sequence[SimSpec],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[SimSpec, int, int], None]] = None,
) -> list[dict[str, Any]]:
    """Simulate explicit-config specs across processes, in spec order."""
    return _fan_out(_simulate_spec, specs, jobs, progress)


def print_progress(spec: Any, done: int, total: int) -> None:
    """Default progress line: ``[ 12/60] mcf/rab_cc+chains``."""
    width = len(str(total))
    print(f"[{done:{width}d}/{total}] {spec.label}", flush=True)
