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

Before fanning out, the specs are grouped into cohorts: detailed-tier
specs of one workload and budget whose configs differ only in their
runahead entry policy (:func:`~repro.config.cohort_key`) run together
through :func:`~repro.core.simulate_cohort`, which simulates one
trajectory per distinct run of entry decisions instead of one per
config.  Two-level specs and configs with runahead off run alone.  Each
spec still gets its own stats dict, equal to its standalone run's.

Determinism: a worker runs exactly the code a serial caller would, the
simulator uses no global randomness, and the stats dicts round-trip
through pickle unchanged — so parallel results are byte-identical to
serial ones.  ``jobs=1`` (or a single cohort) short-circuits to
in-process execution with no pool overhead.

Worker count resolution (:func:`resolve_jobs`): explicit argument, else
``REPRO_BENCH_JOBS``, else the CPUs this process may run on
(:func:`usable_cpus`).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Hashable, NamedTuple, Optional, Sequence


class CellSpec(NamedTuple):
    """One experiment-matrix cell: a named config on a named workload.

    ``tier`` selects the execution tier (``"detailed"`` or
    ``"two-level"``); the ramp/window/stride plan only matters for
    sampled cells and stays zero otherwise.
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

    @property
    def label(self) -> str:
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


class Batch(NamedTuple):
    """Stats dicts in spec order, and how many simulations produced them
    (a cohort serves several specs per run; a config that detached from
    one runs again)."""

    stats: list[dict[str, Any]]
    runs: int


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


def _cell_config(spec: CellSpec):
    from ..config import build_named_config

    config = build_named_config(spec.config_name)
    if spec.chain_stats:
        config.runahead.collect_chain_stats = True
    return config


def simulate_cell(spec: CellSpec) -> dict[str, Any]:
    """Simulate one matrix cell on its own."""
    from ..config import SamplingConfig
    from ..core import simulate

    sampling = None
    if spec.tier != "detailed":
        sampling = SamplingConfig(
            tier=spec.tier, ramp_instructions=spec.ramp,
            window_instructions=spec.window, stride_instructions=spec.stride)
    result = simulate(
        spec.workload,
        _cell_config(spec),
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


def _cohort_key(spec, config) -> Optional[Hashable]:
    """The cohort a detailed-tier ``spec`` joins, or ``None`` if it runs
    alone."""
    from ..config import cohort_key

    key = cohort_key(config)
    if key is None:
        return None
    return (spec.workload, spec.instructions, spec.warmup, key)


def _simulate_cohort(specs: Sequence[Any], configs: Sequence[Any],
                     names: Sequence[str]) -> tuple[list[dict[str, Any]], int]:
    from ..core import simulate_cohort

    first = specs[0]
    results, runs = simulate_cohort(
        first.workload, configs, max_instructions=first.instructions,
        warmup_instructions=first.warmup, config_names=names)
    return [stats.to_dict() for stats in results], runs


def _simulate_cells(specs: Sequence[CellSpec]
                    ) -> tuple[list[dict[str, Any]], int]:
    """Worker entry point: one cohort of matrix cells."""
    if len(specs) == 1:
        return [simulate_cell(specs[0])], 1
    return _simulate_cohort(specs, [_cell_config(s) for s in specs],
                            [s.config_name for s in specs])


def _simulate_specs(specs: Sequence[SimSpec]
                    ) -> tuple[list[dict[str, Any]], int]:
    """Worker entry point: one cohort of explicit-config specs."""
    if len(specs) == 1:
        return [_simulate_spec(specs[0])], 1
    return _simulate_cohort(specs, [s.config for s in specs],
                            [s.name for s in specs])


def _cohorts(keys: Sequence[Optional[Hashable]]) -> list[list[int]]:
    """Spec indices grouped by cohort key, each group in spec order and
    the groups in order of their first spec; a ``None`` key is a group
    of its own."""
    groups: list[list[int]] = []
    by_key: dict[Hashable, list[int]] = {}
    for index, key in enumerate(keys):
        group = by_key.get(key) if key is not None else None
        if group is None:
            group = []
            groups.append(group)
            if key is not None:
                by_key[key] = group
        group.append(index)
    return groups


def _fan_out(
    fn: Callable[[list[Any]], tuple[list[dict[str, Any]], int]],
    specs: Sequence[Any],
    keys: Sequence[Optional[Hashable]],
    jobs: Optional[int],
    progress: Optional[Callable[[Any, int, int], None]],
) -> Batch:
    """Run ``fn`` over the cohorts ``keys`` group ``specs`` into, and
    return the stats in spec order.  ``progress`` fires once per spec,
    with (spec, done, total), in spec order as the specs before it have
    finished too."""
    specs = list(specs)
    total = len(specs)
    groups = _cohorts(keys)
    results: list[Optional[dict[str, Any]]] = [None] * total
    runs = 0
    reported = 0

    def finish(group: list[int], out: list[dict[str, Any]]) -> None:
        nonlocal reported
        for index, stats in zip(group, out):
            results[index] = stats
        while reported < total and results[reported] is not None:
            reported += 1
            if progress is not None:
                progress(specs[reported - 1], reported, total)

    jobs = min(resolve_jobs(jobs), len(groups)) if groups else 1
    if jobs <= 1:
        for group in groups:
            out, n = fn([specs[i] for i in group])
            runs += n
            finish(group, out)
        return Batch(results, runs)  # type: ignore[arg-type]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(fn, [specs[i] for i in group]): group
                   for group in groups}
        for future in as_completed(futures):
            out, n = future.result()
            runs += n
            finish(futures[future], out)
    return Batch(results, runs)  # type: ignore[arg-type]


def simulate_cells(
    cells: Sequence[CellSpec],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[CellSpec, int, int], None]] = None,
) -> Batch:
    """Simulate matrix cells across processes, cohorts together."""
    keys = [_cohort_key(spec, _cell_config(spec))
            if spec.tier == "detailed" else None for spec in cells]
    return _fan_out(_simulate_cells, cells, keys, jobs, progress)


def simulate_configs(
    specs: Sequence[SimSpec],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[SimSpec, int, int], None]] = None,
) -> Batch:
    """Simulate explicit-config specs across processes, cohorts together."""
    keys = [_cohort_key(spec, spec.config) for spec in specs]
    return _fan_out(_simulate_specs, specs, keys, jobs, progress)


def print_progress(spec: Any, done: int, total: int) -> None:
    """Default progress line: ``[ 12/60] mcf/rab_cc+chains``."""
    width = len(str(total))
    print(f"[{done:{width}d}/{total}] {spec.label}", flush=True)
