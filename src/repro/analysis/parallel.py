"""Process-parallel simulation fan-out.

The experiment matrix, the sweeps, ``repro compare`` and the ablation
benchmarks all reduce to the same shape of work: a list of independent,
deterministic simulations whose results are plain JSON-able stats dicts.
This module fans that list out over a
:class:`~concurrent.futures.ProcessPoolExecutor` (the simulator is pure
Python, so threads would serialize on the GIL) and returns results in
submission order.

One spec type describes every simulation: a :class:`CellSpec` names the
workload, carries the :class:`~repro.config.SystemConfig` (pickled to
the worker), the instruction and warm-up budgets, and the sampling plan
of a two-level run (``None`` for the detailed tier).  Its ``name`` is
what the stats and the progress line call the config: a matrix cell's
named config, or a sweep point's value.

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
    """One simulation: ``config``, called ``name``, on a named workload.

    ``sampling`` is the two-level plan of a sampled run, or ``None`` for
    the detailed tier.
    """

    workload: str
    name: str
    config: Any  # a SystemConfig; pickled to the worker
    instructions: int
    warmup: int
    sampling: Any = None  # a SamplingConfig, or None

    @property
    def label(self) -> str:
        suffix = "+chains" if self.config.runahead.collect_chain_stats else ""
        tier = f" [{self.sampling.tier}]" if self.sampling is not None else ""
        return f"{self.workload}/{self.name}{suffix}{tier}"


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


def simulate_cell(spec: CellSpec) -> dict[str, Any]:
    """Simulate one spec on its own."""
    from ..core import simulate

    result = simulate(
        spec.workload,
        spec.config,
        max_instructions=spec.instructions,
        warmup_instructions=spec.warmup,
        config_name=spec.name,
        sampling=spec.sampling,
    )
    stats = result.stats.to_dict()
    if result.sampling is not None:
        from ..fastpath import scrub_host_keys
        stats["sampling"] = scrub_host_keys(result.sampling)
    return stats


def _simulate_cells(specs: Sequence[CellSpec]
                    ) -> tuple[list[dict[str, Any]], int]:
    """Worker entry point: one cohort of specs, or one spec alone."""
    if len(specs) == 1:
        return [simulate_cell(specs[0])], 1
    from ..core import simulate_cohort

    first = specs[0]
    results, runs = simulate_cohort(
        first.workload, [s.config for s in specs],
        max_instructions=first.instructions,
        warmup_instructions=first.warmup,
        config_names=[s.name for s in specs])
    return [stats.to_dict() for stats in results], runs


def _cohort_key(spec: CellSpec) -> Optional[Hashable]:
    """The cohort ``spec`` joins, or ``None`` if it runs alone."""
    from ..config import cohort_key

    key = cohort_key(spec.config) if spec.sampling is None else None
    if key is None:
        return None
    return (spec.workload, spec.instructions, spec.warmup, key)


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


def simulate_cells(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[CellSpec, int, int], None]] = None,
) -> Batch:
    """Simulate ``specs`` across processes, cohorts together, and return
    the stats in spec order.  ``progress`` fires once per spec, with
    (spec, done, total), in spec order as the specs before it have
    finished too."""
    specs = list(specs)
    total = len(specs)
    groups = _cohorts([_cohort_key(spec) for spec in specs])
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
            out, n = _simulate_cells([specs[i] for i in group])
            runs += n
            finish(group, out)
        return Batch(results, runs)  # type: ignore[arg-type]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_simulate_cells, [specs[i] for i in group]):
                   group for group in groups}
        for future in as_completed(futures):
            out, n = future.result()
            runs += n
            finish(futures[future], out)
    return Batch(results, runs)  # type: ignore[arg-type]


def print_progress(spec: CellSpec, done: int, total: int) -> None:
    """Default progress line: ``[ 12/60] mcf/rab_cc+chains``."""
    width = len(str(total))
    print(f"[{done:{width}d}/{total}] {spec.label}", flush=True)
