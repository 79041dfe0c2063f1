"""Parameter sweeps: reusable sensitivity-analysis machinery.

The paper chose the 32-uop buffer "through sensitivity analysis" (§5);
this module provides that style of study as a first-class tool.  A sweep
varies one knob across a value list, simulates a benchmark set under a
baseline and a treatment configuration per value, and reports the
geometric-mean speedup per point.

Used by the ablation benchmarks and by ``python -m repro sweep``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..config import RunaheadMode, SystemConfig, make_config
from .metrics import gmean
from .parallel import CellSpec, simulate_cells
from .report import Table

DEFAULT_BENCHES = ("mcf", "milc", "soplex")


def default_sweep_instructions() -> int:
    """Per-point budget: ``REPRO_BENCH_INSTS``, read at call time."""
    return int(os.environ.get("REPRO_BENCH_INSTS", "3000"))


def default_sweep_warmup() -> int:
    """Warmup budget: ``REPRO_BENCH_WARMUP``, read at call time."""
    return int(os.environ.get("REPRO_BENCH_WARMUP", "12000"))


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: the knob value and the gmean % speedup."""

    value: object
    speedup_pct: float
    per_bench: dict


def run_sweep(
    configure: Callable[[object], SystemConfig],
    values: Sequence,
    benches: Sequence[str] = DEFAULT_BENCHES,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    jobs: Optional[int] = None,
) -> list[SweepPoint]:
    """Sweep ``configure(value)`` over ``values``.

    ``configure`` returns the treatment config for a value; each point is
    reported as gmean % IPC over the plain baseline on the same
    benchmarks.  Budgets default to ``REPRO_BENCH_INSTS`` /
    ``REPRO_BENCH_WARMUP``.  Every (point x bench) run — and the shared
    baselines — is independent, so the whole sweep fans out across
    ``jobs`` worker processes at once.
    """
    if instructions is None:
        instructions = default_sweep_instructions()
    if warmup is None:
        warmup = default_sweep_warmup()
    specs = [CellSpec(name, "baseline", make_config(), instructions, warmup)
             for name in benches]
    for value in values:
        config = configure(value)
        specs.extend(CellSpec(name, str(value), config, instructions, warmup)
                     for name in benches)
    stats = simulate_cells(specs, jobs=jobs).stats
    ipcs = [s["ipc"] for s in stats]
    baselines = dict(zip(benches, ipcs))
    points = []
    for index, value in enumerate(values):
        block = ipcs[(index + 1) * len(benches):(index + 2) * len(benches)]
        per_bench = {}
        ratios = []
        for name, ipc in zip(benches, block):
            per_bench[name] = 100.0 * (ipc / baselines[name] - 1.0)
            ratios.append(ipc / baselines[name])
        points.append(SweepPoint(value, 100.0 * (gmean(ratios) - 1.0),
                                 per_bench))
    return points


def sweep_table(title: str, knob: str, points: Sequence[SweepPoint],
                ) -> Table:
    benches = list(points[0].per_bench) if points else []
    table = Table(title, [knob, "gmean_pct"] + benches)
    for point in points:
        table.add(point.value, point.speedup_pct,
                  *[point.per_bench[b] for b in benches])
    return table


# -- canned sweeps -----------------------------------------------------------

def buffer_size_sweep(sizes: Sequence[int] = (8, 16, 32, 64),
                      **kwargs) -> list[SweepPoint]:
    """Runahead buffer capacity (the paper's §5 sensitivity analysis)."""
    return run_sweep(
        lambda n: make_config(RunaheadMode.BUFFER, buffer_uops=n,
                              max_chain_length=n),
        sizes, **kwargs,
    )


def chain_cache_sweep(entries: Sequence[int] = (1, 2, 4, 8),
                      **kwargs) -> list[SweepPoint]:
    """Chain cache entry count (§4.4 argues small is sufficient)."""
    return run_sweep(
        lambda n: make_config(RunaheadMode.BUFFER_CHAIN_CACHE,
                              chain_cache_entries=n),
        entries, **kwargs,
    )


def search_bandwidth_sweep(widths: Sequence[int] = (1, 2, 4),
                           **kwargs) -> list[SweepPoint]:
    """Destination-register CAM searches per cycle (§5 models 2)."""
    return run_sweep(
        lambda n: make_config(RunaheadMode.BUFFER_CHAIN_CACHE,
                              reg_searches_per_cycle=n),
        widths, **kwargs,
    )


def rob_size_sweep(sizes: Sequence[int] = (96, 192, 384),
                   mode: RunaheadMode = RunaheadMode.BUFFER,
                   **kwargs) -> list[SweepPoint]:
    """Window size vs runahead benefit.

    Note: each point is normalized against the *default* (192-entry)
    baseline, so this shows the combined window+runahead effect.
    """
    def configure(rob: int) -> SystemConfig:
        cfg = make_config(mode)
        cfg.core.rob_size = rob
        cfg.core.num_phys_regs = rob + 160
        cfg.validate()
        return cfg

    return run_sweep(configure, sizes, **kwargs)


def runahead_cache_sweep(**kwargs) -> list[SweepPoint]:
    """Runahead cache on vs off (store->load forwarding during runahead)."""
    return run_sweep(
        lambda on: make_config(RunaheadMode.BUFFER,
                               runahead_cache_enabled=on),
        [True, False], **kwargs,
    )


CANNED_SWEEPS: dict[str, tuple[Callable[..., list[SweepPoint]], str, str]] = {
    "buffer-size": (buffer_size_sweep, "buffer_uops",
                    "runahead buffer capacity"),
    "chain-cache": (chain_cache_sweep, "entries", "chain cache entries"),
    "search-bandwidth": (search_bandwidth_sweep, "searches_per_cycle",
                         "dest-reg CAM bandwidth"),
    "rob-size": (rob_size_sweep, "rob_entries", "reorder buffer size"),
    "runahead-cache": (runahead_cache_sweep, "enabled",
                       "runahead cache on/off"),
}


def run_named_sweep(name: str, benches: Optional[Sequence[str]] = None,
                    instructions: Optional[int] = None,
                    warmup: Optional[int] = None,
                    jobs: Optional[int] = None) -> Table:
    """Run a canned sweep by name and return its table."""
    try:
        fn, knob, description = CANNED_SWEEPS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep {name!r}; choose from {sorted(CANNED_SWEEPS)}"
        ) from None
    kwargs = {"instructions": instructions, "warmup": warmup, "jobs": jobs}
    if benches:
        kwargs["benches"] = tuple(benches)
    points = fn(**kwargs)
    return sweep_table(f"Sweep: {description} (gmean % IPC vs baseline)",
                       knob, points)
