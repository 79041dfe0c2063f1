"""Simulator-throughput benchmark: KIPS as a first-class tracked metric.

The experiment matrix measures what the *simulated core* does; this module
measures how fast the *simulator itself* runs, in KIPS (committed
kilo-instructions per host second).  ``repro bench-throughput`` runs a
small workload x mode grid, writes ``BENCH_sim_throughput.json`` and can
gate CI on a regression against a committed baseline.

Timing methodology: each cell builds a fresh workload + processor, runs
the functional warm-up (timed separately — it is not cycle-level work)
and then times the simulation alone with ``perf_counter``.  The best
of ``reps`` repetitions is reported, which filters scheduler noise while
staying cheap enough for CI.

Tier accounting (pinned by tests/test_bench_throughput.py):

* ``warmup_seconds`` is always reported separately and never enters any
  KIPS figure — warm-up is functional work, not simulation.
* Detailed cells: ``kips`` = committed instructions / detailed-run
  seconds, exactly as before.
* Two-level cells: ``kips`` (the headline rate) = instructions advanced
  through *both* tiers / (detailed + fast-forward seconds), while
  ``kips_detailed`` = detailed-burst instructions / detailed seconds
  alone — fast-forward time is never folded into the detailed-tier
  rate.  Two-level cells run a ``TWO_LEVEL_SCALE``-times larger budget
  so several sampling strides fit; KIPS is a rate, so the
  ``two_level_speedup`` section compares rates across unequal budgets.

Fast-forward lanes (schema 3): every cell records which lane
(``interp`` or ``jit``) ran the functional tier; two-level cells break
out ``detailed_seconds``/``ff_seconds``/``translate_seconds``
individually (block-translation host time is part of the jit lane's
``ff_seconds``, not hidden).  With ``ff_lanes`` spanning both lanes the
two-level grid is measured once per lane and the document carries a
``jit_speedup`` section: interp ``ff_seconds`` over jit ``ff_seconds``
per cell, plus the geomean.  Only primary-lane cells (``ff_lanes[0]``)
enter ``geomean_kips`` and ``two_level_speedup``, keeping those series
comparable across schema revisions.

Host record (schema 4): ``usable_cpus`` (CPU-affinity aware —
``cpu_count`` alone overstates a cgroup-restricted container) and
``load_avg`` sit next to the platform fields.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from ..config import SamplingConfig, build_named_config
from ..core.processor import Processor
from ..fastpath import FF_LANES, resolve_ff_lane
from ..workloads import build_workload
from .parallel import usable_cpus

# Benchmark mode -> named configuration.  "normal" exercises the plain
# out-of-order fast path, "rab" additionally exercises chain generation,
# the runahead buffer loop, and the runahead cache.
MODES: dict[str, str] = {
    "normal": "baseline",
    "rab": "rab_cc",
}

# Default suite: the memory-intensive kernels that dominate figure runs
# (two pointer-chasing gathers, two streams) — the workloads where both
# the normal and runahead-buffer hot paths actually get exercised.
DEFAULT_WORKLOADS = ("mcf", "milc", "libquantum", "lbm")

DEFAULT_INSTRUCTIONS = 20_000
DEFAULT_WARMUP = 12_000
DEFAULT_REPS = 2

# Two-level cells simulate this many times the detailed budget so the
# run spans several sampling strides (KIPS is a rate; see module doc).
TWO_LEVEL_SCALE = 10

SCHEMA = 4

DEFAULT_TIERS = ("detailed",)

# CLI/bench lane selectors: the concrete lanes plus "both", which
# measures the two-level grid once per lane and adds ``jit_speedup``.
FF_LANE_CHOICES = (*FF_LANES, "both")


def _time_cell(workload: str, config_name: str, instructions: int,
               warmup: int,
               plan: Optional[SamplingConfig] = None,
               ff_lane: Optional[str] = None) -> dict[str, Any]:
    """One timed simulation: returns KIPS plus raw timing components."""
    built = build_workload(workload)
    config = build_named_config(config_name)
    processor = Processor(built.program, config, memory=built.memory,
                         init_regs=built.init_regs)
    processor.ff_lane = ff_lane
    t0 = time.perf_counter()
    if warmup > 0:
        processor.warm_up(warmup)
    t1 = time.perf_counter()
    if plan is not None and plan.is_sampled:
        from ..fastpath import run_two_tier
        meta = run_two_tier(processor, plan, instructions)
        stats = processor.stats
        detailed_seconds = meta["detailed_seconds"]
        ff_seconds = meta["fast_forward_seconds"]
        # Sampled cells read the clock only around warm-up (a pinned
        # accounting contract): the timed part is detailed + ff seconds.
        sim_seconds = detailed_seconds + ff_seconds
        advanced = meta["instructions_advanced"]
        return {
            "tier": plan.tier,
            "ff_lane": meta.get("ff_lane", resolve_ff_lane(ff_lane)),
            "committed": stats.committed_insts,
            "advanced": advanced,
            "cycles": stats.cycles,
            "warmup_seconds": round(t1 - t0, 6),
            "sim_seconds": round(sim_seconds, 6),
            "detailed_seconds": round(detailed_seconds, 6),
            "ff_seconds": round(ff_seconds, 6),
            "translate_seconds": round(meta.get("translate_seconds", 0.0), 6),
            "kips": round(advanced / sim_seconds / 1000.0, 3)
            if sim_seconds else 0.0,
            "kips_detailed": round(
                stats.committed_insts / detailed_seconds / 1000.0, 3)
            if detailed_seconds else 0.0,
        }
    stats = processor.run(instructions)
    t2 = time.perf_counter()
    sim_seconds = t2 - t1
    return {
        "tier": "detailed",
        "ff_lane": resolve_ff_lane(ff_lane),
        "committed": stats.committed_insts,
        "cycles": stats.cycles,
        "warmup_seconds": round(t1 - t0, 6),
        "sim_seconds": round(sim_seconds, 6),
        "kips": round(stats.committed_insts / sim_seconds / 1000.0, 3),
    }


def measure_cell(workload: str, mode: str, instructions: int = DEFAULT_INSTRUCTIONS,
                 warmup: int = DEFAULT_WARMUP, reps: int = DEFAULT_REPS,
                 plan: Optional[SamplingConfig] = None,
                 ff_lane: Optional[str] = None) -> dict[str, Any]:
    """Best-of-``reps`` measurement of one (workload, mode, tier) cell."""
    config_name = MODES[mode]
    best: Optional[dict[str, Any]] = None
    ff_best: Optional[float] = None
    for _ in range(max(1, reps)):
        sample = _time_cell(workload, config_name, instructions, warmup, plan,
                            ff_lane=ff_lane)
        if best is None or sample["kips"] > best["kips"]:
            best = sample
        if "ff_seconds" in sample:
            ff = sample["ff_seconds"]
            ff_best = ff if ff_best is None or ff < ff_best else ff_best
    assert best is not None
    if ff_best is not None:
        # Min across reps: the noise filter applied per timing component.
        # The lane-comparison section uses this, not the best-kips rep's
        # ff_seconds, so one slow scheduler quantum in an otherwise-fast
        # rep cannot skew the lane ratio.
        best["ff_seconds_best"] = round(ff_best, 6)
    best.update(workload=workload, mode=mode, config=config_name,
                instructions=instructions, warmup=warmup)
    return best


def host_info() -> dict[str, Any]:
    """Host record for the result document.

    ``cpu_count`` is the raw ``os.cpu_count()``; ``usable_cpus`` honours
    the scheduler affinity mask (cgroup/container CPU limits), which is
    the number that actually bounds process-parallel speedup.  Both are
    recorded so a reader can tell "small machine" from "restricted
    container".  ``load_avg`` captures competing load at measurement
    time (``None`` where the platform has no ``getloadavg``).
    """
    try:
        load_avg = [round(x, 2) for x in os.getloadavg()]
    except (AttributeError, OSError):
        load_avg = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "load_avg": load_avg,
    }


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _mode_key(mode: str, tier: str) -> str:
    """Geomean key: detailed keeps the bare mode name (schema-1 compat);
    other tiers get a ``mode/tier`` suffix."""
    return mode if tier == "detailed" else f"{mode}/{tier}"


def run_benchmark(workloads: Sequence[str] = DEFAULT_WORKLOADS,
                  modes: Sequence[str] = tuple(MODES),
                  instructions: int = DEFAULT_INSTRUCTIONS,
                  warmup: int = DEFAULT_WARMUP,
                  reps: int = DEFAULT_REPS,
                  tiers: Sequence[str] = DEFAULT_TIERS,
                  plan: Optional[SamplingConfig] = None,
                  ff_lanes: Optional[Sequence[str]] = None,
                  progress=None) -> dict[str, Any]:
    """Measure the full grid and assemble the result document.

    ``tiers`` selects which execution tiers each (workload, mode) cell is
    measured under; with both tiers present the document also carries a
    ``two_level_speedup`` section (two-level KIPS over detailed KIPS, per
    cell and per-mode geomean).

    ``ff_lanes`` selects the fast-forward lane(s).  ``None`` resolves the
    session default (``REPRO_FF_LANE`` env, then ``"jit"``).  With more
    than one lane, two-level cells are measured once per lane and the
    document gains a ``jit_speedup`` section; ``ff_lanes[0]`` is the
    primary lane and the only one entering ``geomean_kips`` and
    ``two_level_speedup``.
    """
    if plan is None:
        plan = SamplingConfig(tier="two-level")
    if ff_lanes is None:
        ff_lanes = (resolve_ff_lane(),)
    primary = ff_lanes[0]
    results = []
    for workload in workloads:
        for mode in modes:
            for tier in tiers:
                if tier == "detailed":
                    cells = [measure_cell(workload, mode, instructions,
                                          warmup, reps, ff_lane=primary)]
                else:
                    cells = [measure_cell(workload, mode,
                                          instructions * TWO_LEVEL_SCALE,
                                          warmup, reps, plan=plan,
                                          ff_lane=lane)
                             for lane in ff_lanes]
                for cell in cells:
                    results.append(cell)
                    if progress is not None:
                        progress(f"{workload:12s} {mode:7s} {tier:10s} "
                                 f"{cell.get('ff_lane', ''):6s} "
                                 f"{cell['kips']:8.1f} KIPS")
    primary_cells = [c for c in results
                     if c.get("ff_lane", primary) == primary]
    mode_keys = [_mode_key(mode, tier) for mode in modes for tier in tiers]
    by_mode = {
        key: round(geomean([c["kips"] for c in primary_cells
                            if _mode_key(c["mode"], c["tier"]) == key]), 3)
        for key in mode_keys
    }
    doc = {
        "schema": SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_info(),
        "instructions": instructions,
        "warmup": warmup,
        "reps": reps,
        "tiers": list(tiers),
        "ff_lanes": list(ff_lanes),
        "results": results,
        "geomean_kips": {
            **by_mode,
            "overall": round(geomean([c["kips"] for c in primary_cells]), 3),
        },
    }
    if "two-level" in tiers:
        doc["sampling_plan"] = {
            "ramp_instructions": plan.ramp_instructions,
            "window_instructions": plan.window_instructions,
            "stride_instructions": plan.stride_instructions,
        }
    if "detailed" in tiers and "two-level" in tiers:
        doc["two_level_speedup"] = _two_level_speedup(primary_cells, modes)
    if len(set(ff_lanes)) > 1:
        doc["jit_speedup"] = _jit_speedup(results)
    return doc


def _jit_speedup(results: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Interp-lane over jit-lane fast-forward seconds, per two-level cell.

    The ratio compares the lanes on identical work: same workload, mode,
    budget and sampling plan, so ``ff_seconds`` (which includes the jit
    lane's block-translation time) is directly comparable.  Each side
    uses its min-of-reps (``ff_seconds_best``) so the ratio is between
    the lanes' least-noisy measurements.
    """

    def _ff(cell: dict[str, Any]) -> float:
        return cell.get("ff_seconds_best", cell.get("ff_seconds", 0.0))

    interp = {(c["workload"], c["mode"]): _ff(c)
              for c in results
              if c["tier"] == "two-level" and c.get("ff_lane") == "interp"}
    per_cell = {}
    for c in results:
        if c["tier"] != "two-level" or c.get("ff_lane") != "jit":
            continue
        base = interp.get((c["workload"], c["mode"]))
        if base and _ff(c):
            per_cell[f"{c['workload']}/{c['mode']}"] = round(
                base / _ff(c), 2)
    return {
        "metric": "interp ff_seconds / jit ff_seconds",
        "per_cell": per_cell,
        "geomean": round(geomean(list(per_cell.values())), 2),
    }


def _two_level_speedup(results: Sequence[dict[str, Any]],
                       modes: Sequence[str]) -> dict[str, Any]:
    """Two-level over detailed KIPS, per cell and per-mode geomean."""
    detailed = {(c["workload"], c["mode"]): c["kips"]
                for c in results if c["tier"] == "detailed"}
    per_cell = {}
    for c in results:
        if c["tier"] != "two-level":
            continue
        base = detailed.get((c["workload"], c["mode"]))
        if base:
            per_cell[f"{c['workload']}/{c['mode']}"] = round(
                c["kips"] / base, 2)
    per_mode = {
        mode: round(geomean([v for key, v in per_cell.items()
                             if key.endswith(f"/{mode}")]), 2)
        for mode in modes
    }
    return {
        "per_cell": per_cell,
        "geomean": per_mode,
        "overall": round(geomean(list(per_cell.values())), 2),
    }


def attach_before(doc: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """Embed a prior run as the ``before`` section and compute speedups."""
    doc = dict(doc)
    doc["before"] = {
        "generated": before.get("generated"),
        "geomean_kips": before.get("geomean_kips", {}),
        "results": before.get("results", []),
    }
    speedup = {}
    for mode, after_kips in doc["geomean_kips"].items():
        before_kips = before.get("geomean_kips", {}).get(mode, 0)
        if before_kips:
            speedup[mode] = round(after_kips / before_kips, 3)
    doc["speedup_vs_before"] = speedup
    return doc


def check_regression(current: dict[str, Any], baseline: dict[str, Any],
                     tolerance: float = 0.30) -> list[str]:
    """Per-mode geomean KIPS regression check.

    Returns a list of human-readable failures (empty when within
    ``tolerance``).  Only modes present in both documents are compared,
    so shrinking or growing the grid does not spuriously fail.
    """
    failures = []
    base = baseline.get("geomean_kips", {})
    cur = current.get("geomean_kips", {})
    for mode, base_kips in base.items():
        if mode == "overall" or mode not in cur or not base_kips:
            continue
        floor = base_kips * (1.0 - tolerance)
        if cur[mode] < floor:
            failures.append(
                f"{mode}: {cur[mode]:.1f} KIPS < {floor:.1f} "
                f"(baseline {base_kips:.1f}, tolerance {tolerance:.0%})"
            )
    return failures


def write_results(doc: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return path


def load_results(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def profile_cell(workload: str, mode: str, instructions: int,
                 warmup: int, top: int = 25) -> str:
    """cProfile one cell; returns the formatted top-N report."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    _time_cell(workload, MODES[mode], instructions, warmup)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("tottime").print_stats(top)
    return out.getvalue()
