"""Two-tier execution engine: sampled detailed windows over a functional
fast-forward stream.

The detailed :class:`~repro.core.processor.Processor` is exact but costs
microseconds of host time per simulated instruction; the functional
interpreter costs a fraction of that and still produces every
architectural side effect the detailed model needs warmed (cache
contents, branch-predictor state, registers, memory).  Fixed-stride
SimPoint/SMARTS-style sampling alternates the two: each ``stride``-long
segment of the instruction stream opens with a detailed burst and the
rest is batch-interpreted (``Processor.fast_forward``).

Each detailed burst is split in two, SMARTS-style:

* a **ramp** (``ramp_instructions``) that refills the pipeline, re-trains
  the stream prefetcher and restarts the runahead state machine after
  the functional gap — detailed, but excluded from the rate estimates;
* a **window** (``window_instructions``) whose cycle/commit/LLC-miss
  deltas feed the sampled IPC and MPKI estimates.

Runahead share is the exception: runahead episodes are long relative to
a window and phase-lock to the burst boundary (the first post-gap miss
opens an episode inside the ramp), so a measured-window share is badly
biased in both directions.  The share estimate therefore uses the
cumulative mode-cycle counters over *all* detailed cycles, ramp
included — empirically the tightest estimator (see
``repro.fastpath.validate`` for the calibrated bounds).

The handoff in each direction goes through the architectural state:

* detailed -> fast: ``Processor.sync_architectural`` squashes the
  in-flight burst (uncommitted stores live only in the store queue, so
  memory holds exactly the committed stores) and the interpreter replays
  from the oldest uncommitted instruction;
* fast -> detailed: the interpreter's registers are loaded into rename,
  fetch is redirected to its PC, and the next burst starts against the
  caches/predictor the fast tier just warmed.

Because the warm paths never touch hit/miss statistics, the processor's
:class:`~repro.core.stats.SimStats` after a two-tier run describes the
detailed bursts only.  The per-run sampling metadata (instruction and
timing split, measured-window estimates) is returned separately so the
stats object stays bit-compatible with the detailed tier.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from ..config import SamplingConfig


def run_two_tier(
    processor,
    plan: SamplingConfig,
    max_instructions: int,
    max_cycles: Optional[int] = None,
    ff_lane: Optional[str] = None,
) -> dict[str, Any]:
    """Advance ``max_instructions`` through alternating detailed bursts
    and functional fast-forward gaps; returns the sampling metadata.

    The processor is expected to be warmed up already (or fresh); its
    ``stats`` afterwards describe the detailed bursts.  Host time spent
    in each tier is measured separately (``detailed_seconds``,
    ``fast_forward_seconds``).  ``ff_lane`` selects the fast-forward
    lane (``"interp"``/``"jit"``) per gap; ``None`` defers to the
    processor's configured default.  Block-translation host time (jit
    lane) lands inside ``fast_forward_seconds`` and is also broken out
    as ``translate_seconds``.
    """
    plan.validate()
    ramp = plan.ramp_instructions
    window = plan.window_instructions
    stride = plan.stride_instructions
    perf = time.perf_counter
    hierarchy = processor.hierarchy

    advanced = 0
    detailed_insts = 0
    ff_insts = 0
    windows = 0
    detailed_seconds = 0.0
    ff_seconds = 0.0
    # Measured-window accumulators (ramp excluded).
    m_cycles = 0
    m_insts = 0
    m_misses = 0
    while advanced < max_instructions and not processor.halted:
        t0 = perf()
        burst = min(ramp, max_instructions - advanced)
        before = processor.committed
        processor.run(burst, max_cycles=max_cycles)
        advanced += processor.committed - before
        detailed_insts += processor.committed - before

        c0 = processor.now
        i0 = processor.committed
        miss0 = hierarchy.demand_llc_misses()
        burst = min(window, max_instructions - advanced)
        processor.run(burst, max_cycles=max_cycles)
        done = processor.committed - i0
        advanced += done
        detailed_insts += done
        m_cycles += processor.now - c0
        m_insts += done
        m_misses += hierarchy.demand_llc_misses() - miss0
        detailed_seconds += perf() - t0
        windows += 1
        if done == 0:
            break  # max_cycles exhausted (or halted on entry)

        gap = min(stride - ramp - window, max_instructions - advanced)
        if gap <= 0 or processor.halted:
            continue
        t1 = perf()
        skipped = processor.fast_forward(gap, lane=ff_lane)
        ff_seconds += perf() - t1
        ff_insts += skipped
        advanced += skipped
        if skipped < gap:
            break  # hit HALT inside the gap

    stats = processor.stats
    ipc_est = m_insts / m_cycles if m_cycles else 0.0
    share_cycles = stats.cycles_in_rab + stats.cycles_in_traditional
    total_detailed_cycles = processor.now
    # getattr: tolerate minimal processor stand-ins (tests) that predate
    # the lane attributes.
    from .blockjit import resolve_ff_lane
    return {
        "tier": plan.tier,
        "ff_lane": resolve_ff_lane(ff_lane,
                                   getattr(processor, "ff_lane", None)),
        "translate_seconds": getattr(processor, "ff_translate_seconds", 0.0),
        "ramp_instructions": ramp,
        "window_instructions": window,
        "stride_instructions": stride,
        "windows": windows,
        "instructions_advanced": advanced,
        "detailed_instructions": detailed_insts,
        "fast_forward_instructions": ff_insts,
        "detailed_fraction": (
            detailed_insts / advanced if advanced else 0.0),
        "detailed_seconds": detailed_seconds,
        "fast_forward_seconds": ff_seconds,
        "estimated_total_cycles": (
            round(advanced / ipc_est) if ipc_est else total_detailed_cycles),
        "estimates": {
            "ipc": ipc_est,
            "mpki": 1000.0 * m_misses / m_insts if m_insts else 0.0,
            "runahead_share": (
                share_cycles / total_detailed_cycles
                if total_detailed_cycles else 0.0),
        },
    }
