#!/usr/bin/env python3
"""Visualize runahead intervals on a timeline (the hybrid policy live).

Runs one workload under the hybrid policy with a commit trace and an
event tracer attached, and renders the ``runahead_exit`` events the
tracer records as an ASCII timeline: ``B`` = runahead-buffer mode
(front-end clock-gated), ``T`` = traditional runahead, ``.`` = normal
execution.
omnetpp is the interesting default — its over-long chains make the
hybrid fall back to traditional runahead (all ``T``), while mcf runs
almost entirely in buffer mode (all ``B``).

Usage::

    python examples/interval_timeline.py [workload] [instructions]
"""

import sys

from repro import RunaheadMode, make_config
from repro.core import CommitTrace, Processor, render_interval_timeline
from repro.obs import Tracer
from repro.workloads import build_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "omnetpp"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 5_000

    workload = build_workload(name)
    processor = Processor(workload.program,
                          make_config(RunaheadMode.HYBRID),
                          memory=workload.memory)
    trace = CommitTrace(capacity=32)
    processor.commit_hook = trace.on_commit
    processor.warm_up(12_000)
    tracer = Tracer(kinds=["runahead_exit"])
    tracer.attach(processor)   # after warm-up: trace the timed run only
    stats = processor.run(instructions)

    print(f"{name} under the hybrid policy "
          f"(ipc {stats.ipc:.3f}, {stats.runahead_intervals} intervals, "
          f"{100 * stats.hybrid_rab_share:.0f}% of runahead cycles in the "
          "buffer)\n")
    timeline = render_interval_timeline(
        tracer.trace.events("runahead_exit"), stats.cycles)
    # Timeline lane + summary, then at most 10 interval detail lines.
    lines = timeline.split("\n")
    print("\n".join(lines[:3 + 10]))
    if len(lines) > 13:
        print(f"  ... {len(lines) - 13} more intervals")

    print("\nlast committed instructions:")
    print(trace.format(8))


if __name__ == "__main__":
    main()
