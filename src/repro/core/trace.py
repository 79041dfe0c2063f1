"""Execution tracing and ASCII visualization.

Two facilities for studying runs:

* :class:`CommitTrace` — a bounded log of architecturally committed
  instructions (attach via ``Processor.commit_hook``); useful for
  debugging workloads and for differential testing against the
  reference interpreter.
* :func:`render_interval_timeline` — an ASCII timeline of a run's
  runahead intervals (mode, duration, misses generated) from the
  ``runahead_exit`` events a :class:`repro.obs.Tracer` records, the
  quickest way to *see* what a policy is doing.

For structured event traces (typed events, Perfetto/Chrome trace
export, occupancy sampling, the metrics registry) see :mod:`repro.obs`,
which attaches through the same zero-cost hook pattern.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import TraceEvent


@dataclass(frozen=True)
class CommittedOp:
    """One architecturally committed instruction."""

    seq: int
    pc: int
    opcode: str
    cycle: int
    dest_arch: Optional[int]
    value: int
    mem_addr: Optional[int]


class CommitTrace:
    """Bounded in-order log of committed instructions.

    Attach to a processor::

        trace = CommitTrace(capacity=256)
        processor.commit_hook = trace.on_commit
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.entries: deque[CommittedOp] = deque(maxlen=capacity)
        self.total_commits = 0

    def on_commit(self, uop, cycle: int) -> None:
        """Processor commit hook (receives the InFlightUop and cycle)."""
        self.total_commits += 1
        inst = uop.inst
        self.entries.append(CommittedOp(
            seq=uop.seq,
            pc=uop.pc,
            opcode=inst.opcode.name,
            cycle=cycle,
            dest_arch=uop.dest_arch,
            value=uop.value,
            # Only a memory uop has an address (repro.backend.InFlightUop).
            mem_addr=uop.mem_addr if inst.is_mem else None,
        ))

    def __len__(self) -> int:
        return len(self.entries)

    def last(self, n: int = 10) -> list[CommittedOp]:
        return list(self.entries)[-n:]

    def pcs(self) -> list[int]:
        return [op.pc for op in self.entries]

    def format(self, n: int = 20) -> str:
        """Render the most recent ``n`` commits as a table."""
        lines = [f"{'cycle':>8s} {'seq':>7s} {'pc':>5s} {'op':8s} "
                 f"{'dest':>5s} {'value':>18s}"]
        for op in self.last(n):
            dest = f"R{op.dest_arch}" if op.dest_arch is not None else "-"
            lines.append(f"{op.cycle:8d} {op.seq:7d} {op.pc:5d} "
                         f"{op.opcode:8s} {dest:>5s} {op.value:18d}")
        return "\n".join(lines)


def render_interval_timeline(
    exits: Iterable["TraceEvent"],
    total_cycles: int,
    width: int = 72,
) -> str:
    """ASCII timeline of the intervals that ``exits`` (``runahead_exit``
    events) close: ``.`` normal execution, ``T`` traditional runahead,
    ``B`` runahead-buffer mode.  One summary line per interval follows."""
    exits = list(exits)
    if total_cycles <= 0:
        return "(empty run)"
    lane = ["."] * width

    def col(cycle: int) -> int:
        return min(width - 1, cycle * width // total_cycles)

    modes = [event.data["mode"] for event in exits]
    for event, mode in zip(exits, modes):
        mark = "B" if mode == "buffer" else "T"
        for c in range(col(event.data["entry_cycle"]), col(event.cycle) + 1):
            lane[c] = mark

    lines = [
        f"cycles 0..{total_cycles}",
        "".join(lane),
        f"{len(exits)} intervals ({modes.count('buffer')} buffer, "
        f"{modes.count('traditional')} traditional)",
    ]
    for i, event in enumerate(exits):
        d = event.data
        entry = d["entry_cycle"]
        lines.append(
            f"  [{i:3d}] {d['mode']:11s} cycles {entry}..{event.cycle} "
            f"({event.cycle - entry}) misses={d['misses_generated']} "
            f"uops={d['pseudo_retired']}"
            + (" (chain cache)" if d["used_chain_cache"] else "")
        )
    return "\n".join(lines)
