"""Per-cycle occupancy sampling of the core's queuing structures.

The simulator's main loop crosses provably idle stretches in one jump, so
a "per-cycle" sampler cannot naively fire every ``stride`` host calls:
``Processor.now`` may jump.  The sampler instead fixes a grid of stride
boundaries at the first cycle it observes, and records one sample per
boundary the clock crosses, stamped with the boundary cycle — exact,
because the core's structures are constant between two steps, and the
MSHR occupancy is read at the boundary cycle itself.

Samples feed a CSV (one row per sample) and the Perfetto exporter's
counter tracks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional

SAMPLE_FIELDS = (
    "cycle", "mode", "rob", "rs", "load_queue", "store_queue",
    "mshr", "decode_queue", "ready",
)


@dataclass(frozen=True, slots=True)
class OccupancySample:
    """Fill levels of the core's structures at one cycle."""

    cycle: int
    mode: str           # "normal" | "runahead" | "rab"
    rob: int
    rs: int
    load_queue: int
    store_queue: int
    mshr: int
    decode_queue: int
    ready: int

    def row(self) -> tuple:
        return (self.cycle, self.mode, self.rob, self.rs, self.load_queue,
                self.store_queue, self.mshr, self.decode_queue, self.ready)


class OccupancySampler:
    """Collects :class:`OccupancySample` rows at a cycle stride."""

    def __init__(self, stride: int = 64) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self.samples: list[OccupancySample] = []
        self._next_cycle: Optional[int] = None   # grid starts at 1st call

    def on_cycle(self, proc) -> None:
        """Cycle hook: one sample per stride boundary the clock crossed
        since the previous call."""
        now = proc.now
        cycle = self._next_cycle
        if cycle is None:
            cycle = now
        elif now < cycle:
            return
        mode = proc.mode
        rob = len(proc.rob)
        rs = proc.rs_used
        load_queue = proc.load_queue_used
        store_queue = len(proc.store_queue)
        decode_queue = len(proc.decode_queue)
        ready = len(proc.ready)
        mshr_occupancy = proc.hierarchy.mshr_occupancy
        while cycle <= now:
            self.samples.append(OccupancySample(
                cycle=cycle, mode=mode, rob=rob, rs=rs,
                load_queue=load_queue, store_queue=store_queue,
                mshr=mshr_occupancy(cycle), decode_queue=decode_queue,
                ready=ready,
            ))
            cycle += self.stride
        self._next_cycle = cycle

    # -- export ----------------------------------------------------------------

    def write_csv(self, target: str | Path | IO[str]) -> None:
        if hasattr(target, "write"):
            self._write(target)
            return
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            self._write(handle)

    def _write(self, handle: IO[str]) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SAMPLE_FIELDS)
        for sample in self.samples:
            writer.writerow(sample.row())
