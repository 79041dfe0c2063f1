"""Memory controller: the 64-entry memory queue in front of DRAM.

Models queuing delay: when the queue is full, a new request cannot be
accepted until the oldest in-flight request completes.  Occupancy is
tracked with a heap of completion times — exact for requests processed in
arrival order, and orders of magnitude cheaper than per-cycle simulation.
"""

from __future__ import annotations

import heapq

from ..config import DramConfig
from .dram import Dram


class MemoryController:
    """Accepts line requests, applies queueing, forwards to DRAM."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.dram = Dram(config)
        self._inflight: list[int] = []  # heap of completion cycles
        self.queue_full_delays = 0      # requests that waited for a queue slot
        self.total_queue_wait = 0

    def _drain(self, now: int) -> None:
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)

    def occupancy(self, now: int) -> int:
        self._drain(now)
        return len(self._inflight)

    def request(self, line_addr: int, now: int, is_write: bool = False,
                kind: str = "demand") -> int:
        """Issue one line request; returns the completion cycle."""
        self._drain(now)
        start = now + self.config.controller_latency
        if (len(self._inflight) >= self.config.queue_entries
                and kind not in ("demand", "store", "ifetch")):
            # Queue full: the request waits for the oldest entry to finish.
            free_at = heapq.heappop(self._inflight)
            if free_at > start:
                self.queue_full_delays += 1
                self.total_queue_wait += free_at - start
                start = free_at
        done = self.dram.access(line_addr, start, is_write=is_write, kind=kind)
        heapq.heappush(self._inflight, done)
        return done

    # -- warm-state snapshots -------------------------------------------------

    def snapshot(self) -> tuple:
        """Queue + DRAM state (bank rows, bus/bank reservations, stats).
        ``by_kind`` is sorted so the serialized form is canonical."""
        s = self.dram.stats
        return (
            tuple(self._inflight),
            self.queue_full_delays,
            self.total_queue_wait,
            tuple(
                (tuple((b.next_free, b.open_row) for b in ch.banks),
                 ch.bus_free)
                for ch in self.dram.channels
            ),
            (s.reads, s.writes, s.row_hits, s.row_misses, s.row_conflicts,
             s.activates, s.busiest_wait, tuple(sorted(s.by_kind.items()))),
        )

    @property
    def stats(self):
        return self.dram.stats
