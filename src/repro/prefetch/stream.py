"""POWER4-style stream prefetcher (Table 1: 32 streams, distance 32,
degree 2, prefetch into LLC) with Feedback-Directed Prefetching throttling
[Srinath et al., HPCA'07].

A stream entry trains on LLC demand-miss line addresses.  Once two misses
establish a direction, the stream becomes active; every demand access that
advances the stream issues ``degree`` prefetches, staying at most
``distance`` lines ahead of the demand stream.  FDP measures prefetch
accuracy over fixed-size intervals of issued prefetches and scales
degree/distance up or down.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PrefetcherConfig


@dataclass
class _Stream:
    last_line: int          # most recent demand line seen by this stream
    direction: int          # +1 / -1, 0 while training
    confidence: int         # training hits
    next_prefetch: int      # next line to prefetch
    active: bool = False
    lru: int = 0
    core: int = 0           # training core: streams never match cross-core


class PrefetcherStats:
    __slots__ = ("issued", "useful", "evicted_unused", "late",
                 "throttle_ups", "throttle_downs")

    def __init__(self) -> None:
        self.issued = 0
        self.useful = 0          # prefetched lines later hit by demand
        self.evicted_unused = 0  # prefetched lines evicted untouched
        self.late = 0            # demand arrived while the fill was in flight
        self.throttle_ups = 0
        self.throttle_downs = 0

    @property
    def accuracy(self) -> float:
        resolved = self.useful + self.evicted_unused
        return self.useful / resolved if resolved else 1.0


class StreamPrefetcher:
    """The stream engine.  The cache hierarchy calls :meth:`on_demand_access`
    for every LLC demand access and issues the returned line prefetches."""

    # FDP aggressiveness ladder: (degree, distance) pairs.
    _LADDER = ((1, 8), (1, 16), (2, 32), (4, 48), (4, 64))

    def __init__(self, config: PrefetcherConfig) -> None:
        self.config = config
        self.streams: list[_Stream] = []
        self.stats = PrefetcherStats()
        self._lru_clock = 0
        # Start at the Table 1 operating point (degree 2, distance 32).
        self._level = 2 if config.fdp_enabled else self._ladder_index_of_config()
        self._interval_issued = 0
        self._interval_useful = 0
        self._interval_unused = 0

    def _ladder_index_of_config(self) -> int:
        for i, (deg, dist) in enumerate(self._LADDER):
            if deg == self.config.degree and dist == self.config.distance:
                return i
        return 2

    @property
    def degree(self) -> int:
        if self.config.fdp_enabled:
            return self._LADDER[self._level][0]
        return self.config.degree

    @property
    def distance(self) -> int:
        if self.config.fdp_enabled:
            return self._LADDER[self._level][1]
        return self.config.distance

    # -- training / issue --------------------------------------------------------

    def _find_stream(self, line: int, core: int = 0) -> _Stream | None:
        window = max(self.distance, 16)
        best = None
        for stream in self.streams:
            if stream.core != core:
                # Streams are per-core: interleaved access patterns from
                # different cores must not alias into one stream (and on
                # the single-core path every stream has core 0).
                continue
            if stream.active:
                ahead = (line - stream.last_line) * stream.direction
                if 0 <= ahead <= window:
                    best = stream
                    break
            else:
                if abs(line - stream.last_line) <= self.config.train_threshold + 2:
                    best = stream
                    break
        return best

    def _allocate(self, line: int, core: int = 0) -> _Stream:
        self._lru_clock += 1
        if len(self.streams) < self.config.num_streams:
            stream = _Stream(line, 0, 0, line, lru=self._lru_clock, core=core)
            self.streams.append(stream)
            return stream
        victim = min(self.streams, key=lambda s: s.lru)
        victim.last_line = line
        victim.direction = 0
        victim.confidence = 0
        victim.next_prefetch = line
        victim.active = False
        victim.lru = self._lru_clock
        victim.core = core
        return victim

    def on_demand_access(self, line: int, hit: bool,
                         core: int = 0) -> list[int]:
        """Observe one LLC demand access; return line addresses to prefetch."""
        self._lru_clock += 1
        stream = self._find_stream(line, core)
        if stream is None:
            if not hit:
                self._allocate(line, core)
            return []
        stream.lru = self._lru_clock

        if not stream.active:
            delta = line - stream.last_line
            if delta == 0:
                return []
            direction = 1 if delta > 0 else -1
            if stream.direction == direction:
                stream.confidence += 1
            else:
                stream.direction = direction
                stream.confidence = 1
            stream.last_line = line
            if stream.confidence >= self.config.train_threshold:
                stream.active = True
                stream.next_prefetch = line + direction
            else:
                return []

        # Active stream: advance and issue up to ``degree`` prefetches,
        # bounded by the ``distance`` window ahead of the demand pointer.
        if (line - stream.last_line) * stream.direction > 0:
            stream.last_line = line
        prefetches: list[int] = []
        limit = stream.last_line + stream.direction * self.distance
        for _ in range(self.degree):
            nxt = stream.next_prefetch
            if (limit - nxt) * stream.direction < 0:
                break
            prefetches.append(nxt)
            stream.next_prefetch = nxt + stream.direction
        if prefetches:
            self.record_issued(len(prefetches))
        return prefetches

    # -- warm-state snapshots ----------------------------------------------------

    def snapshot(self) -> tuple:
        """Complete engine state: every stream entry (in table order),
        the LRU clock, the FDP ladder level and window counters, and the
        stats — plain ints/bools, so it pickles and digests."""
        st = self.stats
        return (
            tuple((s.last_line, s.direction, s.confidence, s.next_prefetch,
                   s.active, s.lru, s.core)
                  for s in self.streams),
            self._lru_clock,
            self._level,
            (self._interval_issued, self._interval_useful,
             self._interval_unused),
            (st.issued, st.useful, st.evicted_unused, st.late,
             st.throttle_ups, st.throttle_downs),
        )

    # -- FDP feedback ------------------------------------------------------------

    def record_issued(self, count: int) -> None:
        self.stats.issued += count
        self._interval_issued += count
        if (self.config.fdp_enabled
                and self._interval_issued >= self.config.fdp_interval):
            self._feedback()

    def record_useful(self, late: bool = False) -> None:
        self.stats.useful += 1
        self._interval_useful += 1
        if late:
            self.stats.late += 1

    def record_unused_eviction(self) -> None:
        self.stats.evicted_unused += 1
        self._interval_unused += 1

    def interval_snapshot(self) -> tuple[int, int, int]:
        """Current FDP window counters ``(issued, useful, unused)`` —
        read by the observability layer around a feedback evaluation."""
        return (self._interval_issued, self._interval_useful,
                self._interval_unused)

    def _feedback(self) -> None:
        resolved = self._interval_useful + self._interval_unused
        if resolved < max(4, self.config.fdp_interval // 8):
            # Not enough resolved prefetches to judge: hold steady and
            # let the window keep accumulating.  A feedback window only
            # closes when BOTH enough prefetches were issued AND enough
            # resolved — resetting any single counter here would make
            # the next accuracy reading mix prefetches from different
            # windows.
            return
        accuracy = self._interval_useful / resolved
        if accuracy >= self.config.fdp_high_accuracy:
            if self._level < len(self._LADDER) - 1:
                self._level += 1
                self.stats.throttle_ups += 1
        elif accuracy < self.config.fdp_low_accuracy:
            if self._level > 0:
                self._level -= 1
                self.stats.throttle_downs += 1
        self._interval_issued = 0
        self._interval_useful = 0
        self._interval_unused = 0
