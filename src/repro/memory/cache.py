"""Parametric set-associative write-back cache with in-fill (MSHR) tracking.

Timing model: an access at cycle ``t`` to a line whose fill is still in
flight (``ready_cycle > t``) completes when the fill does — this is the
MSHR merge path, so concurrent misses to one line collapse into a single
memory request.  Tags are updated at request time; the ``ready_cycle``
carried by each line delays use until the data has actually arrived.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..config import CacheConfig


class CacheLine:
    """State of one resident (or in-fill) cache line."""

    __slots__ = ("ready_cycle", "dirty", "prefetched", "referenced")

    def __init__(self, ready_cycle: int, prefetched: bool = False) -> None:
        self.ready_cycle = ready_cycle
        self.dirty = False
        self.prefetched = prefetched   # brought in by the prefetcher ...
        self.referenced = False        # ... and not yet used by a demand access


class CacheStats:
    """Hit/miss counters for one cache level."""

    __slots__ = ("hits", "misses", "fill_hits", "evictions", "writebacks",
                 "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fill_hits = 0      # hit on a line whose fill was in flight
        self.evictions = 0
        self.writebacks = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.fill_hits


class Cache:
    """One cache level.  Replacement is true LRU within a set."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_bytes = config.line_bytes
        self.num_sets = config.size_bytes // (config.assoc * config.line_bytes)
        if self.num_sets < 1:
            raise ValueError(f"{config.name}: zero sets")
        self.assoc = config.assoc
        self.latency = config.latency
        # One OrderedDict per set, keyed by line address (LRU at the front).
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # MRU fast path: the last line that reached the tail of its set via
        # a touching lookup or a fill.  While it holds, a repeat access can
        # skip both the set indexing and the (no-op) ``move_to_end``.  The
        # invariant is maintained by updating it on every touch/fill and
        # clearing it when the tracked line is invalidated or evicted; a
        # fill into any set replaces it with the filled line, so a stale
        # "no longer at tail" key can never survive.
        self._mru_key = -1
        self._mru_line: Optional[CacheLine] = None
        self.stats = CacheStats()

    def _set_for(self, line_addr: int) -> OrderedDict[int, CacheLine]:
        return self._sets[line_addr % self.num_sets]

    # -- lookups --------------------------------------------------------------

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the line if resident or in fill, else ``None``.

        Does not update hit/miss statistics; callers classify the access.
        """
        if line_addr == self._mru_key:
            # Already at the tail of its set: move_to_end would be a no-op.
            return self._mru_line
        cache_set = self._sets[line_addr % self.num_sets]
        line = cache_set.get(line_addr)
        if line is not None and touch:
            cache_set.move_to_end(line_addr)
            self._mru_key = line_addr
            self._mru_line = line
        return line

    def probe(self, line_addr: int) -> bool:
        """Non-intrusive presence check (no LRU update, no stats)."""
        if line_addr == self._mru_key:
            return True
        return line_addr in self._sets[line_addr % self.num_sets]

    # -- fills / evictions ------------------------------------------------------

    def fill(
        self, line_addr: int, ready_cycle: int, prefetched: bool = False
    ) -> Optional[tuple[int, CacheLine]]:
        """Allocate a line (tag now, data at ``ready_cycle``).

        Returns the evicted ``(line_addr, CacheLine)`` if a victim was
        displaced, else ``None``; the owner of the level settles the
        victim (the LLC's: :meth:`SharedLLC.fill
        <repro.memory.shared.SharedLLC.fill>`).  Filling a line that is
        already present just lowers its ready time (fill merge).
        """
        if line_addr == self._mru_key:
            # Fill merge on the MRU line: already at the tail of its set.
            existing = self._mru_line
            if existing.ready_cycle > ready_cycle:
                existing.ready_cycle = ready_cycle
            return None
        cache_set = self._sets[line_addr % self.num_sets]
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.ready_cycle = min(existing.ready_cycle, ready_cycle)
            cache_set.move_to_end(line_addr)
            self._mru_key = line_addr
            self._mru_line = existing
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim_addr, victim_line = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim_line.dirty:
                self.stats.writebacks += 1
            if victim_addr == self._mru_key:
                self._mru_key = -1
                self._mru_line = None
            victim = (victim_addr, victim_line)
        line = CacheLine(ready_cycle, prefetched=prefetched)
        cache_set[line_addr] = line
        self._mru_key = line_addr
        self._mru_line = line
        return victim

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line (back-invalidation for inclusion); returns it."""
        cache_set = self._set_for(line_addr)
        line = cache_set.pop(line_addr, None)
        if line is not None:
            self.stats.invalidations += 1
            if line_addr == self._mru_key:
                self._mru_key = -1
                self._mru_line = None
        return line

    def mark_dirty(self, line_addr: int) -> None:
        line = self.lookup(line_addr, touch=False)
        if line is not None:
            line.dirty = True

    # -- warm-state snapshots -----------------------------------------------------

    def snapshot(self) -> tuple:
        """Complete array state: per-set line lists in LRU order (LRU
        first), the MRU fast-path key, and the stats counters.

        The format is position-independent data (ints/bools only), so it
        pickles, digests, and compares across processes.
        """
        st = self.stats
        return (
            tuple(
                tuple((addr, ln.ready_cycle, ln.dirty, ln.prefetched,
                       ln.referenced)
                      for addr, ln in cache_set.items())
                for cache_set in self._sets
            ),
            self._mru_key,
            (st.hits, st.misses, st.fill_hits, st.evictions, st.writebacks,
             st.invalidations),
        )
