"""The LLC/DRAM complex below each core's L1s.

:class:`SharedLLC` owns everything below the L1s: the (inclusive) LLC
array, the memory controller + DRAM, the stream prefetcher, and the LLC
MSHR pool.  A :class:`~repro.memory.hierarchy.MemoryHierarchy` calls it
directly with two methods: :meth:`SharedLLC.accept_at` (the MSHR
admission check, loads only) and :meth:`SharedLLC.serve`, which returns
the :class:`AccessResult` the load hands back to the core.  A
single-core hierarchy constructs a private instance, so the legacy path
is one core connected to its own complex — same arithmetic, same call
order, bit-identical stats.  ``repro.multicore`` instead builds one
instance and connects N hierarchies to it; the complex then additionally
keeps per-core accounting (LLC/DRAM traffic, MSHR occupancy and
contention) and the cross-core interference stats the shared scenarios
are about:

* **cross-core evictions** — a fill from core A evicting a line that
  core B inserted (inclusion then also back-invalidates B's L1s);
* **inter-core prefetch pollution** — the subset of those where the
  evictor was a prefetch, plus *pollution misses*: the owner re-missing
  on a line another core pushed out (tracked over a bounded window of
  recent cross-evicted lines);
* **MSHR contention** — rejections that only happened because other
  cores held the shared pool (the rejected core's own occupancy was
  under its fair share), plus a per-core cap on speculative
  (runahead/prefetch) occupancy so one core's runahead flood cannot
  starve its neighbours — the fairness mechanism tests/test_multicore.py
  pins down.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import NamedTuple, Optional

from ..config import SystemConfig
from ..prefetch import StreamPrefetcher
from .cache import Cache
from .controller import MemoryController

__all__ = ["AccessResult", "CoreAccount", "SharedHierarchyError",
           "SharedLLC", "SharedStats"]

# Taxonomy of core-side request kinds; used for DRAM/LLC accounting.
CORE_KINDS = ("demand", "store", "runahead", "wrongpath")


class AccessResult(NamedTuple):
    """Outcome of one access, from whichever level served it."""

    done_cycle: int       # completion cycle, or the cycle to retry
    level: str            # "L1", "LLC", "DRAM", or "RETRY" (MSHRs full)
    merged: bool = False  # satisfied by an in-flight fill (MSHR merge)


class SharedHierarchyError(RuntimeError):
    """An operation assumed sole ownership of memory state that is
    actually shared with other cores (snapshots, invariants)."""


class CoreAccount:
    """Per-core slice of the shared complex's accounting.

    ``llc_misses``/``llc_accesses``/``ifetch_llc_misses`` replace the
    counters the hierarchy used to own, so per-core MPKI and Fig. 16
    style traffic splits survive sharing unchanged.  The remaining
    fields are only maintained when more than one core is connected.
    """

    __slots__ = (
        "core", "llc_misses", "llc_accesses", "ifetch_llc_misses",
        "accesses", "hits", "fill_hits", "misses",
        "dram_reads", "dram_writes", "dram_by_kind",
        "prefetches_issued", "mshr_contended", "cross_evictions",
        "pollution_misses",
    )

    def __init__(self, core: int) -> None:
        self.core = core
        self.llc_misses: dict[str, int] = {k: 0 for k in CORE_KINDS}
        self.llc_accesses: dict[str, int] = {k: 0 for k in CORE_KINDS}
        self.ifetch_llc_misses = 0
        self.accesses = 0
        self.hits = 0
        self.fill_hits = 0
        self.misses = 0
        self.dram_reads = 0
        self.dram_writes = 0
        self.dram_by_kind: dict[str, int] = {}
        self.prefetches_issued = 0
        self.mshr_contended = 0
        self.cross_evictions = 0      # this core evicted another's line
        self.pollution_misses = 0     # this core re-missed a stolen line

    def to_dict(self) -> dict:
        return {
            "core": self.core,
            "llc_misses": dict(self.llc_misses),
            "llc_accesses": dict(self.llc_accesses),
            "ifetch_llc_misses": self.ifetch_llc_misses,
            "accesses": self.accesses,
            "hits": self.hits,
            "fill_hits": self.fill_hits,
            "misses": self.misses,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "dram_by_kind": dict(self.dram_by_kind),
            "prefetches_issued": self.prefetches_issued,
            "mshr_contended": self.mshr_contended,
            "cross_evictions": self.cross_evictions,
            "pollution_misses": self.pollution_misses,
        }


class SharedStats:
    """Shared-level interference counters (all cores together)."""

    __slots__ = ("cross_core_evictions", "prefetch_pollution_evictions",
                 "pollution_misses", "mshr_contended_rejections",
                 "spec_cap_rejections")

    def __init__(self) -> None:
        self.cross_core_evictions = 0
        self.prefetch_pollution_evictions = 0
        self.pollution_misses = 0
        self.mshr_contended_rejections = 0
        self.spec_cap_rejections = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class SharedLLC:
    """LLC + MSHRs + memory controller + prefetcher, N-core connectable."""

    # Speculative requests (runahead, prefetch) may not take the last few
    # MSHRs: demand misses must never queue behind a speculative flood.
    _SPECULATIVE_RESERVE = 4

    #: Bounded memory of recently cross-evicted lines (line -> owner),
    #: consulted on later misses to count pollution misses.
    _VICTIM_WINDOW = 8192

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.llc = Cache(config.llc)
        self.controller = MemoryController(config.dram)
        self.prefetcher: Optional[StreamPrefetcher] = (
            StreamPrefetcher(config.prefetcher)
            if config.prefetcher.enabled
            else None
        )
        self.llc.eviction_hook = self._on_evict
        # Outstanding LLC fills (MSHR occupancy): completion-cycle heap.
        self._fills: list[int] = []
        self._mshr_limit = config.llc.mshrs
        # Connected cores, in connect() order (core id == index).
        self._accounts: list[CoreAccount] = []
        self._l1_pairs: list[tuple[Cache, Cache]] = []
        self._hiers: list = []
        # True once a second core connects: per-core accounting and the
        # multi-core-only state below are maintained from then on.
        self._mc = False
        # Multi-core-only state (untouched on the single-core path).
        self.stats = SharedStats()
        self._core_fills: list[list[int]] = []   # per-core, all kinds
        self._spec_fills: list[list[int]] = []   # per-core, runahead+prefetch
        self._line_owner: dict[int, int] = {}
        self._victims: "OrderedDict[int, int]" = OrderedDict()
        self._active_core = 0
        self._active_kind = "demand"

    # -- wiring --------------------------------------------------------------

    @property
    def is_shared(self) -> bool:
        """True when sole-ownership assumptions (snapshots,
        invariant sweeps) no longer hold for any single connected core."""
        return self._mc

    def connect(self, hierarchy) -> tuple[int, CoreAccount]:
        """Attach one per-core hierarchy; returns (core_id, account).

        The hierarchy's L1s register for inclusive back-invalidation;
        requests from the returned core id are accounted to the
        returned :class:`CoreAccount`.
        """
        core = len(self._accounts)
        acct = CoreAccount(core)
        self._accounts.append(acct)
        self._l1_pairs.append((hierarchy.l1d, hierarchy.l1i))
        self._hiers.append(hierarchy)
        self._core_fills.append([])
        self._spec_fills.append([])
        self._mc = core > 0
        return core, acct

    # -- inclusion / interference hook ---------------------------------------

    def _on_evict(self, line_addr: int, line) -> None:
        # Inclusive LLC: back-invalidate every connected core's L1s.
        for l1d, l1i in self._l1_pairs:
            l1d.invalidate(line_addr)
            l1i.invalidate(line_addr)
        if line.dirty:
            # Writeback traffic occupies DRAM but nothing waits on it.
            self.controller.request(line_addr, 0, is_write=True,
                                    kind="writeback")
        if (self.prefetcher is not None and line.prefetched
                and not line.referenced):
            self.prefetcher.record_unused_eviction()
        if self._mc:
            evictor = self._active_core
            if line.dirty:
                self._accounts[evictor].dram_writes += 1
            owner = self._line_owner.pop(line_addr, -1)
            if owner >= 0 and owner != evictor:
                st = self.stats
                st.cross_core_evictions += 1
                self._accounts[evictor].cross_evictions += 1
                if self._active_kind == "prefetch":
                    st.prefetch_pollution_evictions += 1
                victims = self._victims
                victims[line_addr] = owner
                if len(victims) > self._VICTIM_WINDOW:
                    victims.popitem(last=False)

    def _fdp_demand_touch(self, line, now: int) -> None:
        if (self.prefetcher is not None and line.prefetched
                and not line.referenced):
            line.referenced = True
            self.prefetcher.record_useful(late=line.ready_cycle > now)

    # -- MSHR pool -----------------------------------------------------------

    def _mshr_block(self, now: int, kind: str, core: int = 0) -> int:
        """0 if an LLC MSHR is free at ``now``, else the cycle to retry.

        Multi-core sharing adds a per-core speculative cap (an equal
        split of the non-reserved pool) and classifies pool-full
        rejections as *contended* when the rejected core's own occupancy
        was below its fair share of the pool.
        """
        fills = self._fills
        while fills and fills[0] <= now:
            heapq.heappop(fills)
        limit = self._mshr_limit
        speculative = kind in ("runahead", "prefetch")
        if speculative:
            limit -= self._SPECULATIVE_RESERVE
        if self._mc:
            cores = len(self._accounts)
            if speculative:
                # Fairness cap: one core's runahead/prefetch flood may
                # not occupy more than its share of the speculative pool.
                spec = self._spec_fills[core]
                while spec and spec[0] <= now:
                    heapq.heappop(spec)
                quota = max(1, limit // cores)
                if len(spec) >= quota:
                    self.stats.spec_cap_rejections += 1
                    return spec[0] if spec else now + 1
            if len(fills) >= limit:
                own = self._core_fills[core]
                while own and own[0] <= now:
                    heapq.heappop(own)
                if len(own) < max(1, self._mshr_limit // cores):
                    self._accounts[core].mshr_contended += 1
                    self.stats.mshr_contended_rejections += 1
                return fills[0] if fills else now + 1
            return 0
        if len(fills) < limit:
            return 0
        if not fills:
            # Degenerate config: fewer MSHRs than the speculative
            # reserve, so no slot ever frees for this kind — bounce a
            # cycle at a time (prefetches are simply dropped; runahead
            # loads retry until the interval ends).
            return now + 1
        # Conservative retry point: the earliest completion.  The caller
        # may retry while still over the limit and be bounced again; each
        # bounce moves it forward, so progress is guaranteed.
        return fills[0]

    def _register_fill(self, done: int, core: int = 0,
                       speculative: bool = False) -> None:
        heapq.heappush(self._fills, done)
        if self._mc:
            heapq.heappush(self._core_fills[core], done)
            if speculative:
                heapq.heappush(self._spec_fills[core], done)

    def mshr_occupancy(self, now: int) -> int:
        """LLC MSHRs in flight at ``now``.  Non-mutating (unlike
        ``_mshr_block``) so observers can sample it anywhere without
        perturbing the heap-drain schedule."""
        return sum(1 for done in self._fills if done > now)

    # -- core-side access --------------------------------------------------

    def accept_at(self, line_addr: int, now: int, kind: str,
                  core: int) -> int:
        """0 to admit a load issued at ``now``, else the cycle to retry
        (MSHR backpressure).  A line already present or in flight in the
        LLC merges without a new MSHR.  Only loads are gated: stores
        (nothing waits on them) and instruction fetches go straight to
        :meth:`serve`.
        """
        if self.llc.probe(line_addr):
            return 0
        return self._mshr_block(now, kind, core)

    def serve(self, line_addr: int, cycle: int, kind: str,
              core: int) -> AccessResult:
        """Resolve an admitted request reaching the LLC at ``cycle``."""
        if kind == "ifetch":
            return self._serve_ifetch(line_addr, cycle, core)
        acct = self._accounts[core]
        if self._mc:
            self._active_core = core
            self._active_kind = kind
        llc_latency = self.llc.latency
        acct.llc_accesses[kind] = acct.llc_accesses.get(kind, 0) + 1
        line = self.llc.lookup(line_addr)
        if line is not None:
            self._fdp_demand_touch(line, cycle)
            if line.ready_cycle <= cycle:
                self.llc.stats.hits += 1
                done = cycle + llc_latency
                level, merged = "LLC", False
                if self._mc:
                    acct.accesses += 1
                    acct.hits += 1
            else:
                self.llc.stats.fill_hits += 1
                done = max(line.ready_cycle, cycle + llc_latency)
                # Merged with an outstanding DRAM fill: the data still
                # comes from DRAM, which matters for runahead entry.
                level, merged = "DRAM", True
                if self._mc:
                    acct.accesses += 1
                    acct.fill_hits += 1
        else:
            self.llc.stats.misses += 1
            acct.llc_misses[kind] = acct.llc_misses.get(kind, 0) + 1
            done = self.controller.request(line_addr, cycle + llc_latency,
                                           kind=kind)
            self._register_fill(done, core,
                                speculative=kind in ("runahead", "prefetch"))
            self.llc.fill(line_addr, done)
            level, merged = "DRAM", False
            if self._mc:
                acct.accesses += 1
                acct.misses += 1
                acct.dram_reads += 1
                acct.dram_by_kind[kind] = acct.dram_by_kind.get(kind, 0) + 1
                self._line_owner[line_addr] = core
                owner = self._victims.pop(line_addr, None)
                if owner == core:
                    acct.pollution_misses += 1
                    self.stats.pollution_misses += 1
        if self.prefetcher is not None:
            hits = line is not None
            # Route through the requesting hierarchy so its per-core
            # observability shadow (Tracer) sees the issue.
            self._hiers[core]._issue_prefetches(
                self.prefetcher.on_demand_access(line_addr, hits, core), cycle
            )
        return AccessResult(done, level, merged)

    def _serve_ifetch(self, line_addr: int, t: int,
                      core: int) -> AccessResult:
        """LLC side of an instruction fetch: no MSHR allocation, no
        prefetcher training — exactly the legacy ifetch arithmetic."""
        acct = self._accounts[core]
        if self._mc:
            self._active_core = core
            self._active_kind = "ifetch"
        llc_line = self.llc.lookup(line_addr)
        if llc_line is not None and llc_line.ready_cycle <= t:
            self.llc.stats.hits += 1
            done = t + self.llc.latency
            if self._mc:
                acct.accesses += 1
                acct.hits += 1
        elif llc_line is not None:
            self.llc.stats.fill_hits += 1
            done = llc_line.ready_cycle
            if self._mc:
                acct.accesses += 1
                acct.fill_hits += 1
        else:
            self.llc.stats.misses += 1
            acct.ifetch_llc_misses += 1
            done = self.controller.request(line_addr, t + self.llc.latency,
                                           kind="ifetch")
            self.llc.fill(line_addr, done)
            if self._mc:
                acct.accesses += 1
                acct.misses += 1
                acct.dram_reads += 1
                acct.dram_by_kind["ifetch"] = (
                    acct.dram_by_kind.get("ifetch", 0) + 1)
                self._line_owner[line_addr] = core
        return AccessResult(done, "DRAM" if llc_line is None else "LLC")

    # -- prefetch issue ------------------------------------------------------

    def issue_prefetches(self, lines: list[int], now: int,
                         core: int = 0) -> None:
        for line_addr in lines:
            if self.llc.probe(line_addr):
                continue
            if self._mshr_block(now, "prefetch", core):
                continue  # MSHRs full: drop the prefetch
            done = self.controller.request(line_addr, now, kind="prefetch")
            self._register_fill(done, core, speculative=True)
            if self._mc:
                self._active_core = core
                self._active_kind = "prefetch"
                acct = self._accounts[core]
                acct.prefetches_issued += 1
                acct.dram_reads += 1
                acct.dram_by_kind["prefetch"] = (
                    acct.dram_by_kind.get("prefetch", 0) + 1)
            self.llc.fill(line_addr, done, prefetched=True)
            if self._mc:
                self._line_owner[line_addr] = core

    def reset_interference(self) -> None:
        """Zero the interference counters (but keep line ownership).

        Called between warm-up and the timed run: warm-up is untimed and
        sequential per core, so interference measured there is an
        artifact of the warming order, not of concurrent execution.
        Ownership established by warm fills is kept — a timed eviction of
        another core's warm working set *is* real interference.
        """
        self.stats = SharedStats()
        self._victims.clear()
        for acct in self._accounts:
            acct.mshr_contended = 0
            acct.cross_evictions = 0
            acct.pollution_misses = 0

    # -- reporting -----------------------------------------------------------

    def contention_dict(self) -> dict:
        """Shared-level interference summary (multicore reporting)."""
        d = self.controller.stats
        return {
            "dram": {
                "reads": d.reads,
                "writes": d.writes,
                "row_hits": d.row_hits,
                "row_misses": d.row_misses,
                "bank_conflicts": d.row_conflicts,
                "activates": d.activates,
                "busiest_wait": d.busiest_wait,
                "by_kind": dict(d.by_kind),
            },
            "llc": {
                "accesses": self.llc.stats.accesses,
                "hits": self.llc.stats.hits,
                "fill_hits": self.llc.stats.fill_hits,
                "misses": self.llc.stats.misses,
                "evictions": self.llc.stats.evictions,
                "writebacks": self.llc.stats.writebacks,
            },
            "contention": self.stats.to_dict(),
            "per_core": [acct.to_dict() for acct in self._accounts],
        }
