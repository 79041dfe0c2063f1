"""The full cache/memory hierarchy (Table 1).

32 KB L1I + 32 KB L1D (3-cycle), 1 MB inclusive LLC (18-cycle), stream
prefetcher into the LLC, 64-entry memory queue, DDR3 DRAM.  All core-side
requests funnel through :meth:`MemoryHierarchy.load`,
:meth:`MemoryHierarchy.store_commit` and :meth:`MemoryHierarchy.ifetch`.

Structurally the hierarchy is only the *private* half of the machine:
the L1s, whose misses call the LLC/DRAM complex
(:class:`~repro.memory.shared.SharedLLC`) directly.  A load miss asks
:meth:`~repro.memory.shared.SharedLLC.accept_at` for an MSHR and then
returns the :class:`~repro.memory.shared.AccessResult` that
:meth:`~repro.memory.shared.SharedLLC.serve` built.  A hierarchy built
without an explicit ``shared=`` argument constructs a private complex, so
the legacy single-core construction is one core wired to its own LLC —
the request arithmetic lives in the complex but runs in the same order
with the same operands, and the golden grid pins that it is bit-identical.
``repro.multicore`` passes one complex to N hierarchies instead.

Access *kinds* label traffic for the paper's accounting: ``demand`` (and
``store``) are architectural, ``runahead`` are requests issued during any
runahead mode, ``wrongpath`` during branch misspeculation, ``prefetch``
from the stream engine.  Fig. 16 is computed from DRAM-request counts by
kind; MPKI from demand LLC misses.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from .cache import Cache, CacheLine
from .shared import CORE_KINDS, AccessResult, SharedLLC

__all__ = ["CORE_KINDS", "MemoryHierarchy"]


class MemoryHierarchy:
    """One core's L1I/L1D in front of the LLC/DRAM complex."""

    def __init__(self, config: SystemConfig,
                 shared: Optional[SharedLLC] = None) -> None:
        self.config = config
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.shared = SharedLLC(config) if shared is None else shared
        self.core_id, self._acct = self.shared.connect(self)
        # Aliases into the complex.  These are the *same objects* the
        # complex owns, so every historical attribute path — stats
        # readers, tracer shadows on ``controller.request``, the warm
        # fast-forward helpers below — keeps working unchanged.
        self.llc = self.shared.llc
        self.controller = self.shared.controller
        self.prefetcher = self.shared.prefetcher
        # Traffic accounting: per-core dicts owned by the complex's
        # CoreAccount, aliased here.
        self.llc_misses: dict[str, int] = self._acct.llc_misses
        self.llc_accesses: dict[str, int] = self._acct.llc_accesses
        self._line_shift = config.llc.line_bytes.bit_length() - 1
        self.mshr_rejections = 0

    @property
    def is_shared(self) -> bool:
        """True when the LLC/DRAM complex is shared with other cores,
        i.e. this hierarchy is not the sole owner of the memory state
        below its L1s."""
        return self.shared.is_shared

    # -- per-core counters living in the complex's CoreAccount -------------------

    @property
    def ifetch_llc_misses(self) -> int:
        return self._acct.ifetch_llc_misses

    @property
    def _fills(self) -> list[int]:
        return self.shared._fills

    # -- address helpers ---------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    # -- MSHR occupancy -------------------------------------------------------------

    def mshr_occupancy(self, now: int) -> int:
        """LLC MSHRs in flight at ``now`` (non-mutating; see
        :meth:`SharedLLC.mshr_occupancy`)."""
        return self.shared.mshr_occupancy(now)

    # -- prefetch issue -----------------------------------------------------------

    def _issue_prefetches(self, lines: list[int], now: int) -> None:
        # Class-level delegate (never an instance attribute: the zero-
        # cost-observability contract in tests/test_obs.py shadows it
        # per-instance when tracing).  The complex routes prefetch issue
        # back through this seam so per-core traces see their own issues.
        self.shared.issue_prefetches(lines, now, self.core_id)

    # -- core-side interface --------------------------------------------------------

    def load(self, addr: int, now: int, kind: str = "demand") -> AccessResult:
        """A data load; returns completion cycle and serving level.

        When the access would allocate a new LLC MSHR and all MSHRs are
        busy, the complex refuses the request and this returns level
        ``"RETRY"`` with ``done_cycle`` set to the cycle an MSHR frees —
        the core must re-issue the load.  This is the backpressure that
        bounds how far any runahead mode can run.
        """
        line_addr = addr >> self._line_shift
        l1d = self.l1d
        # Single L1D lookup: a miss has no side effects (no LRU update, no
        # stats), so probing first would be redundant work on every access.
        line = l1d.lookup(line_addr)
        l1_latency = l1d.latency
        if line is not None:
            if line.ready_cycle <= now:
                l1d.stats.hits += 1
                return AccessResult(now + l1_latency, "L1")
            # Fill in flight: merge with it.
            l1d.stats.fill_hits += 1
            return AccessResult(
                max(line.ready_cycle, now + l1_latency), "L1", True)
        shared = self.shared
        core = self.core_id
        retry = shared.accept_at(line_addr, now, kind, core)
        if retry:
            self.mshr_rejections += 1
            return AccessResult(retry, "RETRY")
        result = shared.serve(line_addr, now + l1_latency, kind, core)
        l1d.stats.misses += 1
        l1d.fill(line_addr, result.done_cycle)
        return result

    def store_commit(self, addr: int, now: int, kind: str = "store") -> None:
        """An architecturally committed store (write-allocate, write-back).

        Nothing waits on stores (they drain from a store buffer), so this
        only updates cache/DRAM state and traffic counters — and the
        request is ungated: a store may not be refused by MSHR pressure.
        """
        line_addr = self.line_of(addr)
        l1d = self.l1d
        line = l1d.lookup(line_addr)
        if line is not None:
            l1d.stats.hits += 1
            line.dirty = True
            return
        l1d.stats.misses += 1
        done = self.shared.serve(line_addr, now + l1d.latency, kind,
                                 self.core_id).done_cycle
        l1d.fill(line_addr, done)
        l1d.mark_dirty(line_addr)

    def ifetch(self, addr: int, now: int) -> int:
        """Instruction fetch of one line; returns completion cycle."""
        line_addr = self.line_of(addr)
        l1i = self.l1i
        line = l1i.lookup(line_addr)
        if line is not None:
            if line.ready_cycle <= now:
                l1i.stats.hits += 1
                return now + l1i.latency
            l1i.stats.fill_hits += 1
            return max(line.ready_cycle, now + l1i.latency)
        l1i.stats.misses += 1
        done = self.shared.serve(line_addr, now + l1i.latency, "ifetch",
                                 self.core_id).done_cycle
        l1i.fill(line_addr, done)
        return done

    # -- warm-up support --------------------------------------------------------

    def warm_load(self, addr: int) -> None:
        """Functionally warm the caches (no timing, no prefetcher training)."""
        line_addr = addr >> self._line_shift
        if self.l1d.lookup(line_addr) is not None:
            return
        if self.llc.lookup(line_addr) is None:
            self.llc.fill(line_addr, 0)
            if self.shared._mc:
                # Ownership survives warm-up so the timed run can tell a
                # cross-core eviction of warm state from a self-eviction.
                self.shared._line_owner[line_addr] = self.core_id
        self.l1d.fill(line_addr, 0)

    def warm_ifetch(self, addr: int) -> None:
        line_addr = self.line_of(addr)
        if not self.llc.probe(line_addr):
            self.llc.fill(line_addr, 0)
            if self.shared._mc:
                self.shared._line_owner[line_addr] = self.core_id
        self.l1i.fill(line_addr, 0)

    # -- flattened warm paths (jit fast-forward lane only) ----------------------
    #
    # Bit-identical re-implementations of the warm paths above with the
    # per-level call tree (lookup/probe/fill/invalidate/eviction hook)
    # flattened into straight-line dict operations.  Only the jit
    # fast-forward lane binds these; the interp lane keeps the reference
    # implementations, and tests/test_blockjit.py differentially checks
    # the two against each other on a private and on a shared LLC.  Must
    # be kept in lockstep with ``Cache.fill``/``Cache.lookup``/
    # ``SharedLLC._on_evict``.
    #
    # Only a clean victim of an LLC with one connected core takes the
    # inlined eviction (back-invalidate this core's L1s).  On a shared
    # LLC every victim goes through ``SharedLLC._on_evict``, which
    # back-invalidates every core's L1s and drops the victim's owner.

    def _warm_llc_fill(self, line_addr: int, lset) -> None:
        """``llc.fill(line_addr, 0)`` for a line known absent from
        ``lset`` (its set) and not the LLC MRU entry, plus the line
        ownership :meth:`warm_load` records on a shared LLC."""
        llc = self.llc
        shared = self.shared
        ln = None
        if len(lset) >= llc.assoc:
            va, vl = lset.popitem(last=False)
            st = llc.stats
            st.evictions += 1
            llc._resident -= 1
            if vl.dirty or vl.prefetched or shared._mc:
                # Writeback / FDP / cross-core accounting: take the full
                # hook.
                if vl.dirty:
                    st.writebacks += 1
                if va == llc._mru_key:
                    llc._mru_key = -1
                    llc._mru_line = None
                shared._on_evict(va, vl)
            else:
                # Common case of the eviction hook: back-invalidate L1s.
                # The victim MRU-clear is dead here (the tail below
                # reassigns the MRU unconditionally) and the clean victim
                # never escapes, so its line object is recycled as the
                # fresh CacheLine(0), field for field.
                l1d = self.l1d
                if l1d._sets[va % l1d.num_sets].pop(va, None) is not None:
                    l1d.stats.invalidations += 1
                    l1d._resident -= 1
                    if va == l1d._mru_key:
                        l1d._mru_key = -1
                        l1d._mru_line = None
                l1i = self.l1i
                if l1i._sets[va % l1i.num_sets].pop(va, None) is not None:
                    l1i.stats.invalidations += 1
                    l1i._resident -= 1
                    if va == l1i._mru_key:
                        l1i._mru_key = -1
                        l1i._mru_line = None
                vl.ready_cycle = 0
                vl.referenced = False
                ln = vl
        if ln is None:
            ln = CacheLine(0)
        lset[line_addr] = ln
        llc._resident += 1
        llc._mru_key = line_addr
        llc._mru_line = ln
        if shared._mc:
            shared._line_owner[line_addr] = self.core_id

    def warm_load_miss(self, line_addr: int) -> None:
        """L1D-miss continuation of :meth:`warm_load`, taking the *line*
        address: the caller (generated block code) has already
        established the line is neither the L1D MRU entry nor resident
        in its L1D set."""
        llc = self.llc
        if line_addr != llc._mru_key:
            lset = llc._sets[line_addr % llc.num_sets]
            lln = lset.get(line_addr)
            if lln is not None:
                # Touching LLC lookup hit.
                lset.move_to_end(line_addr)
                llc._mru_key = line_addr
                llc._mru_line = lln
            else:
                self._warm_llc_fill(line_addr, lset)
        # l1d.fill(line_addr, 0): the line is still absent (the back-
        # invalidation above only removes), so only the victim path of
        # Cache.fill applies.
        l1d = self.l1d
        dset = l1d._sets[line_addr % l1d.num_sets]
        if len(dset) >= l1d.assoc:
            # Victim MRU-clear elided (the tail reassigns MRU); the
            # victim line object is recycled as the fresh CacheLine(0).
            va, vl = dset.popitem(last=False)
            st = l1d.stats
            st.evictions += 1
            if vl.dirty:
                st.writebacks += 1
                vl.dirty = False
            vl.ready_cycle = 0
            vl.prefetched = False
            vl.referenced = False
            ln = vl
        else:
            ln = CacheLine(0)
            l1d._resident += 1
        dset[line_addr] = ln
        l1d._mru_key = line_addr
        l1d._mru_line = ln

    def warm_ifetch_line(self, line_addr: int) -> None:
        """Bit-identical to :meth:`warm_ifetch`, flattened, taking the
        *line* address (the generated code folds ``pc*4 >> shift`` to a
        literal at translate time)."""
        llc = self.llc
        if line_addr != llc._mru_key:
            lset = llc._sets[line_addr % llc.num_sets]
            if line_addr not in lset:
                self._warm_llc_fill(line_addr, lset)
        # l1i.fill(line_addr, 0), full Cache.fill semantics.
        l1i = self.l1i
        if line_addr == l1i._mru_key:
            ln = l1i._mru_line
            if ln.ready_cycle > 0:
                ln.ready_cycle = 0
            return
        iset = l1i._sets[line_addr % l1i.num_sets]
        ln = iset.get(line_addr)
        if ln is not None:
            if ln.ready_cycle > 0:
                ln.ready_cycle = 0
            iset.move_to_end(line_addr)
            l1i._mru_key = line_addr
            l1i._mru_line = ln
            return
        if len(iset) >= l1i.assoc:
            va, vl = iset.popitem(last=False)
            st = l1i.stats
            st.evictions += 1
            if vl.dirty:
                st.writebacks += 1
                vl.dirty = False
            vl.ready_cycle = 0
            vl.prefetched = False
            vl.referenced = False
            ln = vl
        else:
            ln = CacheLine(0)
            l1i._resident += 1
        iset[line_addr] = ln
        l1i._mru_key = line_addr
        l1i._mru_line = ln

    # -- warm-state snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the hierarchy carries between bursts: all three
        cache arrays in LRU order, the traffic accounting, the MSHR fill
        heap, the DRAM controller (bank rows, reservations, stats), and
        the stream prefetcher.  Plain data only, so it pickles and
        compares (see ``repro.fastpath.snapshot_bytes``).  Only
        meaningful for a privately owned complex; Processor.snapshot
        refuses shared hierarchies before reaching this."""
        return {
            "l1i": self.l1i.snapshot(),
            "l1d": self.l1d.snapshot(),
            "llc": self.llc.snapshot(),
            "llc_misses": tuple(sorted(self.llc_misses.items())),
            "llc_accesses": tuple(sorted(self.llc_accesses.items())),
            "ifetch_llc_misses": self.ifetch_llc_misses,
            "fills": tuple(self._fills),
            "mshr_rejections": self.mshr_rejections,
            "controller": self.controller.snapshot(),
            "prefetcher": (None if self.prefetcher is None
                           else self.prefetcher.snapshot()),
        }

    # -- reporting ----------------------------------------------------------------

    def demand_llc_misses(self) -> int:
        return self.llc_misses["demand"] + self.llc_misses["store"]

    def dram_requests(self) -> int:
        return self.controller.stats.requests
