"""One configuration's runahead-entry policy (§4.4-4.6).

The evaluated runahead configurations differ only in how the core
decides to enter runahead at a full-window stall: traditional runahead
or the buffer, the chain cache, the hybrid fallback (Fig. 8) and the
Mutlu filters.  An :class:`EntryPolicy` holds what one configuration
owns on its own: its decisions' counters, its chain cache, and its
chain-generation counters.  The intervals it enters belong to the
simulated trajectory and live on the :class:`~repro.core.Processor`,
whose ``_member_fields`` prices a policy's counters as energy events.

The filters are the two hardware-controlled entry rules from Mutlu et
al. (ISCA'05) that the paper adopts as "Runahead Enhancements" (§4.6):

* **Policy 1 (short intervals)** — enter only if the blocking operation
  was issued to memory fewer than ``enhancement_distance`` (250)
  instructions ago; otherwise most of the miss latency has already
  elapsed and the interval would be too short to be useful.
* **Policy 2 (overlapping intervals)** — enter only if execution has
  passed the furthest point reached by the previous runahead interval,
  so runahead does not re-discover the same misses.

A :class:`~repro.core.Processor` asks each of its member policies for a
:data:`Decision` at every entry candidate.  Members whose decisions take
the same path share one simulated trajectory
(:func:`repro.core.simulate_cohort`); a standalone processor has one
member.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from ..config import RunaheadConfig, RunaheadMode
from .chain import ChainGenResult, ChainUop, chain_signature
from .chain_cache import ChainCache

#: The decision to enter traditional runahead.
TRADITIONAL = "traditional"


class BufferEntry(NamedTuple):
    """The decision to loop ``chain`` through the runahead buffer.  The
    chain reaches the buffer ``gen_cycles`` after entry: Algorithm 1's
    walk and readout, or one cycle on a chain-cache hit (``used_cc``)."""

    chain: tuple[ChainUop, ...]
    gen_cycles: int
    used_cc: bool


#: An entry decision: ``None`` (decline), :data:`TRADITIONAL`, or a
#: :class:`BufferEntry`.
Decision = Union[None, str, BufferEntry]


def same_path(a: Decision, b: Decision) -> bool:
    """Whether two decisions send the core down the same path: both
    decline, both enter traditional runahead, or both loop the same chain
    through the buffer (its start cycle may differ)."""
    if isinstance(a, BufferEntry) and isinstance(b, BufferEntry):
        return a.chain == b.chain
    return a == b


class EntryPolicy:
    """One configuration's entry decisions and the plain counters they
    own: declined entries, chain-cache checks, and chain generations
    with the CAM searches and ROB readout they cost.  The chain cache
    counts its own lookups and insertions."""

    def __init__(self, config: RunaheadConfig) -> None:
        self.config = config
        self.mode = config.mode
        self.chain_cache = ChainCache(config.chain_cache_entries) if (
            config.mode in (RunaheadMode.BUFFER_CHAIN_CACHE,
                            RunaheadMode.HYBRID)) else None
        # Fig. 13 instrumentation: check each chain-cache hit against the
        # chain Algorithm 1 would generate (analysis only).
        self._check_hits = (config.collect_chain_stats
                            and self.chain_cache is not None)
        # Entries declined by Policy 1, by Policy 2, and for want of a
        # usable chain.
        self.entries_blocked_short = 0
        self.entries_blocked_overlap = 0
        self.entries_blocked_no_chain = 0
        # Chain-cache hits checked against Algorithm 1, and the exact ones.
        self.cc_hits_checked = 0
        self.cc_hits_exact = 0
        # Chain generations: their cycles, the destination-register and
        # store-queue CAM searches, and the chain uops read out of the ROB.
        self.chain_generations = 0
        self.chain_gen_cycles = 0
        self.destreg_cam = 0
        self.sq_cam = 0
        self.chain_readout = 0

    def enhancements_allow(self, committed: int, miss_issue_retired: int,
                           furthest: int) -> bool:
        """Apply Policies 1 and 2 and count a blocked entry.  The blocking
        miss went to memory when ``miss_issue_retired`` instructions had
        committed (-1: unknown); ``furthest`` is the furthest program
        point a closed interval reached."""
        if miss_issue_retired >= 0:
            distance = committed - miss_issue_retired
            if distance >= self.config.enhancement_distance:
                self.entries_blocked_short += 1
                return False
        if committed <= furthest:
            self.entries_blocked_overlap += 1
            return False
        return True

    def decide(self, proc, head) -> Decision:
        """This configuration's decision for ``head``, an entry candidate
        whose remaining stall already passed the minimum interval.
        ``proc`` (the :class:`~repro.core.Processor`) supplies the
        committed count, Policy 2's furthest point and Algorithm 1, which
        it runs at most once per decision point however many members
        ask."""
        mode = self.mode
        if self.config.enhancements and mode is not RunaheadMode.HYBRID:
            if not self.enhancements_allow(proc.committed,
                                           head.miss_issue_retired,
                                           proc.furthest_instruction):
                return None
        if mode is RunaheadMode.TRADITIONAL:
            return TRADITIONAL

        # Buffer modes: consult the chain cache, then Algorithm 1.
        chain: Optional[tuple[ChainUop, ...]] = None
        gen_cycles = 1
        used_cc = False
        cache = self.chain_cache
        if cache is not None:
            cached = cache.lookup(head.pc)
            if cached is not None:
                chain = cached
                used_cc = True
                if self._check_hits:
                    fresh = proc._algorithm1(head)
                    self.cc_hits_checked += 1
                    if fresh.usable and (chain_signature(fresh.chain)
                                         == chain_signature(cached)):
                        self.cc_hits_exact += 1
        if chain is None:
            result = proc._generate_chain(head)
            self._note_generation(result)
            gen_cycles = result.cycles
            if mode is RunaheadMode.HYBRID:
                if not result.found_pc or result.hit_cap:
                    # Fig. 8 fallback: traditional runahead (gated by the
                    # enhancement filters, which the hybrid policy uses).
                    if self.enhancements_allow(proc.committed,
                                               head.miss_issue_retired,
                                               proc.furthest_instruction):
                        return TRADITIONAL
                    return None
            elif not result.usable:
                self.entries_blocked_no_chain += 1
                return None
            chain = result.chain
            if cache is not None and chain:
                cache.insert(head.pc, chain)
        if not chain:
            self.entries_blocked_no_chain += 1
            return None
        return BufferEntry(chain, gen_cycles, used_cc)

    def _note_generation(self, result: ChainGenResult) -> None:
        """Account one chain generation: its cycles and the CAM searches
        and ROB readout it costs (one PC CAM search each)."""
        self.chain_generations += 1
        self.chain_gen_cycles += result.cycles
        self.destreg_cam += result.reg_searches
        self.sq_cam += result.sq_searches
        self.chain_readout += len(result.chain)
