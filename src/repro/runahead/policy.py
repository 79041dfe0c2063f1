"""One configuration's runahead-entry policy (§4.4-4.6).

The evaluated runahead configurations differ only in how the core
decides to enter runahead at a full-window stall: traditional runahead
or the buffer, the chain cache, the hybrid fallback (Fig. 8) and the
Mutlu filters.  An :class:`EntryPolicy` holds what one configuration
owns on its own: its filter, hybrid and chain-cache-accuracy counters
(:class:`~repro.runahead.RunaheadPolicyState`), its chain cache, and its
chain-generation statistics and energy events.

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
from .state import RunaheadPolicyState

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
    """One configuration's entry decisions and the statistics they own."""

    def __init__(self, config: RunaheadConfig) -> None:
        self.config = config
        self.mode = config.mode
        self.state = RunaheadPolicyState(config)
        self.chain_cache = ChainCache(config.chain_cache_entries) if (
            config.mode in (RunaheadMode.BUFFER_CHAIN_CACHE,
                            RunaheadMode.HYBRID)) else None
        # Fig. 13 instrumentation: check each chain-cache hit against the
        # chain Algorithm 1 would generate (analysis only).
        self._check_hits = (config.collect_chain_stats
                            and self.chain_cache is not None)
        self.chain_generations = 0
        self.chain_gen_cycles = 0
        # Cold-path energy events in first-occurrence order: this
        # policy's chain-cache and chain-generation events, plus the
        # checkpoints of the intervals it entered.
        self.ev: dict[str, int] = {}

    def decide(self, proc, head) -> Decision:
        """This configuration's decision for ``head``, an entry candidate
        whose remaining stall already passed the minimum interval.
        ``proc`` (the :class:`~repro.core.Processor`) supplies the
        committed count and Algorithm 1, which it runs at most once per
        decision point however many members ask."""
        state = self.state
        mode = self.mode
        if self.config.enhancements and mode is not RunaheadMode.HYBRID:
            if not state.enhancements_allow(proc.committed,
                                            head.miss_issue_retired):
                return None
        if mode is RunaheadMode.TRADITIONAL:
            return TRADITIONAL

        # Buffer modes: consult the chain cache, then Algorithm 1.
        chain: Optional[tuple[ChainUop, ...]] = None
        gen_cycles = 1
        used_cc = False
        ev = self.ev
        cache = self.chain_cache
        if cache is not None:
            cached = cache.lookup(head.pc)
            ev["chain_cache_read"] = ev.get("chain_cache_read", 0) + 1
            if cached is not None:
                chain = cached
                used_cc = True
                if self._check_hits:
                    fresh = proc._algorithm1(head)
                    state.cc_hits_checked += 1
                    if fresh.usable and (chain_signature(fresh.chain)
                                         == chain_signature(cached)):
                        state.cc_hits_exact += 1
        if chain is None:
            result = proc._generate_chain(head)
            self._note_generation(result)
            gen_cycles = result.cycles
            if mode is RunaheadMode.HYBRID:
                if not result.found_pc or result.hit_cap:
                    # Fig. 8 fallback: traditional runahead (gated by the
                    # enhancement filters, which the hybrid policy uses).
                    if state.enhancements_allow(proc.committed,
                                                head.miss_issue_retired):
                        state.hybrid_traditional_entries += 1
                        return TRADITIONAL
                    return None
                chain = result.chain
                state.hybrid_chain_entries += 1
            else:
                if not result.usable:
                    state.entries_blocked_no_chain += 1
                    return None
                chain = result.chain
            if cache is not None and chain:
                cache.insert(head.pc, chain)
                ev["chain_cache_write"] = ev.get("chain_cache_write", 0) + 1
        elif mode is RunaheadMode.HYBRID:
            state.hybrid_cc_entries += 1
        if not chain:
            state.entries_blocked_no_chain += 1
            return None
        return BufferEntry(chain, gen_cycles, used_cc)

    def _note_generation(self, result: ChainGenResult) -> None:
        """Account one chain generation: its cycles and the CAM searches
        and ROB readout it costs."""
        self.chain_generations += 1
        self.chain_gen_cycles += result.cycles
        ev = self.ev
        ev["pc_cam"] = ev.get("pc_cam", 0) + 1
        ev["destreg_cam"] = ev.get("destreg_cam", 0) + result.reg_searches
        ev["sq_cam"] = ev.get("sq_cam", 0) + result.sq_searches
        ev["rob_read"] = ev.get("rob_read", 0) + len(result.chain)

    def enter(self, decision: Decision, now: int) -> None:
        """Open the interval ``decision`` (an entry) began at ``now``."""
        ev = self.ev
        ev["checkpoint"] = ev.get("checkpoint", 0) + 1
        if decision is TRADITIONAL:
            self.state.begin_interval("traditional", now)
        else:
            self.state.begin_interval(
                "buffer", now, chain_gen_cycles=decision.gen_cycles,
                used_chain_cache=decision.used_cc)
