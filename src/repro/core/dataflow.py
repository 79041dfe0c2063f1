"""Dataflow tracker: backward-slice analytics behind Figs 2-5.

Optional (``RunaheadConfig.collect_chain_stats``): records, per executed
uop, which dynamic uops produced its sources, so that when a cache miss
occurs its *dependence chain* (backward slice of the address computation)
can be reconstructed.  This is analysis-only instrumentation — it never
influences timing — and mirrors the measurements the paper presents in
its motivation section:

* Fig. 2 — does a miss's slice contain another LLC miss?  If not, all
  source data was available on chip and runahead could have issued it.
* Fig. 3 — what fraction of ops executed in a traditional-runahead
  interval lie on some miss's dependence chain?
* Fig. 4 — how often is a miss chain a repeat of one already seen in the
  same interval (keyed by the chain's PC signature)?
* Fig. 5 — how long are the chains?
"""

from __future__ import annotations

from typing import Optional

from .stats import ChainAnalysis

_SLICE_LIMIT = 64          # max uops per backward slice (matches chain walk)
_WINDOW = 8192             # retained uop records

# A uop record is a plain tuple (one is built per executed uop, see
# docs/simulator.md, "The flattened hot path"):
# (pc, producer seqs, is_miss_load).
_PC = 0
_PRODUCERS = 1
_IS_MISS = 2


class DataflowTracker:
    """Sliding-window dataflow graph over executed uops: the records of
    the last ``_WINDOW`` uops in execution order."""

    def __init__(self, analysis: Optional[ChainAnalysis] = None) -> None:
        self.analysis = analysis if analysis is not None else ChainAnalysis()
        self._records: dict[int, tuple] = {}
        # The window's seqs in execution order: a ring whose next slot
        # holds the oldest (-1 while the window fills).
        self._ring = [-1] * _WINDOW
        self._next = 0
        # Traditional-runahead interval tracking.
        self._in_interval = False
        self._interval_ops: dict[int, tuple] = {}
        self._interval_misses: list[int] = []
        self._interval_signatures: set[tuple] = set()

    # -- recording -------------------------------------------------------------

    def note_exec(self, seq: int, pc: int, producers: tuple[int, ...],
                  is_miss_load: bool, runahead: bool) -> None:
        """Record one executed uop and its producer seq ids."""
        record = (pc, producers, is_miss_load)
        records = self._records
        records[seq] = record
        ring = self._ring
        slot = self._next
        oldest = ring[slot]
        if oldest >= 0:
            del records[oldest]
        ring[slot] = seq
        slot += 1
        self._next = slot if slot < _WINDOW else 0
        if runahead and self._in_interval:
            self._interval_ops[seq] = record
            if is_miss_load:
                self._interval_misses.append(seq)

    # -- Fig. 2 -------------------------------------------------------------------

    def classify_demand_miss(self, seq: int, producers: tuple[int, ...],
                             ) -> bool:
        """Classify a demand miss: True if all source data was on chip
        (no other LLC miss in its backward slice).  Updates analysis."""
        on_chip = True
        seen: set[int] = set()
        records = self._records
        # Negative seqs (registers no uop in the window produced) are
        # skipped as they are popped.
        frontier = list(producers)
        while frontier and len(seen) < _SLICE_LIMIT:
            s = frontier.pop()
            if s < 0 or s in seen:
                continue
            seen.add(s)
            record = records.get(s)
            if record is None:
                continue
            if record[_IS_MISS]:
                on_chip = False
                break
            frontier.extend(record[_PRODUCERS])
        if on_chip:
            self.analysis.misses_source_onchip += 1
        else:
            self.analysis.misses_source_offchip += 1
        return on_chip

    # -- Figs 3-5: traditional runahead intervals --------------------------------------

    def begin_interval(self) -> None:
        self._in_interval = True
        self._interval_ops = {}
        self._interval_misses = []
        self._interval_signatures = set()

    def end_interval(self) -> None:
        """Reduce the interval's dataflow into chain statistics."""
        if not self._in_interval:
            return
        self._in_interval = False
        analysis = self.analysis
        ops = self._interval_ops
        analysis.runahead_ops_executed += len(ops)
        on_chain: set[int] = set()
        for miss_seq in self._interval_misses:
            chain = self._slice_within(miss_seq, ops)
            on_chain.update(chain)
            signature = tuple(sorted({ops[s][_PC] for s in chain}))
            if signature in self._interval_signatures:
                analysis.repeated_chains += 1
            else:
                analysis.unique_chains += 1
                self._interval_signatures.add(signature)
            analysis.chain_length_sum += len(chain)
            analysis.chain_count += 1
        analysis.runahead_ops_on_chains += len(on_chain)
        self._interval_ops = {}
        self._interval_misses = []

    @staticmethod
    def _slice_within(seq: int, ops: dict[int, tuple]) -> set[int]:
        """Backward slice of ``seq`` restricted to the interval's ops.

        The slice stops at repeated *static* PCs, so it captures one loop
        body — the same termination the runahead buffer's chain walk gets
        from the retirement boundary.  Without this, the slice would run
        through the entire induction history of the interval and every
        chain would look unique."""
        chain: set[int] = {seq}
        seen_pcs: set[int] = {ops[seq][_PC]} if seq in ops else set()
        frontier = [seq]
        while frontier and len(chain) < _SLICE_LIMIT:
            s = frontier.pop()
            record = ops.get(s)
            if record is None:
                continue
            for producer in record[_PRODUCERS]:
                if producer < 0 or producer not in ops or producer in chain:
                    continue
                pc = ops[producer][_PC]
                if pc in seen_pcs:
                    continue
                seen_pcs.add(pc)
                chain.add(producer)
                frontier.append(producer)
        return chain
