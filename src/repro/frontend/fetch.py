"""Fetch unit: supplies up to ``width`` predicted-path uops per cycle.

Follows the branch predictor through the static program, producing
:class:`FetchedUop` records (instruction + prediction + predictor
snapshot).  Fetch naturally goes down the wrong path after a
misprediction — it decodes the real instructions at the predicted target —
until the core redirects it.  Instruction-cache timing is modelled per
line (4-byte instruction slots, 16 per 64-byte line).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..config import CoreConfig
from ..isa import Program
from ..memory import MemoryHierarchy
from .branch_predictor import BranchPredictor, PredictorSnapshot

INST_BYTES = 4


class FetchedUop:
    """One fetched micro-op plus its control-flow prediction."""

    __slots__ = ("pc", "inst", "predicted_next_pc", "predicted_taken",
                 "snapshot")

    def __init__(self, pc: int, inst, predicted_next_pc: int,
                 predicted_taken: bool, snapshot: Optional[PredictorSnapshot]
                 ) -> None:
        self.pc = pc
        self.inst = inst
        self.predicted_next_pc = predicted_next_pc
        self.predicted_taken = predicted_taken
        self.snapshot = snapshot


class FetchUnit:
    """The fetch stage.  The core drives :meth:`fetch_cycle` once per cycle
    (when not clock-gated) and :meth:`redirect` on mispredicts/flushes."""

    def __init__(self, program: Program, predictor: BranchPredictor,
                 hierarchy: MemoryHierarchy, config: CoreConfig) -> None:
        self.program = program
        self.predictor = predictor
        self.hierarchy = hierarchy
        self.width = config.width
        self.pc = program.entry
        self.stalled_until = 0       # I-cache miss / redirect penalty
        self.wait_for_redirect = False  # unknown indirect target
        self.halted = False
        self.fetched_uops = 0
        # Static decode tables (flat per-PC arrays, see Program) plus the
        # byte-address-free PC -> I-cache-line shift: pc * INST_BYTES is a
        # line address shifted by line_bits, so pc >> (line_bits - 2).
        self._insts = program.instructions
        self._num_insts = len(program.instructions)
        self._is_branch_at = program.is_branch_at
        self._is_halt_at = program.is_halt_at
        self._nop = program._nop
        line_bits = hierarchy.l1i.line_bytes.bit_length() - 1
        self._pc_line_shift = line_bits - (INST_BYTES.bit_length() - 1)
        self._l1i_latency = hierarchy.l1i.latency
        # MRU fast path: the line the previous fetch touched is by
        # construction at the tail of ``_line_ready`` (every touch either
        # inserts at or moves to the end), so re-reading it skips both the
        # dict probe and the (no-op) LRU update.
        self._last_line = -1
        self._last_ready = 0
        # Bounded LRU of line -> decode-ready cycle.  Cleared on every
        # redirect: a ready cycle computed on the old path may describe a
        # line that has since been evicted (or is mid-fill), and carrying
        # it across a redirect would let fetch skip the I-cache model.
        self._line_ready: OrderedDict[int, int] = OrderedDict()
        self._line_ready_cap = 64

    def redirect(self, pc: int, at_cycle: int) -> None:
        """Steer fetch to ``pc``; fetch resumes at ``at_cycle``."""
        self.pc = pc
        self.stalled_until = max(self.stalled_until, at_cycle)
        self.wait_for_redirect = False
        self.halted = False
        self._line_ready.clear()
        self._last_line = -1

    def flush(self) -> None:
        """Drop any transient fetch state (used on mode transitions)."""
        self.wait_for_redirect = False
        self._line_ready.clear()
        self._last_line = -1

    def fetch_cycle(self, now: int, budget: Optional[int] = None
                    ) -> list[FetchedUop]:
        """Fetch up to ``budget`` (default: width) uops along the predicted
        path.  A predicted-taken branch ends the fetch group."""
        if self.halted or self.wait_for_redirect or now < self.stalled_until:
            return []
        if budget is None:
            budget = self.width
        group: list[FetchedUop] = []
        append = group.append
        insts = self._insts
        num_insts = self._num_insts
        is_branch_at = self._is_branch_at
        is_halt_at = self._is_halt_at
        pc_line_shift = self._pc_line_shift
        predictor = self.predictor
        while len(group) < budget:
            pc = self.pc
            # Cycle at which pc's I-cache line can feed decode.  The L1I
            # hit latency is pipelined (hidden by the front-end depth), so
            # only LLC/DRAM instruction misses stall fetch.  Re-reading the
            # previous fetch's line takes the MRU shortcut.
            line = pc >> pc_line_shift
            if line == self._last_line:
                ready = self._last_ready
            else:
                line_ready = self._line_ready
                ready = line_ready.get(line)
                if ready is None:
                    done = self.hierarchy.ifetch(pc * INST_BYTES, now)
                    ready = now if done - now <= self._l1i_latency else done
                    line_ready[line] = ready
                    if len(line_ready) > self._line_ready_cap:
                        line_ready.popitem(last=False)
                else:
                    line_ready.move_to_end(line)
                self._last_line = line
                self._last_ready = ready
            if ready > now:
                self.stalled_until = ready
                break
            in_range = 0 <= pc < num_insts
            if in_range and is_halt_at[pc]:
                self.halted = True
                append(FetchedUop(pc, insts[pc], pc + 1, False, None))
                break
            if in_range and is_branch_at[pc]:
                inst = insts[pc]
                snapshot = predictor.snapshot()
                taken, target = predictor.predict(pc, inst)
                if target is None:
                    # Indirect branch with no BTB target: fetch must wait
                    # for the branch to resolve.
                    self.wait_for_redirect = True
                    append(FetchedUop(pc, inst, -1, taken, snapshot))
                    break
                append(FetchedUop(pc, inst, target, taken, snapshot))
                self.pc = target
                if taken:
                    break
            else:
                inst = insts[pc] if in_range else self._nop
                append(FetchedUop(pc, inst, pc + 1, False, None))
                self.pc = pc + 1
        self.fetched_uops += len(group)
        return group
