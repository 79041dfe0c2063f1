"""Hybrid branch predictor (Table 1: "Hybrid Branch Predictor").

A gshare and a bimodal table of 2-bit counters, arbitrated by a chooser
table, plus a branch target buffer for taken targets and a return address
stack for CALL/RET.  The global history register is speculatively updated
at predict time; every prediction returns a snapshot that the core stores
with the branch so history (and the RAS top) can be repaired on a
misprediction or a runahead exit — the paper checkpoints "the branch
history register and return address stack" on runahead entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import BranchPredictorConfig
from ..isa import Instruction


@dataclass(frozen=True)
class PredictorSnapshot:
    """State needed to undo speculative predictor updates."""

    ghr: int
    ras_sp: int
    ras_top: int


@dataclass
class BranchPredictorStats:
    cond_predictions: int = 0
    cond_mispredicts: int = 0
    btb_misses: int = 0
    ras_predictions: int = 0

    @property
    def accuracy(self) -> float:
        if not self.cond_predictions:
            return 1.0
        return 1.0 - self.cond_mispredicts / self.cond_predictions


class BranchPredictor:
    """Gshare + bimodal with a chooser, BTB, and RAS."""

    def __init__(self, config: BranchPredictorConfig) -> None:
        self.config = config
        self._gshare = bytearray([1]) * 1  # replaced below (keep linters calm)
        self._gshare = bytearray([1] * (1 << config.gshare_bits))
        self._bimodal = bytearray([1] * (1 << config.bimodal_bits))
        self._chooser = bytearray([1] * (1 << config.chooser_bits))
        self._gshare_mask = (1 << config.gshare_bits) - 1
        self._bimodal_mask = (1 << config.bimodal_bits) - 1
        self._chooser_mask = (1 << config.chooser_bits) - 1
        self._history_mask = (1 << config.history_bits) - 1
        self.ghr = 0
        self._btb: dict[int, int] = {}
        self._ras = [0] * config.ras_entries
        self._ras_sp = 0
        self.stats = BranchPredictorStats()

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> PredictorSnapshot:
        sp = self._ras_sp
        top = self._ras[(sp - 1) % len(self._ras)]
        return PredictorSnapshot(self.ghr, sp, top)

    def restore(self, snap: PredictorSnapshot) -> None:
        self.ghr = snap.ghr
        self._ras_sp = snap.ras_sp
        self._ras[(snap.ras_sp - 1) % len(self._ras)] = snap.ras_top

    def checkpoint_full(self) -> tuple[int, list[int], int]:
        """Full GHR + RAS checkpoint (taken on runahead entry, §3)."""
        return (self.ghr, list(self._ras), self._ras_sp)

    def restore_full(self, checkpoint: tuple[int, list[int], int]) -> None:
        ghr, ras, sp = checkpoint
        self.ghr = ghr
        self._ras = list(ras)
        self._ras_sp = sp

    def snapshot_state(self) -> tuple:
        """Complete predictor state for warm-state snapshots: all three
        counter tables, the GHR, the BTB (sorted by PC so the serialized
        form is independent of insertion order — the jit lane's batched
        BTB writes insert in a different order than the interp lane's
        sequential ones), the RAS and its pointer, and the stats.

        Named ``snapshot_state`` (not ``snapshot``) because
        :meth:`snapshot`/:meth:`restore` are the per-prediction GHR/RAS
        repair pair the core uses on every branch.
        """
        st = self.stats
        return (
            bytes(self._gshare),
            bytes(self._bimodal),
            bytes(self._chooser),
            self.ghr,
            tuple(sorted(self._btb.items())),
            tuple(self._ras),
            self._ras_sp,
            (st.cond_predictions, st.cond_mispredicts, st.btb_misses,
             st.ras_predictions),
        )

    def repair(self, pc: int, inst: Instruction, taken: bool,
               snapshot: PredictorSnapshot) -> None:
        """Fix speculative GHR/RAS state after a misprediction: rewind to
        the snapshot taken at predict time, then re-apply the *actual*
        outcome of this branch."""
        self.restore(snapshot)
        if inst.is_conditional_branch:
            self.ghr = ((self.ghr << 1) | int(taken)) & self._history_mask
        elif inst.is_call:
            self._ras[self._ras_sp] = pc + 1
            self._ras_sp = (self._ras_sp + 1) % len(self._ras)
        elif inst.is_return:
            self._ras_sp = (self._ras_sp - 1) % len(self._ras)

    # -- prediction ---------------------------------------------------------------

    def _indices(self, pc: int, ghr: Optional[int] = None
                 ) -> tuple[int, int, int]:
        history = self.ghr if ghr is None else ghr
        gidx = (pc ^ (history << 2)) & self._gshare_mask
        bidx = pc & self._bimodal_mask
        cidx = pc & self._chooser_mask
        return gidx, bidx, cidx

    def predict(self, pc: int, inst: Instruction) -> tuple[bool, Optional[int]]:
        """Predict (taken, target-PC).  ``target`` is ``None`` when the BTB
        and RAS cannot provide one (indirect-miss: fetch must stall until
        resolve).  Speculatively updates GHR/RAS."""
        if inst.is_return:
            self.stats.ras_predictions += 1
            self._ras_sp = (self._ras_sp - 1) % len(self._ras)
            target = self._ras[self._ras_sp]
            return True, target
        if inst.is_call:
            self._ras[self._ras_sp] = pc + 1
            self._ras_sp = (self._ras_sp + 1) % len(self._ras)
            return True, inst.target
        if inst.is_indirect:  # JR
            target = self._btb.get(pc)
            if target is None:
                self.stats.btb_misses += 1
            return True, target
        if not inst.is_conditional_branch:  # JMP
            return True, inst.target

        gidx, bidx, cidx = self._indices(pc)
        use_gshare = self._chooser[cidx] >= 2
        counter = self._gshare[gidx] if use_gshare else self._bimodal[bidx]
        taken = counter >= 2
        self.stats.cond_predictions += 1
        # Speculative history update (repaired on mispredict via snapshot).
        self.ghr = ((self.ghr << 1) | int(taken)) & self._history_mask
        target = inst.target if taken else pc + 1
        return taken, target

    # -- training ------------------------------------------------------------------

    @staticmethod
    def _train(table: bytearray, idx: int, taken: bool) -> None:
        counter = table[idx]
        if taken:
            if counter < 3:
                table[idx] = counter + 1
        elif counter > 0:
            table[idx] = counter - 1

    def update(self, pc: int, inst: Instruction, taken: bool,
               target: int, mispredicted: bool,
               ghr: Optional[int] = None) -> None:
        """Train on a resolved branch.

        ``ghr`` must be the global history *at prediction time* (from the
        branch's snapshot) so training writes the same gshare entry the
        prediction read.  When ``None`` (functional warm-up, where
        ``predict`` was never called), the current history is used and
        then shifted by the outcome."""
        if inst.is_conditional_branch:
            if ghr is None:
                history = self.ghr
                self.ghr = ((self.ghr << 1) | int(taken)) & self._history_mask
            else:
                history = ghr
            gidx, bidx, cidx = self._indices(pc, history)
            g_correct = (self._gshare[gidx] >= 2) == taken
            b_correct = (self._bimodal[bidx] >= 2) == taken
            if g_correct != b_correct:
                self._train(self._chooser, cidx, g_correct)
            self._train(self._gshare, gidx, taken)
            self._train(self._bimodal, bidx, taken)
            if mispredicted:
                self.stats.cond_mispredicts += 1
        if taken and not inst.is_return:
            if len(self._btb) >= self.config.btb_entries and pc not in self._btb:
                # Cheap random-ish replacement: drop an arbitrary entry.
                self._btb.pop(next(iter(self._btb)))
            self._btb[pc] = target

    def warm_update_vector(self, pc: int, inst: Instruction,
                           outcomes: list, taken_target: int,
                           prev_taken: dict) -> None:
        """Replay a run of functional-warm-up outcomes for ONE conditional
        branch, bit-identically to calling :meth:`update` once per outcome
        with ``ghr=None`` (the warm-up convention — see
        ``Processor.fast_forward``) and threading the same ``prev_taken``
        mispredict proxy between calls.

        Used by the jit fast-forward lane for loop superblocks: the
        per-iteration table training is GHR-order dependent and is
        replayed exactly; the BTB insert collapses to one write because
        the (pc, target) pair is static across the run — after the first
        taken outcome the sequential inserts are exact no-ops, and no
        other branch touches the BTB within the run.
        """
        if not outcomes:
            return
        gshare = self._gshare
        bimodal = self._bimodal
        chooser = self._chooser
        gshare_mask = self._gshare_mask
        history_mask = self._history_mask
        bidx = pc & self._bimodal_mask
        cidx = pc & self._chooser_mask
        ghr = self.ghr
        prev = prev_taken.get(pc, False)
        mis = 0
        for t in outcomes:
            gidx = (pc ^ (ghr << 2)) & gshare_mask
            ghr = ((ghr << 1) | t) & history_mask
            g_correct = (gshare[gidx] >= 2) == t
            if g_correct != ((bimodal[bidx] >= 2) == t):
                c = chooser[cidx]
                if g_correct:
                    if c < 3:
                        chooser[cidx] = c + 1
                elif c > 0:
                    chooser[cidx] = c - 1
            g = gshare[gidx]
            b = bimodal[bidx]
            if t:
                if g < 3:
                    gshare[gidx] = g + 1
                if b < 3:
                    bimodal[bidx] = b + 1
            else:
                if g > 0:
                    gshare[gidx] = g - 1
                if b > 0:
                    bimodal[bidx] = b - 1
            if prev != t:
                mis += 1
            prev = t
        self.ghr = ghr
        prev_taken[pc] = prev
        self.stats.cond_mispredicts += mis
        if any(outcomes):
            btb = self._btb
            if len(btb) >= self.config.btb_entries and pc not in btb:
                btb.pop(next(iter(btb)))
            btb[pc] = taken_target
