"""The in-flight micro-op record: one object per uop from fetch to
retirement.

The fetch unit builds it with its prediction and the cycle it reaches
rename; it waits in the decode queue, and dispatch stamps its sequence
number and rename state (physical registers) on it before it enters the
ROB.  It then carries execution results, branch resolution state, memory
access results, and the poison flag used by runahead execution.  The ROB
keeps the decoded instruction with the entry — the paper adds 4 bytes per
ROB entry precisely so that decoded uops remain readable for
dependence-chain generation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..isa import Instruction

if TYPE_CHECKING:
    # Annotations only: repro.frontend builds these records, so importing
    # it here at run time would be circular.
    from ..frontend.branch_predictor import PredictorSnapshot


class InFlightUop:
    """A dynamic micro-op from fetch to retirement.

    One is built per fetched uop, so the constructor stores only what
    fetch knows and the status every later stage reads before writing it
    (docs/simulator.md, "The flattened hot path").  A field outside that
    set exists from the stage that sets it on:

    * dispatch: ``seq``, ``src1_phys``, ``src2_phys``, ``dest_arch``,
      ``dest_phys``, ``runahead``, ``from_rab`` and (with chain
      statistics on) ``producer_seqs``; ``old_phys`` when there is a
      destination; ``waiting`` when the uop waits on a register (a
      store's data register too, at execute);
    * dispatch, loads and stores only: ``addr_known`` (False), and
      ``level`` (``None``) of a load;
    * execute: ``mem_addr`` when ``addr_known`` turns True; a store's
      ``data_known``, and its ``store_data`` when that turns True; a
      load's ``done_cycle``; ``merged`` with a load's ``level``;
      ``miss_issue_retired`` of a load that started a DRAM miss; a
      branch's ``taken`` and, unless poisoned, its ``actual_next_pc``.

    Readers test the uop's class (``inst.is_load``, ``inst.is_store``) or
    the field that guards the one they read.
    """

    __slots__ = (
        "seq", "pc", "inst",
        # Front end: the cycle the uop may leave the decode queue.
        "rename_at",
        # Rename.
        "dest_arch", "dest_phys", "old_phys", "src1_phys", "src2_phys",
        "waiting",
        # Status.
        "issued", "completed", "squashed",
        # Results.
        "value", "poisoned",
        # Memory.
        "mem_addr", "store_data", "addr_known", "data_known", "level",
        "done_cycle",
        "merged", "miss_issue_retired",
        # Branches.
        "predicted_next_pc", "snapshot", "actual_next_pc", "taken",
        # Provenance.
        "runahead", "from_rab", "producer_seqs",
    )

    def __init__(self, pc: int, inst: Instruction,
                 predicted_next_pc: int = -1,
                 snapshot: Optional[PredictorSnapshot] = None,
                 rename_at: int = 0) -> None:
        self.pc = pc
        self.inst = inst
        self.rename_at = rename_at
        self.predicted_next_pc = predicted_next_pc
        self.snapshot = snapshot
        self.issued = False
        self.completed = False
        self.squashed = False
        self.value = 0
        self.poisoned = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            flag
            for flag, on in (
                ("I", self.issued), ("C", self.completed),
                ("S", self.squashed), ("P", self.poisoned),
                ("R", getattr(self, "runahead", False)),
            )
            if on
        )
        seq = getattr(self, "seq", -1)
        return f"<uop#{seq} pc={self.pc} {self.inst.opcode.name} {flags}>"
