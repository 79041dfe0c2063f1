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
    """A dynamic micro-op from fetch to retirement."""

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
        self.seq = -1   # stamped at dispatch
        self.pc = pc
        self.inst = inst
        self.rename_at = rename_at
        self.dest_arch: Optional[int] = None
        self.dest_phys: Optional[int] = None
        self.old_phys: Optional[int] = None
        self.src1_phys: Optional[int] = None
        self.src2_phys: Optional[int] = None
        self.waiting = 0
        self.issued = False
        self.completed = False
        self.squashed = False
        self.value = 0
        self.poisoned = False
        self.mem_addr: Optional[int] = None
        self.store_data = 0
        self.addr_known = False
        self.data_known = False
        self.level: Optional[str] = None
        self.done_cycle = 0
        self.merged = False
        self.miss_issue_retired = -1
        self.predicted_next_pc = predicted_next_pc
        self.snapshot = snapshot
        self.actual_next_pc = -1
        self.taken = False
        self.runahead = False
        self.from_rab = False
        self.producer_seqs: tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            flag
            for flag, on in (
                ("I", self.issued), ("C", self.completed),
                ("S", self.squashed), ("P", self.poisoned),
                ("R", self.runahead),
            )
            if on
        )
        return f"<uop#{self.seq} pc={self.pc} {self.inst.opcode.name} {flags}>"
