"""Micro-op definitions for the mini ISA.

The simulator decodes one :class:`Instruction` into one micro-op (the paper's
x86 front-end cracks instructions into uops; our RISC-like ISA is already at
uop granularity, so decode is 1:1 — documented as a fidelity trade-off in
DESIGN.md).  Static instructions live in a :class:`~repro.isa.program.Program`
and are indexed by PC.

Decode is *static*: every classification fact a pipeline stage needs
(``is_load``, ``is_branch``, the issue-port class, the register operands
with R0 folded out, the bound semantic function) is computed once in
``Instruction.__init__`` and stored as a plain attribute.  The cycle loop
never hashes an :class:`Opcode` or walks an if-chain per dynamic uop —
this is the "static decode table" half of the simulator's hot-path
optimization pass (the flat per-PC arrays live on ``Program``).
"""

from __future__ import annotations

import enum
from typing import Optional


class Opcode(enum.Enum):
    """Static opcodes of the mini ISA."""

    # Memory.
    LD = "ld"        # rd = MEM[rs1 + imm]
    ST = "st"        # MEM[rs1 + imm] = rs2
    # Integer ALU.
    ADD = "add"      # rd = rs1 + rs2
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"      # rd = rs1 << (rs2 & 63)
    SHR = "shr"      # rd = rs1 >> (rs2 & 63)
    ADDI = "addi"    # rd = rs1 + imm
    ANDI = "andi"    # rd = rs1 & imm
    MOV = "mov"      # rd = rs1
    LI = "li"        # rd = imm
    # Long-latency integer.
    MUL = "mul"
    DIV = "div"      # rd = rs1 // rs2 (rs2 == 0 yields 0)
    # Floating point (modelled as integer ops with FP latency classes).
    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"
    # Control flow.
    BEQ = "beq"      # if rs1 == rs2 goto target
    BNE = "bne"
    BLT = "blt"      # signed compare
    BGE = "bge"
    JMP = "jmp"      # goto target
    JR = "jr"        # goto rs1 (indirect)
    CALL = "call"    # R31 = pc + 1; goto target
    RET = "ret"      # goto R31 (indirect, return-stack predicted)
    # Misc.
    NOP = "nop"
    HALT = "halt"    # stop the workload (tests only; kernels loop forever)


class UopClass(enum.Enum):
    """Execution resource / latency class of a micro-op."""

    LOAD = "load"
    STORE = "store"
    IALU = "ialu"
    IMUL = "imul"
    IDIV = "idiv"
    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"
    BRANCH = "branch"
    NOP = "nop"


# Flat integer ids for UopClass members: hot paths compare/index with these
# instead of hashing enum members.  Order matches the declaration above.
(CLS_LOAD, CLS_STORE, CLS_IALU, CLS_IMUL, CLS_IDIV,
 CLS_FADD, CLS_FMUL, CLS_FDIV, CLS_BRANCH, CLS_NOP) = range(10)
# Dispatch-only id for HALT.  HALT keeps ``UopClass.NOP`` for ports,
# latency and energy accounting (NUM_UOP_CLASSES-sized tables are never
# indexed with it), but interpreters dispatch on ``cls_idx`` alone, so
# HALT needs its own slot: ``cls >= CLS_NOP`` covers NOP-and-HALT sites.
CLS_HALT = 10
UCLASS_IDX: dict[UopClass, int] = {cls: i for i, cls in enumerate(UopClass)}
NUM_UOP_CLASSES = len(UopClass)

# Issue-port groups (indices into the per-cycle port-availability list).
PORT_MEM, PORT_ALU, PORT_MULDIV, PORT_FP = range(4)
_PORT_OF_CLASS = {
    UopClass.LOAD: PORT_MEM,
    UopClass.STORE: PORT_MEM,
    UopClass.IALU: PORT_ALU,
    UopClass.BRANCH: PORT_ALU,
    UopClass.NOP: PORT_ALU,
    UopClass.IMUL: PORT_MULDIV,
    UopClass.IDIV: PORT_MULDIV,
    UopClass.FADD: PORT_FP,
    UopClass.FMUL: PORT_FP,
    UopClass.FDIV: PORT_FP,
}

_OPCODE_CLASS = {
    Opcode.LD: UopClass.LOAD,
    Opcode.ST: UopClass.STORE,
    Opcode.ADD: UopClass.IALU,
    Opcode.SUB: UopClass.IALU,
    Opcode.AND: UopClass.IALU,
    Opcode.OR: UopClass.IALU,
    Opcode.XOR: UopClass.IALU,
    Opcode.SHL: UopClass.IALU,
    Opcode.SHR: UopClass.IALU,
    Opcode.ADDI: UopClass.IALU,
    Opcode.ANDI: UopClass.IALU,
    Opcode.MOV: UopClass.IALU,
    Opcode.LI: UopClass.IALU,
    Opcode.MUL: UopClass.IMUL,
    Opcode.DIV: UopClass.IDIV,
    Opcode.FADD: UopClass.FADD,
    Opcode.FMUL: UopClass.FMUL,
    Opcode.FDIV: UopClass.FDIV,
    Opcode.BEQ: UopClass.BRANCH,
    Opcode.BNE: UopClass.BRANCH,
    Opcode.BLT: UopClass.BRANCH,
    Opcode.BGE: UopClass.BRANCH,
    Opcode.JMP: UopClass.BRANCH,
    Opcode.JR: UopClass.BRANCH,
    Opcode.CALL: UopClass.BRANCH,
    Opcode.RET: UopClass.BRANCH,
    Opcode.NOP: UopClass.NOP,
    Opcode.HALT: UopClass.NOP,
}

CONDITIONAL_BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}
)
INDIRECT_BRANCHES = frozenset({Opcode.JR, Opcode.RET})
UNCONDITIONAL_BRANCHES = frozenset(
    {Opcode.JMP, Opcode.JR, Opcode.CALL, Opcode.RET}
)

# Per-opcode bound semantic functions, populated by ``repro.isa.semantics``
# at import time (the package __init__ imports semantics before any
# instruction can be built, so instances always see the filled tables).
# Living here avoids a circular import: semantics imports this module.
ALU_FN_TABLE: dict[Opcode, object] = {}
TAKEN_FN_TABLE: dict[Opcode, object] = {}


class Instruction:
    """A static instruction (== one decoded micro-op).

    ``rd``, ``rs1``, ``rs2`` are architectural register indices (or ``None``
    when unused); ``imm`` is a signed immediate; ``target`` is a static
    branch/jump target PC (``None`` for indirect branches).

    All classification facts (``is_load`` ...) are plain attributes,
    precomputed at decode; only ``target`` is mutated after construction
    (label fixups in the assembler), and no precomputed fact depends on it.
    """

    __slots__ = (
        "opcode", "rd", "rs1", "rs2", "imm", "target",
        # Static decode facts (flat attributes — no properties, no enum
        # hashing on the cycle loop).
        "cls_idx", "port_class",
        "is_load", "is_store", "is_mem", "is_branch",
        "is_conditional_branch", "is_indirect", "is_call", "is_return",
        "is_halt",
        # Register operands with the constant R0 folded out.
        "src1", "src2", "dest_reg",
        # Bound semantics: fn(inst, a, b) -> value / taken.
        "alu_fn", "taken_fn",
    )

    def __init__(
        self,
        opcode: Opcode,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
        imm: int = 0,
        target: Optional[int] = None,
    ) -> None:
        self.opcode = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        cls = _OPCODE_CLASS[opcode]
        self.cls_idx = CLS_HALT if opcode is Opcode.HALT else UCLASS_IDX[cls]
        self.port_class = _PORT_OF_CLASS[cls]
        self.is_load = opcode is Opcode.LD
        self.is_store = opcode is Opcode.ST
        self.is_mem = self.is_load or self.is_store
        self.is_branch = cls is UopClass.BRANCH
        self.is_conditional_branch = opcode in CONDITIONAL_BRANCHES
        self.is_indirect = opcode in INDIRECT_BRANCHES
        self.is_call = opcode is Opcode.CALL
        self.is_return = opcode is Opcode.RET
        self.is_halt = opcode is Opcode.HALT
        self.src1 = rs1 if rs1 is not None and rs1 != 0 else None
        self.src2 = rs2 if rs2 is not None and rs2 != 0 else None
        self.dest_reg = rd if rd is not None and rd != 0 else None
        self.alu_fn = ALU_FN_TABLE.get(opcode)
        self.taken_fn = TAKEN_FN_TABLE.get(opcode)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [self.opcode.name]
        if self.rd is not None:
            parts.append(f"R{self.rd}")
        if self.rs1 is not None:
            parts.append(f"R{self.rs1}")
        if self.rs2 is not None:
            parts.append(f"R{self.rs2}")
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"@{self.target}")
        return f"<{' '.join(parts)}>"

    def key(self) -> tuple:
        """Structural identity tuple (used for exact chain comparison)."""
        return (self.opcode, self.rd, self.rs1, self.rs2, self.imm, self.target)

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
