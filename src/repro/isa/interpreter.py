"""Reference functional interpreter for the mini ISA.

Used by tests (golden model for the out-of-order core's architectural
results) and by the warm-up phase (fast functional execution that feeds
caches and branch predictors without cycle-level timing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .program import Program
from .registers import NUM_ARCH_REGS
from .semantics import MASK64, DataMemory, branch_target
from .uop import (
    CLS_BRANCH,
    CLS_HALT,
    CLS_LOAD,
    CLS_NOP,
    CLS_STORE,
    Instruction,
)


@dataclass(frozen=True)
class RetiredOp:
    """One architecturally executed instruction, as observed by warm-up/tests."""

    seq: int
    pc: int
    inst: Instruction
    next_pc: int
    dest_value: Optional[int] = None
    mem_addr: Optional[int] = None
    taken: Optional[bool] = None


class Interpreter:
    """In-order functional executor of a :class:`Program`."""

    def __init__(
        self,
        program: Program,
        memory: Optional[DataMemory] = None,
        regs: Optional[list[int]] = None,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else DataMemory()
        if regs is None:
            regs = [0] * NUM_ARCH_REGS
        if len(regs) != NUM_ARCH_REGS:
            raise ValueError("regs must have NUM_ARCH_REGS entries")
        self.regs = list(regs)
        self.regs[0] = 0
        self.pc = program.entry
        self.halted = False
        self.retired = 0

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: Optional[int], value: int) -> None:
        if index is not None and index != 0:
            self.regs[index] = value

    def step(self) -> RetiredOp:
        """Execute one instruction and return what happened."""
        if self.halted:
            raise RuntimeError("interpreter is halted")
        pc = self.pc
        inst = self.program.fetch(pc)
        regs = self.regs
        # R0 is folded out at decode (src1/src2 are None for R0), so raw
        # rs1/rs2 reads must still mask it; use the decoded operands.
        a = regs[inst.src1] if inst.src1 is not None else 0
        b = regs[inst.src2] if inst.src2 is not None else 0

        dest_value: Optional[int] = None
        addr: Optional[int] = None
        taken: Optional[bool] = None
        next_pc = pc + 1

        cls = inst.cls_idx
        if cls == CLS_LOAD:
            addr = (a + inst.imm) & MASK64
            dest_value = self.memory.load(addr)
            if inst.dest_reg is not None:
                regs[inst.dest_reg] = dest_value
        elif cls == CLS_STORE:
            addr = (a + inst.imm) & MASK64
            self.memory.store(addr, b)
        elif cls == CLS_BRANCH:
            if inst.is_conditional_branch:
                taken = inst.taken_fn(inst, a, b)
            else:
                taken = True
            if inst.is_call:
                dest_value = (pc + 1) & MASK64
                if inst.dest_reg is not None:
                    regs[inst.dest_reg] = dest_value
            next_pc = branch_target(inst, pc, a, taken)
        elif cls == CLS_HALT:
            self.halted = True
        elif cls != CLS_NOP:
            dest_value = inst.alu_fn(inst, a, b)
            if inst.dest_reg is not None:
                regs[inst.dest_reg] = dest_value

        self.pc = next_pc
        seq = self.retired
        self.retired += 1
        return RetiredOp(
            seq=seq,
            pc=pc,
            inst=inst,
            next_pc=next_pc,
            dest_value=dest_value,
            mem_addr=addr,
            taken=taken,
        )

    def run(self, max_instructions: int) -> Iterator[RetiredOp]:
        """Yield up to ``max_instructions`` retired ops (stops at HALT)."""
        for _ in range(max_instructions):
            if self.halted:
                return
            yield self.step()

    def run_warm(
        self,
        max_instructions: int,
        on_ifetch: Optional[Callable[[int], None]] = None,
        on_mem: Optional[Callable[[int], None]] = None,
        on_branch: Optional[Callable[[int, Instruction, bool, int], None]] = None,
    ) -> int:
        """Batched execution with memory-system callbacks; returns the
        number of instructions executed (stops at HALT).

        This is the reference fast-forward loop of two-tier simulation,
        and :meth:`run_warm_jit` falls back to it per op: the same
        architectural semantics as :meth:`step`, inlined into one loop
        with no :class:`RetiredOp` allocation, reporting side effects
        through callbacks instead — ``on_ifetch(pc)`` once per
        instruction (the HALT included), ``on_mem(addr)`` for every load
        and store, ``on_branch(pc, inst, taken, next_pc)`` for every
        control-flow op.  Per-op callback order (ifetch, then mem/branch)
        matches the order ``Processor.warm_up`` historically applied its
        cache/predictor warming in, so warming through this path is
        bit-identical to warming through :meth:`run`.  Kept honest
        against :meth:`step` by tests/test_warmup_parity.py.
        """
        if self.halted:
            return 0
        regs = self.regs
        memory = self.memory
        # Inlined Program.fetch: flat table hit for in-range PCs, NOP
        # decode for wrong-path out-of-range PCs (same semantics).
        insts = self.program.instructions
        num_insts = len(insts)
        nop = self.program._nop
        pc = self.pc
        executed = 0
        while executed < max_instructions:
            inst = insts[pc] if 0 <= pc < num_insts else nop
            if on_ifetch is not None:
                on_ifetch(pc)
            a = regs[inst.src1] if inst.src1 is not None else 0
            b = regs[inst.src2] if inst.src2 is not None else 0
            next_pc = pc + 1

            cls = inst.cls_idx
            if cls == CLS_LOAD:
                addr = (a + inst.imm) & MASK64
                value = memory.load(addr)
                if inst.dest_reg is not None:
                    regs[inst.dest_reg] = value
                if on_mem is not None:
                    on_mem(addr)
            elif cls == CLS_STORE:
                addr = (a + inst.imm) & MASK64
                memory.store(addr, b)
                if on_mem is not None:
                    on_mem(addr)
            elif cls == CLS_BRANCH:
                if inst.is_conditional_branch:
                    taken = inst.taken_fn(inst, a, b)
                else:
                    taken = True
                if inst.is_call and inst.dest_reg is not None:
                    regs[inst.dest_reg] = (pc + 1) & MASK64
                next_pc = branch_target(inst, pc, a, taken)
                if on_branch is not None:
                    on_branch(pc, inst, taken, next_pc)
            elif cls == CLS_HALT:
                executed += 1
                pc = next_pc
                self.halted = True
                break
            elif cls != CLS_NOP:
                value = inst.alu_fn(inst, a, b)
                if inst.dest_reg is not None:
                    regs[inst.dest_reg] = value

            pc = next_pc
            executed += 1
        self.pc = pc
        self.retired += executed
        return executed

    def run_warm_jit(
        self,
        max_instructions: int,
        warm,
        on_ifetch: Optional[Callable[[int], None]] = None,
        on_mem: Optional[Callable[[int], None]] = None,
        on_branch: Optional[Callable[[int, Instruction, bool, int], None]] = None,
        translate_hook=None,
    ) -> int:
        """Block-compiled variant of :meth:`run_warm` (the fast-forward
        lane).  Same architectural semantics; the compiled blocks feed
        the cache/predictor warm paths of ``warm`` (a
        ``repro.fastpath.blockjit.WarmTargets``) directly in batches.
        Falls back to :meth:`run_warm` with the per-op callbacks for
        out-of-range PCs, non-64-bit-clean registers, and sub-block
        budget tails.
        """
        from ..fastpath.blockjit import run_warm_jit
        return run_warm_jit(self, max_instructions, warm, on_ifetch, on_mem,
                            on_branch, translate_hook)
