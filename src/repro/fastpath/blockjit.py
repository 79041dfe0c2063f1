"""Template JIT for the functional fast-forward tier.

``Interpreter.run_warm`` dispatches one Python branch-tree per dynamic
instruction.  This module removes that per-instruction overhead by
translating each basic block (:mod:`repro.isa.blocks`) into a
specialized straight-line Python function — operands, immediates and
semantic functions resolved at translate time, register indices inlined
as locals, ``& MASK64`` folded away wherever the 64-bit-clean register
invariant makes it provably redundant — compiled once with ``compile()``
and cached content-addressed so equal-content programs (sweep cells)
share code objects.  Loop superblocks (a block whose terminal branch
targets its own entry) compile the whole iteration into one Python loop.

The generated code feeds the warm paths of the memory hierarchy and
branch predictor directly, batched where the argument below allows,
instead of calling back once per op.  It is the fast-forward lane of
``Processor.fast_forward``; the reference it must match is
:meth:`Interpreter.run_warm` driven by per-op callbacks.

Bit-identity argument for the batching
--------------------------------------

The reference performs, per op: an L1I-MRU-checked ``warm_ifetch``
(skip when the op's I-line is the L1I MRU entry with a warm fill), then
``warm_load`` for a memory op, then a ``predictor.update`` for a
branch.  The compiled code must reproduce that *warm-side* event
stream exactly.  Three facts govern what may be batched or elided:

1. **I-fetch checks elide statically, except after memory ops.**  If
   op ``j-1`` is a non-memory op on the same I-line as op ``j``, then
   between the two checks nothing touched any cache, so op ``j``'s
   check would observe the MRU state op ``j-1``'s check established
   (line resident and warm) and skip.  Eliding it is a no-op by
   induction from the block-entry check.  A ``warm_load``, however, can
   *evict the current I-line*: a data fill that misses the inclusive
   LLC may choose the I-line as victim, and the LLC back-invalidates
   the L1s (clearing the L1I MRU).  So the check following a memory op
   — and the check at every I-line boundary and at block entry — must
   execute at its historical position.

2. **Memory warms elide behind an L1D MRU guard.**  ``warm_load`` on a
   line that is the current L1D MRU entry is an exact no-op: the MRU
   fast path of ``Cache.lookup`` returns without reordering the set or
   counting stats, and ``warm_load`` then returns without touching the
   LLC.  So the generated code calls ``warm_load`` only when the access
   line differs from ``l1d._mru_key`` — every elided call is provably
   effect-free, and every emitted call runs at its historical position
   between the surrounding I-line probes.

3. **Branch outcomes batch freely across a loop run.**  Predictor
   state (gshare/bimodal/chooser tables, GHR, BTB) is disjoint from
   cache state, and a loop superblock contains exactly one branch, so
   its per-iteration outcomes commute with every cache event in the
   run.  ``BranchPredictor.warm_update_vector`` replays the outcome
   vector in order (GHR-dependent indices preserved) and performs the
   BTB insert once — idempotent after the first taken outcome because
   the (pc, target) pair is static.  Unconditional loop-closing JMPs
   collapse to a single ``update``: iterations 2..n would be exact
   no-ops (the BTB already holds the same entry).

Everything the static argument cannot cover falls back to the reference
interpreter: out-of-range PCs (wrong-path-style execution decodes
padding NOPs), registers that are not 64-bit-clean (the mask-folding
invariant), and sub-block budget tails — all replayed per-op through
:meth:`Interpreter.run_warm`, which is itself differentially fuzzed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..isa.blocks import (
    BRANCH,
    HALT,
    LOOP,
    REGION,
    Block,
    Region,
    discover_region,
)
from ..isa.semantics import MASK64, SIGN_BIT
from ..isa.uop import CLS_LOAD, CLS_NOP, CLS_STORE, Opcode

# Instruction size in bytes (mirrors repro.frontend.fetch.INST_BYTES;
# duplicated here to keep fastpath importable without the frontend).
INST_BYTES = 4

_M = "0x%X" % MASK64
_S = "0x%X" % SIGN_BIT

# Content-addressed store of compiled code objects, shared process-wide:
# key -> code.  Binding a code object to a concrete program (exec in a
# fresh namespace) is cheap; compile() is what this cache amortizes.
_CODE_CACHE: dict[tuple, Any] = {}


def _div64(a: int, b: int) -> int:
    """64-bit signed division (divisor 0 yields 0), masked result."""
    if b == 0:
        return 0
    if a >= 0x8000000000000000:
        a -= 1 << 64
    if b >= 0x8000000000000000:
        b -= 1 << 64
    return (a // b) & MASK64


@dataclass
class WarmTargets:
    """Warm-side bindings of one fast-forward call."""

    hierarchy: Any
    predictor: Any
    prev_taken: dict
    pc_line_shift: int


def warm_geom(hierarchy, predictor, memory) -> tuple:
    """Specialization constants baked into the generated code (and
    therefore into the code-cache key): cache/predictor geometry and the
    functional-memory fill rule."""
    return (
        hierarchy._line_shift,
        hierarchy.l1d.num_sets,
        hierarchy.l1i.num_sets,
        predictor._gshare_mask,
        predictor._bimodal_mask,
        predictor._chooser_mask,
        predictor._history_mask,
        predictor.config.btb_entries,
        memory.default_fill,
    )


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

_COND_OPS = {
    Opcode.BEQ: "==",
    Opcode.BNE: "!=",
}


def _reg(index: Optional[int]) -> str:
    return "0" if index is None else f"r{index}"


def _alu_expr(inst) -> str:
    """Value expression for a non-memory, non-branch op.  Operand locals
    are 64-bit clean (driver invariant), so masks are emitted only where
    the operation can overflow 64 bits."""
    op = inst.opcode
    a = _reg(inst.src1)
    b = _reg(inst.src2)
    if op is Opcode.ADD or op is Opcode.FADD:
        return f"({a} + {b}) & {_M}"
    if op is Opcode.SUB:
        return f"({a} - {b}) & {_M}"
    if op is Opcode.AND:
        return f"{a} & {b}"
    if op is Opcode.OR:
        return f"{a} | {b}"
    if op is Opcode.XOR:
        return f"{a} ^ {b}"
    if op is Opcode.SHL:
        return f"(({a} << ({b} & 63)) & {_M})"
    if op is Opcode.SHR:
        return f"{a} >> ({b} & 63)"
    if op is Opcode.ADDI:
        return a if inst.imm == 0 else f"({a} + {inst.imm}) & {_M}"
    if op is Opcode.ANDI:
        return f"{a} & {inst.imm & MASK64}"
    if op is Opcode.MOV:
        return a
    if op is Opcode.LI:
        return str(inst.imm & MASK64)
    if op is Opcode.MUL or op is Opcode.FMUL:
        return f"({a} * {b}) & {_M}"
    if op is Opcode.DIV or op is Opcode.FDIV:
        return f"_div64({a}, {b})"
    raise AssertionError(f"not an ALU opcode: {op}")


def _cond_expr(inst) -> str:
    op = inst.opcode
    a = _reg(inst.src1)
    b = _reg(inst.src2)
    cmp = _COND_OPS.get(op)
    if cmp is not None:
        return f"{a} {cmp} {b}"
    if op is Opcode.BLT:
        return f"({a} ^ {_S}) < ({b} ^ {_S})"
    if op is Opcode.BGE:
        return f"({a} ^ {_S}) >= ({b} ^ {_S})"
    raise AssertionError(f"not a conditional branch: {op}")


def _addr_expr(inst) -> str:
    if inst.src1 is None:
        return str(inst.imm & MASK64)
    a = f"r{inst.src1}"
    return a if inst.imm == 0 else f"({a} + {inst.imm}) & {_M}"


class _Codegen:
    """Generates the ``_b(regs, mw, W, budget)`` function for one
    block."""

    def __init__(self, block: Block, line_shift: int, geom: tuple) -> None:
        self.block = block
        self.line_shift = line_shift
        (self.data_shift, self.l1d_sets, self.l1i_sets,
         self.gshare_mask, self.bimodal_mask, self.chooser_mask,
         self.history_mask, self.btb_cap, self.fill) = geom
        self.lines: list[str] = []

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    # -- shared helpers -----------------------------------------------------

    def _regs_used(self) -> tuple[list[int], list[int]]:
        used: set[int] = set()
        written: set[int] = set()
        for inst in self.block.instructions:
            if inst.src1 is not None:
                used.add(inst.src1)
            if inst.src2 is not None:
                used.add(inst.src2)
            if inst.dest_reg is not None:
                written.add(inst.dest_reg)
        return sorted(used | written), sorted(written)

    def _has_load_with_dest(self) -> bool:
        return any(inst.cls_idx == CLS_LOAD and inst.dest_reg is not None
                   for inst in self.block.instructions)

    def _arch_mem(self, depth: int, j: int, inst) -> None:
        """Architectural effect of the memory op at block index ``j``;
        leaves the effective address in local ``_a{j}``."""
        self.w(depth, f"_a{j} = {_addr_expr(inst)}")
        if inst.cls_idx == CLS_LOAD:
            d = inst.dest_reg
            if d is not None:
                self.w(depth, f"r{d} = mw_get(_a{j} >> 3)")
                self.w(depth, f"if r{d} is None:")
                # DataMemory.load default-fill, inlined (the miss is the
                # common case for read-mostly working sets).
                if self.fill == "zero":
                    self.w(depth + 1, f"r{d} = 0")
                else:  # splitmix64-style hash of the word index
                    self.w(depth + 1,
                           f"_z = ((_a{j} >> 3) "
                           f"+ 0x9E3779B97F4A7C15) & {_M}")
                    self.w(depth + 1, "_z = ((_z ^ (_z >> 30)) "
                                      f"* 0xBF58476D1CE4E5B9) & {_M}")
                    self.w(depth + 1, "_z = ((_z ^ (_z >> 27)) "
                                      f"* 0x94D049BB133111EB) & {_M}")
                    self.w(depth + 1, f"r{d} = _z ^ (_z >> 31)")
        else:
            self.w(depth, f"mw[_a{j} >> 3] = {_reg(inst.src2)}")

    def _warm_mem(self, depth: int, j: int) -> None:
        """Warm-side effect of the memory op at index ``j``: the L1D MRU
        guard, with the L1D *hit* path of ``warm_load`` inlined (probe
        the set, touch LRU, refresh the MRU pointers — exactly
        ``Cache.lookup(touch=True)``); only misses call out."""
        self.w(depth, f"_l = _a{j} >> {self.data_shift}")
        self.w(depth, "if _l != l1d._mru_key:")
        self.w(depth + 1, f"_s = l1d_sets[_l % {self.l1d_sets}]")
        self.w(depth + 1, "_ln = _s.get(_l)")
        self.w(depth + 1, "if _ln is None:")
        self.w(depth + 2, "warm_load(_l)")
        self.w(depth + 1, "else:")
        self.w(depth + 2, "_s.move_to_end(_l)")
        self.w(depth + 2, "l1d._mru_key = _l")
        self.w(depth + 2, "l1d._mru_line = _ln")

    def _arch_alu(self, depth: int, inst) -> None:
        if inst.dest_reg is not None:
            self.w(depth, f"r{inst.dest_reg} = {_alu_expr(inst)}")

    # -- i-fetch emission rule ----------------------------------------------

    def _iline(self, j: int) -> int:
        return (self.block.entry + j) >> self.line_shift

    def _check_needed(self, j: int) -> bool:
        """Static elision rule (see module docstring): the per-op I-line
        MRU check must be emitted at block entry, at I-line boundaries,
        and at every op following a memory op; everywhere else it
        provably skips."""
        if j == 0:
            return True
        prev = self.block.instructions[j - 1]
        if prev.cls_idx == CLS_LOAD or prev.cls_idx == CLS_STORE:
            return True
        return self._iline(j) != self._iline(j - 1)

    def _warm_check(self, depth: int, j: int) -> None:
        # The pc-units I-line number equals the byte-line address the
        # L1I is keyed by (pc >> (shift-2) == pc*4 >> shift), so one
        # literal serves both the MRU compare and the warm call.
        #
        # The resident-and-ready L1I hit is inlined: the LLC is
        # inclusive, so an L1I-resident line is LLC-resident and the
        # side-effect-free LLC probe inside warm_ifetch_line is a
        # guaranteed hit; with ready_cycle == 0 the only remaining
        # effects are the set reorder and the MRU update — exactly the
        # three statements below.  Loops straddling an I-line boundary
        # ping-pong the MRU every iteration, so this path is hot.
        line = self._iline(j)
        self.w(depth, f"if {line} != l1i._mru_key "
                      f"or l1i._mru_line.ready_cycle > 0:")
        self.w(depth + 1, f"_is = l1i_sets[{line % self.l1i_sets}]")
        self.w(depth + 1, f"_il = _is.get({line})")
        self.w(depth + 1, "if _il is None or _il.ready_cycle > 0:")
        self.w(depth + 2, f"warm_ifetch({line})")
        self.w(depth + 1, "else:")
        self.w(depth + 2, f"_is.move_to_end({line})")
        self.w(depth + 2, f"l1i._mru_key = {line}")
        self.w(depth + 2, "l1i._mru_line = _il")

    # -- bodies -------------------------------------------------------------

    def _body(self, depth: int) -> None:
        """Emit every op except a BRANCH/LOOP terminal (handled by the
        caller); HALT/STRAIGHT blocks are emitted in full."""
        ops = self.block.instructions
        last = len(ops) - 1
        terminal_branch = self.block.kind in (BRANCH, LOOP)
        j = 0
        while j < len(ops):
            if terminal_branch and j == last:
                return
            inst = ops[j]
            cls = inst.cls_idx
            if self._check_needed(j):
                self._warm_check(depth, j)
            if cls == CLS_LOAD or cls == CLS_STORE:
                self._arch_mem(depth, j, inst)
                # warm_load on the L1D MRU line is an exact no-op (the
                # MRU lookup path neither reorders the set nor counts
                # stats), so the call elides behind a guard.
                self._warm_mem(depth, j)
            elif cls < CLS_NOP:
                self._arch_alu(depth, inst)
            # NOP and the terminal HALT have no architectural effect.
            j += 1

    def _terminal_prelude(self, depth: int) -> None:
        """I-fetch check for the terminal branch op."""
        last = len(self.block.instructions) - 1
        if self._check_needed(last):
            self._warm_check(depth, last)

    # -- top-level emitters -------------------------------------------------

    def generate(self) -> str:
        block = self.block
        self.w(0, "def _b(regs, mw, W, budget, pc=0, _bi=_BI):")
        self.w(1, "l1d, l1i, warm_ifetch, warm_load, "
                  "update, warm_vec, _pt, pred = W")
        self.w(1, "l1i_sets = l1i._sets")
        if any(inst.is_mem for inst in block.instructions):
            self.w(1, "l1d_sets = l1d._sets")
        term = block.terminal if block.kind == BRANCH else None
        if term is not None and term.is_conditional_branch:
            self.w(1, "gsh = pred._gshare")
            self.w(1, "bim = pred._bimodal")
            self.w(1, "cho = pred._chooser")
        if term is not None and not term.is_return:
            self.w(1, "btb = pred._btb")
        if self._has_load_with_dest():
            self.w(1, "mw_get = mw.get")
        used, written = self._regs_used()
        for r in used:
            self.w(1, f"r{r} = regs[{r}]")

        kind = self.block.kind
        if kind == LOOP:
            self._emit_loop()
        else:
            self._body(1)
            if kind == BRANCH:
                self._terminal_prelude(1)
                self._emit_branch_terminal(1)
            elif kind == HALT:
                end = self.block.entry + len(self.block.instructions)
                self.w(1, f"nxt = {end}")
            else:  # STRAIGHT
                end = self.block.entry + len(self.block.instructions)
                self.w(1, f"nxt = {end}")

        for r in written:
            self.w(1, f"regs[{r}] = r{r}")
        if kind == LOOP:
            self.w(1, "return nxt, _n")
        else:
            self.w(1, f"return nxt, {len(self.block.instructions)}")
        return "\n".join(self.lines) + "\n"

    def _emit_btb_insert(self, depth: int, bpc: int, target: str) -> None:
        """BTB insert path of ``BranchPredictor.update`` for a taken,
        non-return branch, with the capacity literal baked in."""
        self.w(depth, f"if len(btb) >= {self.btb_cap} "
                      f"and {bpc} not in btb:")
        self.w(depth + 1, "btb.pop(next(iter(btb)))")
        self.w(depth, f"btb[{bpc}] = {target}")

    def _emit_cond_train(self, depth: int, bpc: int) -> None:
        """Conditional-branch path of ``BranchPredictor.update`` with
        ``ghr=None`` (warm-up convention), inlined with the pc-derived
        table indices folded to literals.  Statement order matches
        ``update`` exactly; the mispredict proxy threading matches the
        reference ``on_branch`` closure of ``Processor.fast_forward``."""
        bidx = bpc & self.bimodal_mask
        cidx = bpc & self.chooser_mask
        self.w(depth, "_h = pred.ghr")
        self.w(depth, f"_gi = ({bpc} ^ (_h << 2)) & {self.gshare_mask}")
        self.w(depth, f"pred.ghr = ((_h << 1) | _t) & {self.history_mask}")
        self.w(depth, "_g = gsh[_gi]")
        self.w(depth, f"_bm = bim[{bidx}]")
        self.w(depth, "_gc = (_g >= 2) == _t")
        self.w(depth, "if _gc != ((_bm >= 2) == _t):")
        self.w(depth + 1, f"_c = cho[{cidx}]")
        self.w(depth + 1, "if _gc:")
        self.w(depth + 2, "if _c < 3:")
        self.w(depth + 3, f"cho[{cidx}] = _c + 1")
        self.w(depth + 1, "elif _c > 0:")
        self.w(depth + 2, f"cho[{cidx}] = _c - 1")
        self.w(depth, "if _t:")
        self.w(depth + 1, "if _g < 3:")
        self.w(depth + 2, "gsh[_gi] = _g + 1")
        self.w(depth + 1, "if _bm < 3:")
        self.w(depth + 2, f"bim[{bidx}] = _bm + 1")
        self.w(depth, "else:")
        self.w(depth + 1, "if _g > 0:")
        self.w(depth + 2, "gsh[_gi] = _g - 1")
        self.w(depth + 1, "if _bm > 0:")
        self.w(depth + 2, f"bim[{bidx}] = _bm - 1")
        self.w(depth, f"if _pt.get({bpc}, False) != _t:")
        self.w(depth + 1, "pred.stats.cond_mispredicts += 1")
        self.w(depth, f"_pt[{bpc}] = _t")
        self.w(depth, "if _t:")
        self._emit_btb_insert(depth + 1, bpc, str(self.block.terminal.target))

    def _emit_branch_terminal(self, depth: int) -> None:
        block = self.block
        inst = block.terminal
        bpc = block.entry + len(block.instructions) - 1
        if inst.is_conditional_branch:
            self.w(depth, f"_t = {_cond_expr(inst)}")
            self.w(depth, f"nxt = {inst.target} if _t else {bpc + 1}")
            self._emit_cond_train(depth, bpc)
            return
        if inst.is_call and inst.dest_reg is not None:
            self.w(depth, f"r{inst.dest_reg} = {(bpc + 1) & MASK64}")
        if inst.is_indirect:  # JR / RET
            self.w(depth, f"nxt = {_reg(inst.src1)}")
        else:  # JMP / CALL
            self.w(depth, f"nxt = {inst.target}")
        # update() for an unconditional branch reduces to the BTB insert;
        # for RET it is a complete no-op.
        if not inst.is_return:
            self._emit_btb_insert(depth, bpc, "nxt")

    def _emit_loop(self) -> None:
        block = self.block
        inst = block.terminal
        n = len(block.instructions)
        bpc = block.entry + n - 1
        entry = block.entry
        conditional = inst.is_conditional_branch

        self.w(1, "_n = 0")
        if conditional:
            self.w(1, "_out = []")
            self.w(1, "_ap = _out.append")
        self.w(1, "while True:")
        self._body(2)
        self._terminal_prelude(2)
        if conditional:
            self.w(2, f"_t = {_cond_expr(inst)}")
            self.w(2, "_ap(_t)")
            self.w(2, f"_n += {n}")
            self.w(2, "if not _t:")
            self.w(3, f"nxt = {bpc + 1}")
            self.w(3, "break")
            self.w(2, f"if _n + {n} > budget:")
            self.w(3, f"nxt = {entry}")
            self.w(3, "break")
            # One batched predictor feed for the whole loop run.
            self.w(1, f"warm_vec({bpc}, _bi, _out, {entry}, _pt)")
        else:  # loop-closing JMP
            self.w(2, f"_n += {n}")
            self.w(2, f"if _n + {n} > budget:")
            self.w(3, "break")
            # Iterations 2..n would re-insert the identical BTB entry —
            # exact no-ops — so one update stands for all.
            self.w(1, f"update({bpc}, _bi, True, {entry}, False)")
            self.w(1, f"nxt = {entry}")


def generate_source(block: Block, line_shift: int, geom: tuple) -> str:
    """Generated Python source for one block (exposed for tests)."""
    return _Codegen(block, line_shift, geom).generate()


class _RegionCodegen:
    """Generates one function for a multi-block region: an internal
    ``_pc`` dispatch loop over the segments, registers held in locals
    across segment transitions.  Each segment's body/terminal emission
    is exactly the standalone block codegen's (the per-segment
    :class:`_Codegen` instances share this generator's line buffer), so
    the per-op event stream is identical to running the blocks
    standalone — the region only removes driver dispatch and register
    spills between them."""

    def __init__(self, region: Region, line_shift: int, geom: tuple) -> None:
        self.region = region
        self.lines: list[str] = []
        self.segs = [_Codegen(b, line_shift, geom) for b in region.blocks]
        for seg in self.segs:
            seg.lines = self.lines

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def generate(self) -> str:
        blocks = self.region.blocks
        self.w(0, "def _b(regs, mw, W, budget, pc=0):")
        self.w(1, "l1d, l1i, warm_ifetch, warm_load, "
                  "update, warm_vec, _pt, pred = W")
        self.w(1, "l1i_sets = l1i._sets")
        if any(i.is_mem for b in blocks for i in b.instructions):
            self.w(1, "l1d_sets = l1d._sets")
        if any(b.terminal.is_conditional_branch for b in blocks):
            self.w(1, "gsh = pred._gshare")
            self.w(1, "bim = pred._bimodal")
            self.w(1, "cho = pred._chooser")
        if any(not b.terminal.is_return for b in blocks):
            self.w(1, "btb = pred._btb")
        if any(seg._has_load_with_dest() for seg in self.segs):
            self.w(1, "mw_get = mw.get")
        used: set[int] = set()
        written: set[int] = set()
        for seg in self.segs:
            u, wr = seg._regs_used()
            used.update(u)
            written.update(wr)
        for r in sorted(used | written):
            self.w(1, f"r{r} = regs[{r}]")
        self.w(1, "_n = 0")
        self.w(1, "_pc = pc")
        self.w(1, "while True:")
        for k, (b, seg) in enumerate(zip(blocks, self.segs)):
            self.w(2, f"{'if' if k == 0 else 'elif'} _pc == {b.entry}:")
            self.w(3, f"if _n + {len(b.instructions)} > budget:")
            self.w(4, "break")
            seg._body(3)
            seg._terminal_prelude(3)
            self._seg_terminal(3, b, seg)
        self.w(2, "else:")
        self.w(3, "break")
        for r in sorted(written):
            self.w(1, f"regs[{r}] = r{r}")
        self.w(1, "return _pc, _n")
        return "\n".join(self.lines) + "\n"

    def _seg_terminal(self, depth: int, b: Block, seg: _Codegen) -> None:
        inst = b.terminal
        n = len(b.instructions)
        bpc = b.entry + n - 1
        if inst.is_conditional_branch:
            self.w(depth, f"_t = {_cond_expr(inst)}")
            self.w(depth, f"_n += {n}")
            self.w(depth, f"_pc = {inst.target} if _t else {bpc + 1}")
            # Per-occurrence training: with multiple branches in flight
            # the loop-superblock batching argument does not apply, so
            # each outcome trains at its own position — the reference
            # behaviour.
            seg._emit_cond_train(depth, bpc)
            return
        if inst.is_call and inst.dest_reg is not None:
            self.w(depth, f"r{inst.dest_reg} = {(bpc + 1) & MASK64}")
        self.w(depth, f"_n += {n}")
        if inst.is_indirect:  # JR / RET: dynamic target
            self.w(depth, f"_pc = {_reg(inst.src1)}")
        else:  # JMP / CALL
            self.w(depth, f"_pc = {inst.target}")
        if not inst.is_return:
            seg._emit_btb_insert(depth, bpc, "_pc")


def generate_region_source(region: Region, line_shift: int,
                           geom: tuple) -> str:
    """Generated Python source for a multi-block region (for tests)."""
    return _RegionCodegen(region, line_shift, geom).generate()


# ---------------------------------------------------------------------------
# Per-program block cache and the driver
# ---------------------------------------------------------------------------

class _BlockEntry:
    __slots__ = ("fn", "length", "kind")

    def __init__(self, fn, length: int, kind: str) -> None:
        self.fn = fn
        self.length = length
        self.kind = kind


class JitProgram:
    """Lazily-translated blocks of one :class:`Program` for one cache/
    predictor geometry."""

    __slots__ = ("program", "line_shift", "geom", "entries",
                 "translate_seconds", "translate_count")

    def __init__(self, program, line_shift: int, geom: tuple) -> None:
        self.program = program
        self.line_shift = line_shift
        self.geom = geom
        self.entries: dict[int, _BlockEntry] = {}
        self.translate_seconds = 0.0
        self.translate_count = 0

    def entry_at(self, pc: int,
                 hook: Optional[Callable[[int, int, bool], None]] = None
                 ) -> _BlockEntry:
        t0 = time.perf_counter()
        region = discover_region(self.program, pc)
        blocks = region.blocks
        if len(blocks) == 1:
            block = blocks[0]
            key = (block.key(), self.line_shift, self.geom)
            code = _CODE_CACHE.get(key)
            if code is None:
                src = generate_source(block, self.line_shift, self.geom)
                code = compile(src, f"<blockjit:{self.program.name}:{pc}>",
                               "exec")
                _CODE_CACHE[key] = code
            ns = {"_div64": _div64,
                  "_BI": block.terminal if block.kind in (BRANCH, LOOP)
                  else None}
            exec(code, ns)
            self.entries[pc] = _BlockEntry(
                ns["_b"], len(block.instructions), block.kind)
        else:
            key = (region.key(), self.line_shift, self.geom)
            code = _CODE_CACHE.get(key)
            if code is None:
                src = generate_region_source(region, self.line_shift,
                                             self.geom)
                code = compile(
                    src, f"<blockjit:{self.program.name}:{pc}:region>",
                    "exec")
                _CODE_CACHE[key] = code
            ns = {"_div64": _div64}
            exec(code, ns)
            fn = ns["_b"]
            # One function, dispatchable at every segment entry; the
            # per-entry length drives the driver's fits-in-budget check.
            for b in blocks:
                self.entries[b.entry] = _BlockEntry(
                    fn, len(b.instructions), REGION)
        entry = self.entries[pc]
        self.translate_seconds += time.perf_counter() - t0
        self.translate_count += 1
        if hook is not None:
            hook(pc, region.total_instructions(),
                 len(blocks) > 1 or blocks[0].kind == LOOP)
        return entry


def jit_program(program, line_shift: int, geom: tuple) -> JitProgram:
    """The (per-program-instance) :class:`JitProgram` for one geometry.
    Compiled code objects underneath are content-addressed and shared
    process-wide; this level only holds the bound functions."""
    cache = program.__dict__.setdefault("_blockjit", {})
    k = (line_shift, geom)
    jp = cache.get(k)
    if jp is None:
        jp = cache[k] = JitProgram(program, line_shift, geom)
    return jp


def program_translate_seconds(program) -> float:
    """Total host seconds this program has spent in block translation."""
    cache = program.__dict__.get("_blockjit")
    if not cache:
        return 0.0
    return sum(jp.translate_seconds for jp in cache.values())


def run_warm_jit(interp, max_instructions: int, warm: WarmTargets,
                 on_ifetch=None, on_mem=None, on_branch=None,
                 translate_hook=None) -> int:
    """Block-at-a-time warm execution driver (see
    :meth:`Interpreter.run_warm_jit`).  Returns instructions executed.

    Compiled blocks feed the ``warm`` hierarchy/predictor warm paths
    directly (batched); the per-op callbacks serve only the interpreter
    fallback for budget tails, out-of-range PCs and registers that are
    not 64-bit clean.
    """
    if interp.halted or max_instructions <= 0:
        return 0
    regs = interp.regs
    if any(v < 0 or v > MASK64 for v in regs):
        # Mask-folding in generated code assumes 64-bit-clean registers;
        # anything else replays per-op through the reference loop.
        return interp.run_warm(max_instructions, on_ifetch, on_mem,
                               on_branch)
    program = interp.program
    mem = interp.memory
    h = warm.hierarchy
    p = warm.predictor
    jp = jit_program(program, warm.pc_line_shift, warm_geom(h, p, mem))
    W = (h.l1d, h.l1i, h.warm_ifetch_line, h.warm_load_miss,
         p.update, p.warm_update_vector, warm.prev_taken, p)
    mw = mem._words
    n_prog = len(program.instructions)
    entries = jp.entries
    entry_at = jp.entry_at
    executed = 0
    pc = interp.pc
    while executed < max_instructions:
        if pc < 0 or pc >= n_prog:
            break  # out-of-range: interpreter tail below
        e = entries.get(pc)
        if e is None:
            e = entry_at(pc, translate_hook)
        remaining = max_instructions - executed
        if e.length > remaining:
            break  # sub-block tail: interpreter below
        pc, did = e.fn(regs, mw, W, remaining, pc)
        executed += did
        if e.kind == HALT:
            interp.halted = True
            break
    interp.pc = pc
    interp.retired += executed
    remaining = max_instructions - executed
    if remaining and not interp.halted:
        executed += interp.run_warm(remaining, on_ifetch, on_mem,
                                    on_branch)
    return executed
