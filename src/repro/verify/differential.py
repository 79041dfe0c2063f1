"""Differential execution: OoO core vs. the functional interpreter oracle.

Both sides execute the same program against identically-initialized
memories.  The oracle's retirement stream is the ground truth; the
processor's architectural commit stream (captured via
``Processor.commit_hook``) must match it op for op in

* ``pc`` — program order itself,
* ``next_pc`` / ``taken`` — control-flow resolution,
* ``dest_value`` — every computed result (ALU, load data, link writes),
* ``mem_addr`` — every effective address,

and, once both sides HALT, the final architectural register file and the
final data-memory image must be bit-identical.  The first mismatching
retired op is pinpointed with surrounding context from both streams.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from ..config import SystemConfig, build_named_config
from ..core import Processor
from ..isa import Interpreter, Opcode
from ..isa.uop import CLS_BRANCH, CLS_LOAD, CLS_NOP, CLS_STORE
from .fuzz import FuzzProgram, format_program
from .invariants import InvariantError, attach_invariant_checker

#: How many retired ops around the first mismatch the report shows.
CONTEXT_OPS = 6


class RetireRecord(NamedTuple):
    """The layout of one architecturally retired op in a retirement
    stream.  Streams hold plain tuples of this layout (cheaper to build
    per op; a NamedTuple equals a plain tuple with the same values), so
    two streams compare with one list equality.  This type names the
    fields for reports."""

    pc: int
    opcode: Opcode
    next_pc: int
    taken: Optional[bool]
    dest_value: Optional[int]
    mem_addr: Optional[int]

    def format(self, index: int) -> str:
        parts = [f"#{index}", f"pc={self.pc}", self.opcode.name,
                 f"next={self.next_pc}"]
        if self.dest_value is not None:
            parts.append(f"val={self.dest_value:#x}")
        if self.mem_addr is not None:
            parts.append(f"addr={self.mem_addr:#x}")
        if self.taken is not None:
            parts.append(f"taken={self.taken}")
        return " ".join(parts)


#: The per-op fields diffed, in report order, as indices into a record.
_REPORT_ORDER = tuple(RetireRecord._fields.index(f) for f in (
    "opcode", "pc", "next_pc", "taken", "dest_value", "mem_addr"))


@dataclass
class Divergence:
    """One verified mismatch between the oracle and the OoO core."""

    kind: str                       # stream | length | halt | final_regs |
                                    # final_mem | invariant | exception
    seed: int
    config: str
    index: Optional[int] = None     # first mismatching retire index
    fields: tuple[str, ...] = ()
    detail: str = ""
    context: str = ""               # surrounding ops from both streams


def oracle_stream(fp: FuzzProgram, max_insts: int
                  ) -> tuple[list[tuple], Interpreter]:
    """Execute the program on the reference interpreter."""
    interp = Interpreter(fp.program, fp.memory())
    records = [
        (op.pc, op.inst.opcode, op.next_pc, op.taken, op.dest_value,
         op.mem_addr)
        for op in interp.run(max_insts)
    ]
    return records, interp


def _resolve_config(config: Union[str, SystemConfig]) -> SystemConfig:
    if isinstance(config, str):
        return build_named_config(config)
    return config


def processor_stream(
    fp: FuzzProgram,
    config: Union[str, SystemConfig],
    max_insts: int,
    invariants: bool = False,
    invariant_every: int = 1,
) -> tuple[list[tuple], Processor]:
    """Execute the program on the cycle-level OoO core, capturing the
    architectural commit stream.  With ``invariants=True`` the per-cycle
    invariant checker is attached (see :mod:`repro.verify.invariants`)."""
    proc = Processor(fp.program, _resolve_config(config), memory=fp.memory())
    records: list[tuple] = []
    append = records.append

    def hook(uop, cycle: int) -> None:
        # The oracle's view of the op: a value only for ops that produce
        # one, an address only for memory ops.
        inst = uop.inst
        cls = inst.cls_idx
        pc = uop.pc
        if cls == CLS_BRANCH:
            append((pc, inst.opcode, uop.actual_next_pc, uop.taken,
                    uop.value if inst.is_call else None, None))
        elif cls == CLS_LOAD:
            append((pc, inst.opcode, pc + 1, None, uop.value, uop.mem_addr))
        elif cls == CLS_STORE:
            append((pc, inst.opcode, pc + 1, None, None, uop.mem_addr))
        elif cls >= CLS_NOP:   # NOP or CLS_HALT
            append((pc, inst.opcode, pc + 1, None, None, None))
        else:
            append((pc, inst.opcode, pc + 1, None, uop.value, None))

    proc.commit_hook = hook
    if invariants:
        attach_invariant_checker(proc, every=invariant_every)
    proc.run(max_insts)
    return records, proc


def _context(oracle: list[tuple], actual: list[tuple], index: int) -> str:
    lo = max(0, index - CONTEXT_OPS)
    hi = index + 2
    lines = []
    for title, stream in (("oracle", oracle), ("ooo core", actual)):
        lines.append(f"  {title}:")
        lines += [f"    {'>>' if i == index else '  '} "
                  f"{RetireRecord._make(r).format(i)}"
                  for i, r in enumerate(stream[lo:hi], lo)]
    return "\n".join(lines)


def diff_streams(oracle: list[tuple], actual: list[tuple]
                 ) -> Optional[tuple[int, tuple[str, ...]]]:
    """First (index, mismatching fields) between the two streams, if any
    (a stream that is a prefix of the other has none)."""
    if oracle == actual:
        return None
    fields = RetireRecord._fields
    for index, (o, a) in enumerate(zip(oracle, actual)):
        if o != a:
            return index, tuple(fields[i] for i in _REPORT_ORDER
                                if o[i] != a[i])
    return None


def diff_run(
    fp: FuzzProgram,
    config: Union[str, SystemConfig],
    max_insts: int,
    config_name: str = "",
    invariants: bool = False,
    invariant_every: int = 1,
    oracle_run: Optional[tuple[list[tuple], Interpreter]] = None,
) -> Optional[Divergence]:
    """Run both sides and return the first divergence (or ``None``).

    ``oracle_run`` is this program's :func:`oracle_stream` result, when
    the caller diffs several configs against one oracle run; it is only
    read."""
    name = config_name or (config if isinstance(config, str) else "custom")
    oracle, interp = oracle_run or oracle_stream(fp, max_insts)
    try:
        actual, proc = processor_stream(
            fp, config, max_insts,
            invariants=invariants, invariant_every=invariant_every,
        )
    except InvariantError as exc:
        return Divergence(kind="invariant", seed=fp.seed, config=name,
                          detail=str(exc))
    except Exception:
        return Divergence(kind="exception", seed=fp.seed, config=name,
                          detail=traceback.format_exc())

    mismatch = diff_streams(oracle, actual)
    if mismatch is not None:
        index, fields = mismatch
        return Divergence(
            kind="stream", seed=fp.seed, config=name, index=index,
            fields=fields,
            detail=(f"first mismatching retired op #{index} "
                    f"(fields: {', '.join(fields)})"),
            context=_context(oracle, actual, index),
        )

    if interp.halted != proc.halted:
        return Divergence(
            kind="halt", seed=fp.seed, config=name,
            detail=(f"oracle halted={interp.halted} after {len(oracle)} ops; "
                    f"core halted={proc.halted} after {len(actual)} ops "
                    f"in {proc.now} cycles"),
        )
    if interp.halted and len(oracle) != len(actual):
        index = min(len(oracle), len(actual))
        return Divergence(
            kind="length", seed=fp.seed, config=name, index=index,
            detail=(f"retirement streams differ in length: "
                    f"oracle={len(oracle)} core={len(actual)}"),
            context=_context(oracle, actual, index),
        )

    if interp.halted:
        reg_diffs = [
            f"R{i}: oracle={o:#x} core={a:#x}"
            for i, (o, a) in enumerate(
                zip(interp.regs, proc.rename.arch_values()))
            if o != a
        ]
        if reg_diffs:
            return Divergence(
                kind="final_regs", seed=fp.seed, config=name,
                detail=("final architectural registers differ:\n  "
                        + "\n  ".join(reg_diffs)),
            )
        oracle_mem = interp.memory.snapshot()
        core_mem = proc.memory.snapshot()
        if oracle_mem != core_mem:
            diffs = []
            for key in sorted(set(oracle_mem) | set(core_mem)):
                o, a = oracle_mem.get(key), core_mem.get(key)
                if o != a:
                    diffs.append(f"[{key << 3:#x}]: oracle={o} core={a}")
                if len(diffs) >= 16:
                    break
            return Divergence(
                kind="final_mem", seed=fp.seed, config=name,
                detail=("final data memory differs:\n  "
                        + "\n  ".join(diffs)),
            )
    return None


def render_divergence(div: Divergence, fp: FuzzProgram,
                      max_insts: int) -> str:
    """Full divergence report: what diverged, where, surrounding retired
    ops, the (minimized) reproducer program, and how to replay it."""
    lines = [
        f"DIVERGENCE kind={div.kind} seed={div.seed} config={div.config}",
        div.detail,
    ]
    if div.context:
        lines.append(div.context)
    spec = fp.spec
    lines.append(
        f"reproducer: seed={spec.seed} blocks="
        f"[{', '.join(f'{b.block_id}:{b.kind}' for b in spec.blocks)}] "
        f"outer_iterations={spec.outer_iterations} "
        f"({len(fp.program)} static insts)"
    )
    lines.append(
        f"replay: PYTHONPATH=src python -m repro verify "
        f"--seeds 1 --seed-start {div.seed} --insts {max_insts} "
        f"--configs {div.config}"
    )
    lines.append("program listing:")
    lines.append(format_program(fp.program))
    return "\n".join(lines) + "\n"
