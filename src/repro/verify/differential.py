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
from types import TracebackType
from typing import (Callable, Iterator, NamedTuple, Optional, Sequence,
                    Union)

from ..config import (RunaheadConfig, SystemConfig, build_named_config,
                      cohort_key)
from ..core import Processor, SimStats, cohort_runs
from ..isa import DataMemory, Interpreter, Opcode
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


@dataclass
class CoreRun:
    """What the diff reads of one config's core run: the config's own
    stats, and the state the run ended in (shared by every config of a
    shared run)."""

    stats: SimStats
    halted: bool
    cycles: int
    regs: list[int]           # final architectural registers
    memory: DataMemory        # final data memory


def _commit_recorder() -> tuple[list[tuple], Callable]:
    """A retirement stream and the commit hook that builds it."""
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

    return records, hook


class _Failure(NamedTuple):
    """The exception a shared run raised, with its traceback."""

    error: Exception
    tb: Optional[TracebackType]


class SharedRuns:
    """The core runs of one fuzz program for a list of configs.

    Configs with equal :func:`~repro.config.cohort_key` share one
    processor run until their entry decisions differ
    (:func:`repro.core.cohort_runs`); a config with runahead off runs
    alone.  A run happens when :meth:`take` first needs it, and each
    config's stream and :class:`CoreRun` equal its standalone run's.
    With ``invariants=True`` every run carries the invariant checker."""

    def __init__(
        self,
        fp: FuzzProgram,
        configs: Sequence[Union[str, SystemConfig]],
        max_insts: int,
        invariants: bool = False,
        invariant_every: int = 1,
    ) -> None:
        self.fp = fp
        self.invariants = invariants
        self.invariant_every = invariant_every
        # Configs are held by position: the requested configs (None once
        # handed out), the outcomes of finished runs not yet handed out,
        # the stream of the run built last, and per config the run loop
        # of its cohort with the positions that cohort covers.
        self._slots: list = list(configs)
        self._results: dict[int, Union[tuple[list[tuple], CoreRun],
                                       _Failure]] = {}
        self._stream: list[tuple] = []
        resolved = [_resolve_config(c) for c in configs]
        groups: dict[object, list[int]] = {}
        for index, config in enumerate(resolved):
            key = cohort_key(config)
            groups.setdefault(index if key is None else key, []).append(index)
        self._runs: dict[int, tuple[list[int], Iterator]] = {}
        for indices in groups.values():
            loop = cohort_runs([resolved[i] for i in indices], self._build,
                               max_insts)
            for index in indices:
                self._runs[index] = (indices, loop)

    def _build(self, lead: SystemConfig, riders: list[RunaheadConfig]
               ) -> Processor:
        fp = self.fp
        proc = Processor(fp.program, lead, memory=fp.memory(), riders=riders)
        self._stream, proc.commit_hook = _commit_recorder()
        if self.invariants:
            attach_invariant_checker(proc, every=self.invariant_every)
        return proc

    def _collect(self, indices: list[int], proc: Processor,
                 members: list[int], error: Optional[Exception]) -> None:
        """Store one run's outcome for each config still attached at its
        end (``members`` index ``indices``, the cohort's positions)."""
        if error is not None:
            failure = _Failure(error, error.__traceback__)
            for member, attached in zip(members, proc.attached()):
                if attached:
                    self._results[indices[member]] = failure
            return
        state = (proc.halted, proc.now, proc.rename.arch_values(),
                 proc.memory)
        for member, stats in zip(members, proc.member_stats()):
            if stats is not None:
                self._results[indices[member]] = (
                    self._stream, CoreRun(stats, *state))

    def take(self, config: Union[str, SystemConfig]
             ) -> tuple[list[tuple], CoreRun]:
        """``config``'s retirement stream and run record; raises what its
        run raised.  Each config is handed out once, then dropped."""
        index = self._slots.index(config)
        self._slots[index] = None
        indices, loop = self._runs.pop(index)
        while index not in self._results:
            # _collect keeps only the outcome.  The loop drops the run it
            # yielded when it resumes, or with itself once its cohort's
            # last config is taken; that drop frees the run at once.
            self._collect(indices, *next(loop))
        result = self._results.pop(index)
        if isinstance(result, _Failure):
            # Each config raises the error with the run's own traceback.
            raise result.error.with_traceback(result.tb)
        return result


def processor_stream(
    fp: FuzzProgram,
    config: Union[str, SystemConfig],
    max_insts: int,
    invariants: bool = False,
    invariant_every: int = 1,
    runs: Optional[SharedRuns] = None,
) -> tuple[list[tuple], CoreRun]:
    """Execute the program on the cycle-level OoO core, capturing the
    architectural commit stream, and return it with the run's record.
    With ``invariants=True`` the per-step invariant checker is attached
    (see :mod:`repro.verify.invariants`).

    ``runs`` holds the program's runs for several configs
    (:class:`SharedRuns`, built with the same budget and invariant
    settings); without it the config runs as a cohort of one."""
    if runs is None:
        runs = SharedRuns(fp, (config,), max_insts, invariants=invariants,
                          invariant_every=invariant_every)
    return runs.take(config)


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
    runs: Optional[SharedRuns] = None,
) -> Optional[Divergence]:
    """Run both sides and return the first divergence (or ``None``).

    ``oracle_run`` is this program's :func:`oracle_stream` result, when
    the caller diffs several configs against one oracle run; it is only
    read.  ``runs`` holds the core side's shared runs, handed to
    :func:`processor_stream`."""
    name = config_name or (config if isinstance(config, str) else "custom")
    oracle, interp = oracle_run or oracle_stream(fp, max_insts)
    try:
        actual, run = processor_stream(
            fp, config, max_insts,
            invariants=invariants, invariant_every=invariant_every,
            runs=runs,
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

    if interp.halted != run.halted:
        return Divergence(
            kind="halt", seed=fp.seed, config=name,
            detail=(f"oracle halted={interp.halted} after {len(oracle)} ops; "
                    f"core halted={run.halted} after {len(actual)} ops "
                    f"in {run.cycles} cycles"),
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
            for i, (o, a) in enumerate(zip(interp.regs, run.regs))
            if o != a
        ]
        if reg_diffs:
            return Divergence(
                kind="final_regs", seed=fp.seed, config=name,
                detail=("final architectural registers differ:\n  "
                        + "\n  ".join(reg_diffs)),
            )
        oracle_mem = interp.memory.snapshot()
        core_mem = run.memory.snapshot()
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


def render_divergence(div: Divergence, fp: FuzzProgram, max_insts: int,
                      invariants: bool = False,
                      invariant_every: int = 1) -> str:
    """Full divergence report: what diverged, where, surrounding retired
    ops, the (minimized) reproducer program, and how to replay it (with
    the campaign's invariant-checker settings)."""
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
    checker = (f" --invariants --invariant-every {invariant_every}"
               if invariants else "")
    lines.append(
        f"replay: PYTHONPATH=src python -m repro verify "
        f"--seeds 1 --seed-start {div.seed} --insts {max_insts} "
        f"--configs {div.config}{checker}"
    )
    lines.append("program listing:")
    lines.append(format_program(fp.program))
    return "\n".join(lines) + "\n"
