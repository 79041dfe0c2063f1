"""Warm-up/oracle parity: the fast-forward tier's foundation.

``Processor.warm_up`` (and ``Processor.fast_forward``, which it wraps)
must agree with the ``repro.isa.interpreter`` oracle bit for bit on
architectural state — final registers, memory image, PC, halt flag — and
``Interpreter.run_warm`` (the batched loop the warm path executes) must
report the exact same retirement stream as the step-by-step oracle,
because the two-tier engine substitutes one for the other between
sampled detailed windows.

``test_*_over_fuzz_corpus`` run the differential over the
``repro.verify`` fuzz corpus (>= 100 seeds).  The two regression tests
at the bottom were written against the pre-fix ``warm_up`` and fail
without the fixes in ``repro.core.processor``:

* halt boundary — warm_up on an already-halted processor built a fresh
  (non-halted) interpreter at ``fetch.pc`` and executed the code placed
  *after* the HALT (the fuzz corpus parks CALL subroutines there),
  corrupting registers and memory and un-halting the core;
* speculative handoff — warm_up mid-run started the interpreter at the
  speculative ``fetch.pc`` with only committed register state, skipping
  every in-flight instruction (their stores and register writes were
  lost) and inheriting a possibly wrong-path PC.  The fix collapses to
  the architectural point (``sync_architectural``) and replays from
  there functionally.
"""

from __future__ import annotations

import pytest

from repro.config import build_named_config
from repro.core.processor import Processor
from repro.fastpath.blockjit import INST_BYTES, WarmTargets
from repro.frontend.branch_predictor import BranchPredictor
from repro.isa import Interpreter
from repro.memory.hierarchy import MemoryHierarchy
from repro.verify.fuzz import build_fuzz_program
from repro.workloads import build_workload

# Acceptance floor: the differential must cover >= 100 fuzz seeds.
PARITY_SEEDS = 120
PARITY_BUDGET = 1_500
PARITY_TARGET_INSTS = 1_200


def _oracle(fuzz, budget: int):
    """Step-by-step reference run; returns (interp, retired ops)."""
    interp = Interpreter(fuzz.program, fuzz.memory())
    ops = list(interp.run(budget))
    return interp, ops


def _run_warm(fuzz, budget: int):
    """Batched run recording every callback; returns (interp, executed,
    ifetch stream, memory stream, branch stream)."""
    interp = Interpreter(fuzz.program, fuzz.memory())
    pcs: list[int] = []
    mems: list[int] = []
    branches: list[tuple[int, bool, int]] = []
    executed = interp.run_warm(
        budget,
        on_ifetch=pcs.append,
        on_mem=mems.append,
        on_branch=lambda pc, inst, taken, nxt: branches.append(
            (pc, taken, nxt)),
    )
    return interp, executed, pcs, mems, branches


def test_run_warm_matches_step_over_fuzz_corpus():
    """The batched loop re-implements step(); the streams keep it honest."""
    failures = []
    for seed in range(PARITY_SEEDS):
        fuzz = build_fuzz_program(seed, target_insts=PARITY_TARGET_INSTS)
        oracle, ops = _oracle(fuzz, PARITY_BUDGET)
        warm, executed, pcs, mems, branches = _run_warm(fuzz, PARITY_BUDGET)
        for what, got, want in (
            ("executed", executed, len(ops)),
            ("retirement stream", pcs, [op.pc for op in ops]),
            ("memory stream", mems,
             [op.mem_addr for op in ops if op.mem_addr is not None]),
            ("branch stream", branches,
             [(op.pc, op.taken, op.next_pc) for op in ops
              if op.inst.is_branch]),
            ("regs", warm.regs, oracle.regs),
            ("pc", warm.pc, oracle.pc),
            ("halted", warm.halted, oracle.halted),
            ("retired", warm.retired, oracle.retired),
            ("memory", warm.memory.snapshot(), oracle.memory.snapshot()),
        ):
            if got != want:
                failures.append(f"seed {seed}: {what} diverged")
                break
    assert not failures, (
        f"{len(failures)}/{PARITY_SEEDS} seeds diverged:\n  "
        + "\n  ".join(failures[:10])
    )


def test_warmup_matches_oracle_over_fuzz_corpus():
    """warm_up on a fresh processor lands on the oracle's state exactly."""
    failures = []
    for seed in range(PARITY_SEEDS):
        fuzz = build_fuzz_program(seed, target_insts=PARITY_TARGET_INSTS)
        interp, ops = _oracle(fuzz, PARITY_BUDGET)
        proc = Processor(fuzz.program, build_named_config("baseline"),
                         memory=fuzz.memory())
        executed = proc.warm_up(PARITY_BUDGET)
        for what, got, want in (
            ("executed", executed, len(ops)),
            ("regs", proc.rename.arch_values(), interp.regs),
            ("pc", proc.fetch.pc, interp.pc),
            ("halted", proc.halted, interp.halted),
            ("memory", proc.memory.snapshot(), interp.memory.snapshot()),
        ):
            if got != want:
                failures.append(f"seed {seed}: {what} diverged")
                break
    assert not failures, (
        f"{len(failures)}/{PARITY_SEEDS} seeds diverged:\n  "
        + "\n  ".join(failures[:10])
    )


def test_warmup_executed_count_stops_at_halt():
    # A budget far past the program's end: parity requires stopping at
    # HALT with the oracle's retired count, not the budget.
    fuzz = build_fuzz_program(11, target_insts=600)
    interp, ops = _oracle(fuzz, 10 ** 6)
    assert interp.halted, "fuzz programs must terminate"
    proc = Processor(fuzz.program, build_named_config("baseline"),
                     memory=fuzz.memory())
    assert proc.warm_up(10 ** 6) == len(ops)
    assert proc.halted


# ---------------------------------------------------------------------------
# Block-jit lane differential (see repro.fastpath.blockjit): the compiled
# fast-forward lane must be interchangeable with run_warm — identical
# architectural state and identical warmed hardware state.
# ---------------------------------------------------------------------------

# Uneven budget schedule: exercises mid-block entry PCs, budget tails
# (the per-op fallback inside run_warm_jit) and resume-from-arbitrary-pc.
JIT_CHUNKS = (7, 113, 1, 64, 500, 9, 1000, 5000)


def _cache_state(cache):
    """Full observable cache state: per-set contents in LRU order plus
    the MRU key (so elided touches can't hide)."""
    return ([[(k, (ln.ready_cycle, ln.dirty)) for k, ln in s.items()]
             for s in cache._sets], cache._mru_key)


def _pred_state(pred):
    return (bytes(pred._gshare), bytes(pred._bimodal), bytes(pred._chooser),
            pred.ghr, dict(pred._btb), list(pred._ras), pred._ras_sp,
            (pred.stats.cond_predictions, pred.stats.cond_mispredicts,
             pred.stats.btb_misses, pred.stats.ras_predictions))


def _warm_lane(program, memory, budget: int, jit: bool):
    """One fast-forward lane against fresh caches/predictor, mirroring
    the closures ``Processor.fast_forward`` builds; returns every piece
    of state the lane is allowed to touch."""
    cfg = build_named_config("baseline")
    interp = Interpreter(program, memory)
    hierarchy = MemoryHierarchy(cfg)
    pred = BranchPredictor(cfg.branch)
    prev_taken: dict[int, bool] = {}
    l1i = hierarchy.l1i
    warm_ifetch = hierarchy.warm_ifetch
    shift = ((l1i.line_bytes.bit_length() - 1)
             - (INST_BYTES.bit_length() - 1))

    def on_ifetch(pc):
        line = pc >> shift
        if line == l1i._mru_key and l1i._mru_line.ready_cycle <= 0:
            return
        warm_ifetch(pc * INST_BYTES)

    def on_branch(pc, inst, taken, next_pc):
        if inst.is_conditional_branch:
            mispred = prev_taken.get(pc, False) != taken
            pred.update(pc, inst, taken, next_pc, mispred)
            prev_taken[pc] = taken
        elif inst.is_branch:
            pred.update(pc, inst, True, next_pc, False)

    if jit:
        warm = WarmTargets(hierarchy=hierarchy, predictor=pred,
                           prev_taken=prev_taken, pc_line_shift=shift)
        executed = 0
        for chunk in (*JIT_CHUNKS, budget):
            if executed >= budget or interp.halted:
                break
            executed += interp.run_warm_jit(
                min(chunk, budget - executed), warm, on_ifetch=on_ifetch,
                on_mem=hierarchy.warm_load, on_branch=on_branch)
    else:
        executed = interp.run_warm(budget, on_ifetch=on_ifetch,
                                   on_mem=hierarchy.warm_load,
                                   on_branch=on_branch)
    return {
        "executed": executed,
        "regs": interp.regs,
        "pc": interp.pc,
        "halted": interp.halted,
        "retired": interp.retired,
        "memory": interp.memory.snapshot(),
        "l1d": _cache_state(hierarchy.l1d),
        "l1i": _cache_state(hierarchy.l1i),
        "llc": _cache_state(hierarchy.llc),
        "pred": _pred_state(pred),
        "prev_taken": dict(prev_taken),
    }


def test_warm_lane_state_parity_over_fuzz_corpus():
    """Caches (LRU order + MRU), predictor tables/BTB/GHR/RAS and stats,
    and architectural state (retired count included) all bit-identical
    across lanes."""
    failures = []
    for seed in range(PARITY_SEEDS):
        fa = build_fuzz_program(seed, target_insts=PARITY_TARGET_INSTS)
        fb = build_fuzz_program(seed, target_insts=PARITY_TARGET_INSTS)
        ref = _warm_lane(fa.program, fa.memory(), PARITY_BUDGET, jit=False)
        jit = _warm_lane(fb.program, fb.memory(), PARITY_BUDGET, jit=True)
        for what in ref:
            if ref[what] != jit[what]:
                failures.append(f"seed {seed}: {what} diverged")
                break
    assert not failures, (
        f"{len(failures)}/{PARITY_SEEDS} seeds diverged:\n  "
        + "\n  ".join(failures[:10])
    )


@pytest.mark.parametrize("workload", ["mcf", "milc", "libquantum", "lbm"])
def test_warm_lane_state_parity_on_workloads(workload):
    """Same differential on the real kernels, where loop superblocks,
    the batched branch trainer and the flat miss paths actually fire."""
    wa = build_workload(workload)
    wb = build_workload(workload)
    ref = _warm_lane(wa.program, wa.memory, 50_000, jit=False)
    jit = _warm_lane(wb.program, wb.memory, 50_000, jit=True)
    for what in ref:
        assert ref[what] == jit[what], f"{workload}: {what} diverged"


# ---------------------------------------------------------------------------
# Lane-equivalence gate: both fast-forward lanes must materialize
# byte-identical warm-state snapshots at every stride boundary.  This is
# strictly stronger than state parity above — it pins the *canonical
# serialization* (repro.fastpath.snapshot_bytes) of everything a
# fast-forward gap carries into the next detailed burst.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["mcf", "libquantum"])
def test_ff_lane_snapshots_byte_identical_at_stride_boundaries(workload):
    from repro.fastpath import snapshot_bytes, snapshot_digest

    stride = 10_000
    boundaries = 5
    wa = build_workload(workload)
    wb = build_workload(workload)
    jit = Processor(wa.program, build_named_config("baseline"),
                    memory=wa.memory)
    interp = Processor(wb.program, build_named_config("baseline"),
                       memory=wb.memory)
    assert (snapshot_bytes(jit.snapshot())
            == snapshot_bytes(interp.snapshot())), "entry states differ"
    for boundary in range(1, boundaries + 1):
        assert jit.fast_forward(stride, lane="jit") == stride
        assert interp.fast_forward(stride, lane="interp") == stride
        a, b = jit.snapshot(), interp.snapshot()
        assert snapshot_bytes(a) == snapshot_bytes(b), (
            f"{workload}: lanes diverged at stride boundary {boundary} "
            f"({snapshot_digest(a)[:12]} != {snapshot_digest(b)[:12]})")


def test_ff_lane_snapshots_byte_identical_over_fuzz_corpus():
    """Same gate over fuzz seeds (uneven strides, mid-block boundaries)."""
    from repro.fastpath import snapshot_bytes

    failures = []
    for seed in range(0, PARITY_SEEDS, 8):
        fa = build_fuzz_program(seed, target_insts=PARITY_TARGET_INSTS)
        fb = build_fuzz_program(seed, target_insts=PARITY_TARGET_INSTS)
        jit = Processor(fa.program, build_named_config("baseline"),
                        memory=fa.memory())
        interp = Processor(fb.program, build_named_config("baseline"),
                           memory=fb.memory())
        for chunk in JIT_CHUNKS:
            jit.fast_forward(chunk, lane="jit")
            interp.fast_forward(chunk, lane="interp")
            if (snapshot_bytes(jit.snapshot())
                    != snapshot_bytes(interp.snapshot())):
                failures.append(f"seed {seed}: diverged after +{chunk}")
                break
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Pre-fix-failing regressions.
# ---------------------------------------------------------------------------

def test_warmup_after_halt_is_inert():
    """Regression (halt boundary): warming a halted processor must be a
    no-op — the pre-fix warm_up fell off the HALT into the subroutine
    region and re-executed code."""
    fuzz = build_fuzz_program(3, target_insts=800)
    assert fuzz.spec.subroutines, "seed must park code after the HALT"
    proc = Processor(fuzz.program, build_named_config("baseline"),
                     memory=fuzz.memory())
    proc.warm_up(10 ** 6)
    assert proc.halted
    regs = proc.rename.arch_values()
    pc = proc.fetch.pc
    mem = proc.memory.snapshot()

    assert proc.warm_up(500) == 0
    assert proc.halted, "warm_up un-halted a finished program"
    assert proc.fetch.pc == pc
    assert proc.rename.arch_values() == regs
    assert proc.memory.snapshot() == mem


@pytest.mark.parametrize("config_name", ["baseline", "rab_cc"])
def test_warmup_mid_run_replays_from_architectural_point(config_name):
    """Regression (speculative handoff / store ordering): warm_up after a
    partial detailed run must land on the same state as the oracle
    executing committed + fast-forwarded instructions from scratch.  The
    pre-fix warm_up jumped to the speculative fetch PC, silently dropping
    every in-flight instruction (including uncommitted stores)."""
    fuzz = build_fuzz_program(7, target_insts=4_000)
    proc = Processor(fuzz.program, build_named_config(config_name),
                     memory=fuzz.memory())
    proc.run(600)
    assert not proc.halted
    committed = proc.committed
    executed = proc.warm_up(800)
    assert executed > 0

    oracle = Interpreter(fuzz.program, fuzz.memory())
    for _ in oracle.run(committed + executed):
        pass
    assert proc.fetch.pc == oracle.pc
    assert proc.rename.arch_values() == oracle.regs
    assert proc.memory.snapshot() == oracle.memory.snapshot()
    assert proc.halted == oracle.halted
