"""Block-jit unit tests (``repro.fastpath.blockjit``).

The differential heavy-lifting — compiled lane vs ``run_warm`` over the
fuzz corpus and the real kernels — lives in ``test_warmup_parity.py``.
This file pins the pieces individually: block/region discovery,
generated source shape, content-addressed code sharing, the driver's
fallback rules, the batched branch trainer, and the flattened warm-path
helpers in ``repro.memory.hierarchy``.
"""

from __future__ import annotations

import random

import pytest

from repro.config import build_named_config
from repro.fastpath import blockjit
from repro.fastpath.blockjit import (WarmTargets, jit_program,
                                     program_translate_seconds, warm_geom)
from repro.frontend.branch_predictor import BranchPredictor
from repro.isa import DataMemory, Interpreter, ProgramBuilder
from repro.isa.blocks import (BRANCH, HALT, LOOP, REGION, STRAIGHT,
                              discover_block, discover_region)
from repro.memory import MemoryHierarchy, SharedLLC


def _warm() -> WarmTargets:
    """Fresh baseline caches and predictor for one jit run."""
    cfg = build_named_config("baseline")
    hierarchy = MemoryHierarchy(cfg)
    shift = ((hierarchy.l1i.line_bytes.bit_length() - 1)
             - (blockjit.INST_BYTES.bit_length() - 1))
    return WarmTargets(hierarchy=hierarchy,
                       predictor=BranchPredictor(cfg.branch),
                       prev_taken={}, pc_line_shift=shift)


def _layout() -> tuple[int, tuple]:
    """The (line shift, geometry) specialization of a ``_warm()`` run
    over a default-filled memory."""
    warm = _warm()
    return warm.pc_line_shift, warm_geom(warm.hierarchy, warm.predictor,
                                         DataMemory())


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

def _loop_program():
    """r1 counts down from 100; BNE closes the loop."""
    b = ProgramBuilder()
    b.li("R1", 100)
    b.label("top")
    b.addi("R1", "R1", -1)
    b.bne("R1", "R0", "top")
    b.halt()
    return b.build()


def _chain_program():
    """Two conditional blocks feeding each other, then a halt block."""
    b = ProgramBuilder()
    b.label("a")
    b.addi("R1", "R1", 1)
    b.beq("R1", "R2", "b")
    b.label("b")
    b.addi("R3", "R3", 1)
    b.bne("R3", "R4", "a")
    b.halt()
    return b.build()


class TestDiscovery:
    def test_block_kinds(self):
        program = _loop_program()
        assert discover_block(program, 0).kind == BRANCH  # LI..BNE, not a self-loop
        assert discover_block(program, 1).kind == LOOP    # ADDI..BNE back to 1
        assert discover_block(program, 3).kind == HALT

    def test_straight_block_at_program_end(self):
        b = ProgramBuilder()
        b.addi("R1", "R1", 1)
        b.addi("R2", "R2", 2)
        program = b.build()
        blk = discover_block(program, 0)
        assert blk.kind == STRAIGHT
        assert len(blk.instructions) == 2

    def test_region_grows_over_branch_blocks(self):
        program = _chain_program()
        region = discover_region(program, 0)
        assert region.entries() == {0, 2}
        assert region.total_instructions() == 4

    def test_region_does_not_swallow_halt(self):
        program = _chain_program()
        region = discover_region(program, 0)
        assert all(b.kind in (BRANCH, LOOP) for b in region.blocks)

    def test_singleton_region_for_halt_block(self):
        program = _loop_program()
        region = discover_region(program, 3)
        assert len(region.blocks) == 1
        assert region.blocks[0].kind == HALT

    def test_region_block_cap(self):
        program = _chain_program()
        region = discover_region(program, 0, max_blocks=1)
        assert len(region.blocks) == 1


# ---------------------------------------------------------------------------
# Codegen + code cache
# ---------------------------------------------------------------------------

class TestCodegen:
    def test_source_deterministic(self):
        program = _loop_program()
        blk = discover_block(program, 1)
        s1 = blockjit.generate_source(blk, *_layout())
        s2 = blockjit.generate_source(blk, *_layout())
        assert s1 == s2

    def test_compiled_block_executes(self):
        program = _loop_program()
        interp = Interpreter(program)
        # LI + 100*(ADDI+BNE) + HALT
        assert interp.run_warm_jit(10 ** 6, _warm()) == 202
        assert interp.halted
        ref = Interpreter(program)
        ref.run_warm(10 ** 6)
        assert interp.regs == ref.regs
        assert interp.retired == ref.retired

    def test_code_cache_shared_across_equal_programs(self):
        def build():
            b = ProgramBuilder()
            b.li("R1", 77)
            b.label("top")
            b.addi("R1", "R1", -1)
            b.bne("R1", "R0", "top")
            b.halt()
            return b.build()

        p1, p2 = build(), build()
        jp1 = jit_program(p1, *_layout())
        jp1.entry_at(p1, 1)
        before = len(blockjit._CODE_CACHE)
        jp2 = jit_program(p2, *_layout())
        jp2.entry_at(p2, 1)
        assert len(blockjit._CODE_CACHE) == before  # content-addressed hit
        # Same compiled code object underneath, distinct bound functions.
        assert jp1.entries[1].fn.__code__ is jp2.entries[1].fn.__code__

    def test_translate_accounting(self):
        program = _loop_program()
        jp = jit_program(program, *_layout())
        jp.entry_at(program, 1)
        assert jp.translate_count == 1
        assert jp.translate_seconds > 0.0
        assert program_translate_seconds(program) == pytest.approx(
            jp.translate_seconds)

    def test_translate_hook_fires_once_per_translation(self):
        program = _loop_program()
        calls: list[tuple[int, int, bool]] = []
        interp = Interpreter(program)
        interp.run_warm_jit(50, _warm(),
                            translate_hook=lambda *a: calls.append(a))
        first = list(calls)
        assert first, "hook never fired"
        for pc, length, loop in first:
            assert program.in_range(pc)
            assert length >= 1
            assert isinstance(loop, bool)
        # The region at pc 0 contains the loop, so its translation is
        # reported as loop-shaped.
        assert first[0][0] == 0 and first[0][2] is True
        # Second run on the same program: everything is served from the
        # per-program entry cache, so the hook stays silent.
        interp2 = Interpreter(program)
        interp2.run_warm_jit(50, _warm(),
                             translate_hook=lambda *a: calls.append(a))
        assert calls == first


# ---------------------------------------------------------------------------
# Driver fallback rules
# ---------------------------------------------------------------------------

class TestDriverFallbacks:
    def test_halted_is_inert(self):
        program = _loop_program()
        interp = Interpreter(program)
        interp.run_warm_jit(10 ** 6, _warm())
        assert interp.halted
        assert interp.run_warm_jit(100, _warm()) == 0

    def test_nonpositive_budget(self):
        interp = Interpreter(_loop_program())
        assert interp.run_warm_jit(0, _warm()) == 0
        assert interp.run_warm_jit(-5, _warm()) == 0

    def test_unclean_regs_fall_back_to_interp(self):
        program = _loop_program()
        interp = Interpreter(program)
        interp.regs[5] = -3          # 64-bit-unclean: jit lane must punt
        ref = Interpreter(program)
        ref.regs[5] = -3
        assert interp.run_warm_jit(50, _warm()) == ref.run_warm(50)
        assert interp.regs == ref.regs
        assert interp.pc == ref.pc

    def test_out_of_range_pc_falls_back(self):
        # No HALT: execution runs off the end into NOP padding, which
        # only the interpreter models.
        b = ProgramBuilder()
        b.addi("R1", "R1", 1)
        b.addi("R2", "R2", 2)
        program = b.build()
        interp = Interpreter(program)
        ref = Interpreter(program)
        assert interp.run_warm_jit(10, _warm()) == ref.run_warm(10)
        assert interp.regs == ref.regs
        assert interp.pc == ref.pc

    def test_budget_tail_is_exact(self):
        # Budget ends mid-block: the per-op fallback must stop exactly.
        program = _loop_program()
        for budget in (1, 2, 3, 4, 7, 50):
            interp = Interpreter(program)
            ref = Interpreter(program)
            assert interp.run_warm_jit(budget, _warm()) == \
                ref.run_warm(budget)
            assert interp.pc == ref.pc
            assert interp.regs == ref.regs


# ---------------------------------------------------------------------------
# Batched branch trainer
# ---------------------------------------------------------------------------

class TestWarmUpdateVector:
    def test_matches_sequential_update(self):
        program = _loop_program()
        inst = program.instructions[2]  # the BNE
        rng = random.Random(42)
        for trial in range(20):
            outcomes = [rng.random() < 0.7 for _ in range(rng.randint(1, 60))]
            cfg = build_named_config("baseline").branch
            seq, vec = BranchPredictor(cfg), BranchPredictor(cfg)
            prev_seq: dict[int, bool] = {}
            for taken in outcomes:
                mispred = prev_seq.get(2, False) != taken
                seq.update(2, inst, taken, 1, mispred)
                prev_seq[2] = taken
            prev_vec: dict[int, bool] = {}
            vec.warm_update_vector(2, inst, outcomes, 1, prev_vec)
            assert bytes(seq._gshare) == bytes(vec._gshare)
            assert bytes(seq._bimodal) == bytes(vec._bimodal)
            assert bytes(seq._chooser) == bytes(vec._chooser)
            assert seq.ghr == vec.ghr
            assert dict(seq._btb) == dict(vec._btb)
            assert seq.stats.cond_mispredicts == vec.stats.cond_mispredicts
            assert prev_seq == prev_vec


# ---------------------------------------------------------------------------
# Flattened warm-path helpers (jit lane only)
# ---------------------------------------------------------------------------

def _l1d_cache_state(cache):
    return ([[(k, (ln.ready_cycle, ln.dirty)) for k, ln in s.items()]
             for s in cache._sets], cache._mru_key)


def _stats(cache):
    s = cache.stats
    return (s.hits, s.misses, s.fill_hits, s.evictions, s.writebacks,
            s.invalidations)


def _jit_warm_load(h, line):
    """Generated-code caller contract for the jit side's data access."""
    l1d = h.l1d
    if line != l1d._mru_key:
        s = l1d._sets[line % l1d.num_sets]
        ln = s.get(line)
        if ln is None:
            h.warm_load_miss(line)
        else:
            s.move_to_end(line)
            l1d._mru_key = line
            l1d._mru_line = ln


def _jit_warm_ifetch(h, line):
    """Generated-code caller contract for the jit side's fetch: MRU
    guard, then the inline resident-and-ready fast path, then the flat
    helper."""
    l1i = h.l1i
    if line != l1i._mru_key or l1i._mru_line.ready_cycle > 0:
        s = l1i._sets[line % l1i.num_sets]
        ln = s.get(line)
        if ln is None or ln.ready_cycle > 0:
            h.warm_ifetch_line(line)
        else:
            s.move_to_end(line)
            l1i._mru_key = line
            l1i._mru_line = ln


class TestFlatWarmHelpers:
    """``warm_load_miss``/``warm_ifetch_line`` vs the reference
    ``warm_load``/``warm_ifetch`` over a random address stream long
    enough to exercise L1 and LLC evictions and the back-invalidate.
    Each test runs twice: one private hierarchy per side, then two cores
    per side on one shared LLC, with the stream spread over both."""

    def _sides(self):
        cfg = build_named_config("baseline")
        yield "private", [MemoryHierarchy(cfg)], [MemoryHierarchy(cfg)]
        ref_llc, jit_llc = SharedLLC(cfg), SharedLLC(cfg)
        yield ("shared",
               [MemoryHierarchy(cfg, shared=ref_llc) for _ in range(2)],
               [MemoryHierarchy(cfg, shared=jit_llc) for _ in range(2)])

    def _assert_same(self, label, ref, jit):
        for core, (r, j) in enumerate(zip(ref, jit)):
            for lvl in ("l1d", "l1i"):
                where = f"{label} core {core} {lvl}"
                assert _l1d_cache_state(getattr(r, lvl)) == \
                    _l1d_cache_state(getattr(j, lvl)), where
                assert _stats(getattr(r, lvl)) == _stats(getattr(j, lvl)), \
                    where
        assert _l1d_cache_state(ref[0].llc) == \
            _l1d_cache_state(jit[0].llc), f"{label} llc"
        assert _stats(ref[0].llc) == _stats(jit[0].llc), f"{label} llc"
        assert ref[0].shared._line_owner == jit[0].shared._line_owner, \
            f"{label} line owners"
        assert ref[0].shared.stats.to_dict() == \
            jit[0].shared.stats.to_dict(), f"{label} interference"

    def test_load_path(self):
        for label, ref, jit in self._sides():
            shift = ref[0]._line_shift
            rng = random.Random(7)
            lines = [rng.randrange(1 << 16) for _ in range(30_000)]
            # Mix in reuse so hit, MRU and move_to_end paths all fire.
            lines += [rng.choice(lines[:2_000]) for _ in range(10_000)]
            for line in lines:
                core = rng.randrange(len(ref)) if len(ref) > 1 else 0
                ref[core].warm_load(line << shift)
                _jit_warm_load(jit[core], line)
            self._assert_same(label, ref, jit)

    def test_ifetch_path(self):
        for label, ref, jit in self._sides():
            shift = ref[0]._line_shift
            rng = random.Random(8)
            lines = [rng.randrange(1 << 15) for _ in range(20_000)]
            lines += [rng.choice(lines[:500]) for _ in range(10_000)]
            for line in lines:
                core = rng.randrange(len(ref)) if len(ref) > 1 else 0
                ref[core].warm_ifetch(line << shift)
                _jit_warm_ifetch(jit[core], line)
            self._assert_same(label, ref, jit)

    def test_mixed_load_and_ifetch_share_llc(self):
        for label, ref, jit in self._sides():
            shift = ref[0]._line_shift
            rng = random.Random(9)
            for _ in range(25_000):
                line = rng.randrange(1 << 15)
                core = rng.randrange(len(ref)) if len(ref) > 1 else 0
                if rng.random() < 0.5:
                    ref[core].warm_load(line << shift)
                    _jit_warm_load(jit[core], line)
                else:
                    ref[core].warm_ifetch(line << shift)
                    _jit_warm_ifetch(jit[core], line)
            self._assert_same(label, ref, jit)


# ---------------------------------------------------------------------------
# Warm lane smoke (the full differential lives in test_warmup_parity.py)
# ---------------------------------------------------------------------------

def test_warm_targets_drive_hierarchy_and_predictor():
    interp = Interpreter(_loop_program())
    warm = _warm()
    executed = interp.run_warm_jit(10 ** 6, warm)
    assert interp.halted and executed == 202
    assert warm.hierarchy.l1i._mru_key != -1     # I-lines warmed
    assert 2 in warm.predictor._btb              # loop branch trained
    assert warm.prev_taken == {2: False}         # final not-taken recorded
