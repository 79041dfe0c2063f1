"""Out-of-order core correctness: architectural results must match the
in-order reference interpreter."""

import pytest

from repro import DataMemory, Interpreter, ProgramBuilder
from repro.config import default_system
from repro.core import Processor

from util import build_counted_loop, build_sum_array, make_memory_with_array


def run_both(program, memory_fn=lambda: DataMemory(), max_insts=50_000):
    """Run the OoO core and the interpreter to completion; return both."""
    proc = Processor(program, default_system(), memory=memory_fn())
    proc.run(max_insts)
    interp = Interpreter(program, memory_fn())
    for _ in interp.run(max_insts):
        pass
    return proc, interp


def assert_arch_state_matches(proc, interp):
    assert proc.halted == interp.halted
    assert proc.rename.arch_values() == interp.regs
    assert proc.memory.snapshot() == interp.memory.snapshot()


class TestBasicPrograms:
    def test_counted_loop(self):
        proc, interp = run_both(build_counted_loop(50))
        assert_arch_state_matches(proc, interp)
        assert proc.committed == interp.retired

    def test_sum_array(self):
        values = list(range(1, 33))
        program = build_sum_array(0x1000, len(values))
        mem_fn = lambda: make_memory_with_array(0x1000, values)
        proc, interp = run_both(program, mem_fn)
        assert_arch_state_matches(proc, interp)
        assert proc.rename.arch_values()[5] == sum(values)

    def test_stores_commit_in_order(self):
        b = ProgramBuilder()
        b.li("R1", 0x2000)
        for value in (10, 20, 30):
            b.li("R2", value)
            b.store("R2", "R1", 0)
        b.halt()
        proc, interp = run_both(b.build())
        assert_arch_state_matches(proc, interp)
        assert proc.memory.load(0x2000) == 30

    def test_store_to_load_forwarding(self):
        b = ProgramBuilder()
        b.li("R1", 0x3000)
        b.li("R2", 123)
        b.store("R2", "R1", 0)
        b.load("R3", "R1", 0)    # must forward from the in-flight store
        b.add("R4", "R3", "R3")
        b.halt()
        proc, interp = run_both(b.build())
        assert_arch_state_matches(proc, interp)
        assert proc.rename.arch_values()[4] == 246

    def test_branchy_code(self):
        def body(b):
            b.andi("R3", "R1", 1)
            b.beq("R3", "R0", "even")
            b.addi("R4", "R4", 1)
            b.jmp("join")
            b.label("even")
            b.addi("R5", "R5", 1)
            b.label("join")

        b = ProgramBuilder()
        b.li("R1", 0)
        b.li("R2", 64)
        b.label("loop")
        body(b)
        b.addi("R1", "R1", 1)
        b.bne("R1", "R2", "loop")
        b.halt()
        proc, interp = run_both(b.build())
        assert_arch_state_matches(proc, interp)
        assert proc.rename.arch_values()[4] == 32
        assert proc.rename.arch_values()[5] == 32

    def test_call_return(self):
        b = ProgramBuilder()
        b.li("R5", 0)
        b.li("R6", 10)
        b.label("loop")
        b.call("double")
        b.addi("R5", "R5", 1)
        b.bne("R5", "R6", "loop")
        b.halt()
        b.label("double")
        b.add("R7", "R7", "R5")
        b.ret()
        proc, interp = run_both(b.build())
        assert_arch_state_matches(proc, interp)

    def test_long_latency_ops(self):
        b = ProgramBuilder()
        b.li("R1", 1000)
        b.li("R2", 7)
        b.div("R3", "R1", "R2")
        b.mul("R4", "R3", "R2")
        b.fdiv("R5", "R1", "R2")
        b.halt()
        proc, interp = run_both(b.build())
        assert_arch_state_matches(proc, interp)

    def test_memory_dependent_loop(self):
        # Walk an initialised table: data-dependent addresses.
        values = [(i * 37) % 64 for i in range(64)]
        base = 0x8000

        def memory_fn():
            return make_memory_with_array(base, values)

        b2 = ProgramBuilder()
        b2.li("R1", 0)
        b2.li("R2", 40)
        b2.li("R3", base)
        b2.li("R7", 0)
        b2.li("R8", 3)
        b2.li("R9", 0)
        b2.label("loop")
        b2.shl("R4", "R1", "R8")
        b2.add("R4", "R4", "R3")
        b2.load("R1", "R4", 0)   # index = table[index] (dependent walk)
        b2.add("R7", "R7", "R1")
        b2.addi("R9", "R9", 1)
        b2.bne("R9", "R2", "loop")
        b2.halt()
        proc, interp = run_both(b2.build(), memory_fn)
        assert_arch_state_matches(proc, interp)


class TestPipelineBehaviour:
    def test_superscalar_ipc_exceeds_one(self):
        b = ProgramBuilder()
        b.li("R9", 0)
        b.li("R10", 2000)
        b.label("loop")
        for r in range(1, 7):
            b.addi(f"R{r}", f"R{r}", 1)
        b.addi("R9", "R9", 1)
        b.bne("R9", "R10", "loop")
        b.halt()
        proc = Processor(b.build(), default_system())
        stats = proc.run(100_000)
        assert stats.ipc > 1.5

    def test_mispredicts_recovered(self):
        # Data-dependent 50/50 branch on junk values: many mispredicts,
        # architecture must still be exact.
        b = ProgramBuilder()
        b.li("R1", 0x4000)
        b.li("R2", 64)
        b.li("R9", 0)
        b.label("loop")
        b.load("R3", "R1", 0)
        b.andi("R4", "R3", 1)
        b.beq("R4", "R0", "skip")
        b.addi("R5", "R5", 1)
        b.label("skip")
        b.addi("R1", "R1", 8)
        b.addi("R9", "R9", 1)
        b.bne("R9", "R2", "loop")
        b.halt()
        proc, interp = run_both(b.build())
        assert_arch_state_matches(proc, interp)
        assert proc.stats.squashed_uops > 0

    def test_max_cycles_cap(self):
        b = ProgramBuilder()
        b.label("spin")
        b.jmp("spin")
        proc = Processor(b.build(), default_system())
        stats = proc.run(10**9, max_cycles=500)
        assert stats.cycles <= 510
        assert not proc.halted

    def test_max_cycles_cap_clips_a_stored_wake(self):
        """An idle jump stored before a capped run starts (as a run under
        a looser cap can leave one) stops at the new cap."""
        proc = Processor(build_sum_array(1 << 26, 512), default_system())
        proc.run(200)
        cap = proc.now + 5
        proc._wake = cap + 1000
        proc.run(10**9, max_cycles=cap)
        assert proc.now == cap

    def test_instruction_budget(self):
        b = ProgramBuilder()
        b.label("spin")
        b.addi("R1", "R1", 1)
        b.jmp("spin")
        proc = Processor(b.build(), default_system())
        stats = proc.run(1000)
        assert 1000 <= stats.committed_insts <= 1004

    def test_memstall_accounting_on_misses(self):
        program = build_sum_array(1 << 26, 512)
        proc = Processor(program, default_system())
        stats = proc.run(10_000)
        assert stats.memstall_cycles > 0
        assert stats.llc_demand_misses > 0

    def test_stats_dict_roundtrip(self):
        proc = Processor(build_counted_loop(10), default_system())
        stats = proc.run(1000)
        d = stats.to_dict()
        assert d["committed_insts"] == stats.committed_insts
        import json
        json.dumps(d)  # must be serializable
