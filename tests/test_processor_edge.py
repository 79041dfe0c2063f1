"""Processor corner cases: resource backpressure, retries, indirect flow,
halting inside runahead, and bookkeeping invariants."""

import pytest

from repro import DataMemory, Interpreter, ProgramBuilder
from repro.config import RunaheadMode, default_system, make_config
from repro.core import Processor
from repro.isa import NUM_ARCH_REGS
from repro.obs import Tracer
from repro.workloads import gather

from util import build_counted_loop


class TestResourceInvariants:
    def test_physical_registers_never_leak(self):
        """After a long branchy run, every non-architectural register is
        either free or mapped — the free-list count is consistent."""
        b = ProgramBuilder()
        b.li("R1", 0x4000)
        b.li("R9", 0)
        b.li("R2", 500)
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
        proc = Processor(b.build(), default_system())
        proc.run(50_000)
        in_flight_dests = sum(
            1 for u in proc.rob if u.dest_phys is not None and not u.squashed
        )
        mapped = NUM_ARCH_REGS  # committed mappings
        free = proc.rename.free_count()
        total = proc.config.core.num_phys_regs
        # mapped + free + in-flight (+ old mappings held by in-flight
        # writers) must cover the file; at halt the pipeline is drained.
        assert proc.halted
        assert free + mapped + in_flight_dests >= total - 1
        assert free <= total - mapped

    def test_rob_never_exceeds_capacity(self):
        wl = gather("t_cap", deref_depth=1)
        proc = Processor(wl.program, make_config(RunaheadMode.BUFFER),
                         memory=wl.memory)
        limit = proc.config.core.rob_size
        proc.warm_up(1000)
        for _ in range(5000):
            proc._step()
            assert len(proc.rob) <= limit

    def test_store_queue_bounded(self):
        b = ProgramBuilder()
        b.li("R1", 0x8000)
        b.label("loop")
        for k in range(8):
            b.store("R2", "R1", 8 * k)
        b.addi("R1", "R1", 64)
        b.jmp("loop")
        proc = Processor(b.build(), default_system())
        cap = proc.config.core.store_queue_size
        for _ in range(3000):
            proc._step()
            assert len(proc.store_queue) <= cap


class TestMshrRetryPath:
    def test_load_retries_when_mshrs_full(self):
        """A burst of independent misses beyond the MSHR count must all
        eventually complete (retry heap drains)."""
        b = ProgramBuilder()
        b.li("R1", 1 << 26)
        b.li("R2", 1 << 16)  # stride: every load a new line/bank/row
        b.li("R9", 0)
        b.li("R10", 64)
        b.label("loop")
        b.load("R3", "R1", 0)
        b.add("R1", "R1", "R2")
        b.addi("R9", "R9", 1)
        b.bne("R9", "R10", "loop")
        b.halt()
        proc = Processor(b.build(), default_system())
        stats = proc.run(10_000)
        assert proc.halted
        assert stats.llc_demand_misses >= 32


class TestIndirectControlFlow:
    def test_jr_through_btb_pipeline(self):
        """An indirect jump repeatedly taken: first resolve stalls fetch,
        later iterations use the BTB."""
        b = ProgramBuilder()
        b.li("R5", 0)
        b.li("R6", 50)
        b.li("R7", 5)          # pc of the "land" label below
        b.label("loop")
        b.jr("R7")             # pc 3
        b.nop()                # pc 4, never executed
        b.label("land")        # pc 5
        b.addi("R5", "R5", 1)
        b.bne("R5", "R6", "loop")
        b.halt()
        program = b.build()
        assert program.instructions[3].opcode.name == "JR"
        proc = Processor(program, default_system())
        proc.run(10_000)
        interp = Interpreter(program, DataMemory())
        for _ in interp.run(10_000):
            pass
        assert proc.halted
        assert proc.rename.arch_values() == interp.regs

    def test_ret_uses_ras_across_depth(self):
        b = ProgramBuilder()
        b.li("R5", 0)
        b.li("R6", 30)
        b.label("loop")
        b.call("f1")
        b.addi("R5", "R5", 1)
        b.bne("R5", "R6", "loop")
        b.halt()
        b.label("f1")
        b.mov("R20", "R31")     # preserve link
        b.call("f2")
        b.mov("R31", "R20")
        b.ret()
        b.label("f2")
        b.addi("R7", "R7", 1)
        b.ret()
        proc = Processor(b.build(), default_system())
        proc.run(10_000)
        assert proc.halted
        assert proc.rename.arch_values()[7] == 30


class TestRunaheadEdgeCases:
    def test_instruction_budget_hit_inside_runahead(self):
        """Stopping mid-interval must still produce consistent stats and
        a closed interval record."""
        wl = gather("t_stop", deref_depth=1)
        proc = Processor(wl.program, make_config(RunaheadMode.BUFFER),
                         memory=wl.memory)
        stats = proc.run(300)   # small budget: likely stops mid-interval
        assert proc._interval_entry == -1
        assert stats.cycles_in_rab <= stats.cycles

    def test_runahead_disabled_never_enters(self):
        wl = gather("t_off", deref_depth=1)
        proc = Processor(wl.program, make_config(RunaheadMode.NONE),
                         memory=wl.memory)
        stats = proc.run(2000)
        assert stats.runahead_intervals == 0
        assert stats.cycles_in_rab == 0
        assert stats.cycles_in_traditional == 0

    def test_back_to_back_intervals(self):
        wl = gather("t_b2b", deref_depth=1)
        proc = Processor(wl.program,
                         make_config(RunaheadMode.BUFFER_CHAIN_CACHE),
                         memory=wl.memory)
        proc.warm_up(1000)
        tracer = Tracer(kinds=["runahead_exit"])
        tracer.attach(proc)
        stats = proc.run(4000)
        assert stats.rab_intervals >= 3
        exits = tracer.trace.events("runahead_exit")
        for earlier, later in zip(exits, exits[1:]):
            assert later.data["entry_cycle"] >= earlier.cycle

    def test_halt_reached_with_runahead_enabled(self):
        program = build_counted_loop(200)
        proc = Processor(program, make_config(RunaheadMode.HYBRID))
        stats = proc.run(50_000)
        assert proc.halted
        interp = Interpreter(program, DataMemory())
        for _ in interp.run(50_000):
            pass
        assert proc.rename.arch_values() == interp.regs


class TestDecodeBackpressure:
    def test_decode_queue_bounded(self):
        wl = gather("t_dq", deref_depth=1)
        proc = Processor(wl.program, default_system(), memory=wl.memory)
        for _ in range(3000):
            proc._step()
            assert len(proc.decode_queue) <= proc.decode_queue_cap


class TestWatchdog:
    def test_watchdog_raises_on_livelock(self):
        proc = Processor(build_counted_loop(5), default_system())
        proc.run(10_000)
        assert proc.halted
        # Simulate a livelock: force the clock far past the last progress.
        proc.halted = False
        proc.fetch.halted = True
        proc._last_progress = 0
        proc.now = 2_000_000
        with pytest.raises(RuntimeError, match="no forward progress"):
            proc.run(10)
