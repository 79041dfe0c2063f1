"""Table 1 litmus kernels: loops whose steady-state cycles per iteration
follow from ``repro.config`` alone.

Each kernel is a counted loop around a 16-instruction body, closed by an
``addi`` and a ``bne``.  The loop is warmed up functionally for 5,000
instructions, runs 200 iterations to reach its steady state, and is then
timed over 1,000 iterations.  Each test's docstring derives the expected
cycles per iteration from the baseline configuration (Table 1), and the
measured value must equal it exactly.
"""

from __future__ import annotations

import math

from repro import DataMemory, ProgramBuilder
from repro.config import build_named_config
from repro.core import Processor

BODY = 16                    # instructions in a kernel's loop body
PER_ITERATION = BODY + 2     # the body, then the loop's addi and bne
WARMUP = 5_000
SETTLE = 200
MEASURED = 1_000
CONFIG = build_named_config("baseline")


def _cycles_per_iteration(body, memory=None, **regs) -> float:
    """Time ``body(builder)`` as a counted loop, as the module docstring
    says.  R1 counts iterations up to R2, R6 = 1 and R7 = 2 are constant
    operands, and ``regs`` preloads further registers."""
    b = ProgramBuilder()
    b.li("R1", 0)
    b.li("R2", 1_000_000)     # far past the timed budget
    b.li("R6", 1)
    b.li("R7", 2)
    for reg, value in regs.items():
        b.li(reg, value)
    b.label("loop")
    body(b)
    b.addi("R1", "R1", 1)
    b.bne("R1", "R2", "loop")
    b.halt()
    proc = Processor(b.build(name="litmus"), CONFIG,
                     memory=memory if memory is not None else DataMemory())
    proc.warm_up(WARMUP)
    proc.run(SETTLE * PER_ITERATION)
    cycle, committed = proc.now, proc.committed
    proc.run(MEASURED * PER_ITERATION)
    assert proc.committed - committed == MEASURED * PER_ITERATION
    return (proc.now - cycle) / MEASURED


def test_dependent_add_chain():
    """16 ``add``s, each reading the one before it (R5 = R5 + 1).  Each
    link of the chain takes ``core.latency_ialu`` and the loop's own
    addi/bne overlap with it, so an iteration takes
    16 × ``latency_ialu`` = 16 × 1 = 16 cycles."""
    def body(b):
        for _ in range(BODY):
            b.add("R5", "R5", "R6")

    assert _cycles_per_iteration(body) == BODY * CONFIG.core.latency_ialu


def test_dependent_mul_chain():
    """16 ``mul``s, each reading the one before it (R5 = R5 × 1): the
    add chain with ``core.latency_imul`` per link, so
    16 × ``latency_imul`` = 16 × 4 = 64 cycles."""
    def body(b):
        for _ in range(BODY):
            b.mul("R5", "R5", "R6")

    assert _cycles_per_iteration(body) == BODY * CONFIG.core.latency_imul


def test_independent_alu_work():
    """16 ``add``s of two constants into 16 distinct registers: nothing
    depends on anything, so the front end bounds the loop.  Fetch takes
    at most ``core.width`` instructions a cycle and the predicted-taken
    ``bne`` ends its group, so the 16 + 2 instructions of an iteration
    take ⌈18 / ``width``⌉ = ⌈18 / 4⌉ = 5 cycles.  With
    ``int_alu_units`` = 4, the ALUs need at most 18 / 4 = 4.5 cycles for
    them and do not bind."""
    def body(b):
        for i in range(BODY):
            b.add(f"R{10 + i}", "R6", "R7")

    assert CONFIG.core.int_alu_units >= CONFIG.core.width
    assert _cycles_per_iteration(body) == math.ceil(
        PER_ITERATION / CONFIG.core.width)


def _chase(b):
    """16 chained loads: each load's address is the data of the one
    before it."""
    for _ in range(BODY):
        b.load("R5", "R5", 0)


def _ring(lines: int, base: int = 0x100000) -> DataMemory:
    """``lines`` consecutive cache lines from ``base``, each holding the
    next line's address in its first word; the last points back to
    ``base``."""
    size = CONFIG.l1d.line_bytes
    memory = DataMemory()
    for i in range(lines):
        memory.store(base + i * size, base + (i + 1) % lines * size)
    return memory


def test_l1_pointer_chase():
    """16 chained loads of a word that holds its own address, so every
    load's address is the data of the load before it and every access
    hits the same L1D line.  A load spends ``core.latency_agu`` forming
    its address and ``l1d.latency`` in the cache, so an iteration takes
    16 × (``latency_agu`` + ``l1d.latency``) = 16 × (1 + 3) = 64
    cycles."""
    addr = 0x10000
    memory = DataMemory()
    memory.store(addr, addr)

    assert _cycles_per_iteration(_chase, memory, R5=addr) == BODY * (
        CONFIG.core.latency_agu + CONFIG.l1d.latency)


def test_llc_pointer_chase():
    """16 chained loads around a ring of 4,096 lines (256 KB): 8× the
    L1D, so the LRU L1D has always evicted the next line by the time the
    chase comes back to it, and well inside the LLC, which holds the
    whole ring after warm-up.  Each load misses the L1D and hits the
    LLC, so an iteration takes 16 × (``latency_agu`` + ``l1d.latency``
    + ``llc.latency``) = 16 × (1 + 3 + 18) = 352 cycles."""
    lines = 8 * CONFIG.l1d.size_bytes // CONFIG.l1d.line_bytes
    assert lines * CONFIG.l1d.line_bytes < CONFIG.llc.size_bytes
    base = 0x100000
    assert _cycles_per_iteration(_chase, _ring(lines, base), R5=base) == (
        BODY * (CONFIG.core.latency_agu + CONFIG.l1d.latency
                + CONFIG.llc.latency))


def test_dram_pointer_chase():
    """16 chained loads around a ring of 32,768 lines (2 MB, 2× the
    LLC).  Warm-up, settling and timing together load fewer lines than
    the ring holds, so no timed load revisits a line: each misses the
    L1D and the LLC and goes to DRAM.  A DRAM access pays
    ``controller_latency``, then opens its row (``t_rcd``), reads the
    column (``t_cas``) and moves the line (``t_burst``).  So an
    iteration takes 16 × (``latency_agu`` + ``l1d.latency`` +
    ``llc.latency`` + ``controller_latency`` + ``t_rcd`` + ``t_cas`` +
    ``t_burst``) = 16 × (1 + 3 + 18 + 90 + 44 + 44 + 16) = 3456 cycles.

    Every timed access finds its row already closed: the next load
    reaches DRAM 1 + 3 + 18 + 90 = 112 cycles after the line before it
    left its bank, past the ``row_timeout`` of 96 idle cycles that
    closes a row.  All 16,000 timed accesses are row misses, with no row
    hit and no row conflict, so a dependent chase cannot time the
    row-hit (``t_cas``) or row-conflict (``t_rp`` + ``t_rcd`` +
    ``t_cas``) variants."""
    lines = 2 * CONFIG.llc.size_bytes // CONFIG.llc.line_bytes
    loads = BODY * (WARMUP // PER_ITERATION + SETTLE + MEASURED + 1)
    assert loads < lines
    base = 0x1000000
    dram = CONFIG.dram
    assert _cycles_per_iteration(_chase, _ring(lines, base), R5=base) == (
        BODY * (CONFIG.core.latency_agu + CONFIG.l1d.latency
                + CONFIG.llc.latency + dram.controller_latency
                + dram.t_rcd + dram.t_cas + dram.t_burst))
