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

    def body(b):
        for _ in range(BODY):
            b.load("R5", "R5", 0)

    assert _cycles_per_iteration(body, memory, R5=addr) == BODY * (
        CONFIG.core.latency_agu + CONFIG.l1d.latency)
