"""Differential correctness verification of the out-of-order core.

The cycle-level :class:`~repro.core.Processor` must compute exactly the
architectural results of the in-order functional
:class:`~repro.isa.Interpreter`, for every operating mode (baseline,
traditional runahead, runahead buffer, hybrid).  This package provides
the standing oracle that enforces that:

* :mod:`repro.verify.fuzz` — a seeded generator of randomized but
  structured programs (pointer chases, aliasing store/load pairs,
  call/branch webs, R0 edge cases, long-latency dependence chains,
  nested counted loops) that are guaranteed to terminate;
* :mod:`repro.verify.differential` — runs one program through both the
  interpreter oracle and the full OoO core (configs that differ only in
  their runahead entry policy share core runs), diffs the retirement streams
  (opcode, pc, next_pc, taken, dest_value, mem_addr) and the final
  architectural register/memory state, and renders a divergence report
  that pinpoints the first mismatching retired op;
* :mod:`repro.verify.invariants` — an opt-in per-cycle invariant checker
  hooked into ``Processor._step`` via a debug shadow (ROB seq
  monotonicity, store-queue/ROB consistency, no runahead-poisoned state
  visible after exit, interval entry/exit sanity);
* :mod:`repro.verify.harness` — the seed-sweep driver behind the
  ``repro verify`` CLI subcommand and the CI ``verify-fuzz`` job,
  including greedy block-level minimization of failing programs.
"""

from .differential import (
    CoreRun,
    Divergence,
    RetireRecord,
    SharedRuns,
    diff_run,
    oracle_stream,
    processor_stream,
    render_divergence,
)
from .fuzz import FuzzProgram, FuzzSpec, build_fuzz_program, rebuild
from .harness import DEFAULT_CONFIGS, VerifyOutcome, run_verify, verify_seed
from .invariants import InvariantChecker, InvariantError, attach_invariant_checker

__all__ = [
    "DEFAULT_CONFIGS",
    "CoreRun",
    "Divergence",
    "FuzzProgram",
    "FuzzSpec",
    "InvariantChecker",
    "InvariantError",
    "RetireRecord",
    "SharedRuns",
    "VerifyOutcome",
    "attach_invariant_checker",
    "build_fuzz_program",
    "diff_run",
    "oracle_stream",
    "processor_stream",
    "rebuild",
    "render_divergence",
    "run_verify",
    "verify_seed",
]
