"""Seed-sweep driver for the differential fuzz harness.

``verify_seed`` builds one fuzz program, runs it once on the oracle, and
diffs every requested core configuration against that one oracle run.
The core side runs through :class:`~repro.verify.differential.
SharedRuns`: configs that differ only in their runahead entry policy
share one core run until their entry decisions differ.  On a divergence
it greedily minimizes the reproducer — dropping whole blocks, then
shrinking the outer trip count, as long as the divergence (same kind,
same config) persists — so the report ends with the smallest program
that still fails.  ``run_verify`` sweeps a seed range, writes one report
file per failure, and returns an aggregate summary for the CLI / CI job.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .differential import (Divergence, SharedRuns, diff_run, oracle_stream,
                           render_divergence)
from .fuzz import FuzzProgram, build_fuzz_program, rebuild

#: Every named config the golden grid covers — each exercises a distinct
#: mode of the core (no-runahead, traditional, buffer, buffer+chain
#: cache, hybrid).
DEFAULT_CONFIGS = ("baseline", "runahead", "rab", "rab_cc", "hybrid")


@dataclass
class VerifyOutcome:
    """Result of differentially executing one seed on all configs."""

    seed: int
    insts: int
    configs: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)
    #: Minimized reproducer per failing config, parallel to divergences.
    reproducers: list[FuzzProgram] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _same_failure(a: Divergence, b: Optional[Divergence]) -> bool:
    return b is not None and a.kind == b.kind


def minimize(
    fp: FuzzProgram,
    config: str,
    max_insts: int,
    divergence: Divergence,
    invariants: bool = False,
    invariant_every: int = 1,
) -> tuple[FuzzProgram, Divergence]:
    """Greedy shrink: drop blocks, then halve the outer trip count,
    keeping each change only while the same kind of divergence remains.
    Each candidate runs ``config`` alone, with the campaign's invariant
    checker settings."""
    spec = fp.spec

    def still_fails(candidate: FuzzProgram) -> Optional[Divergence]:
        div = diff_run(candidate, config, max_insts, config_name=config,
                       invariants=invariants,
                       invariant_every=invariant_every)
        return div if _same_failure(divergence, div) else None

    # Pass 1..n: drop one block at a time until no single drop preserves
    # the failure.
    blocks = spec.blocks
    shrunk = True
    while shrunk and len(blocks) > 1:
        shrunk = False
        for i in range(len(blocks)):
            candidate_blocks = blocks[:i] + blocks[i + 1:]
            candidate = rebuild(spec, blocks=candidate_blocks)
            div = still_fails(candidate)
            if div is not None:
                blocks = candidate_blocks
                fp, divergence = candidate, div
                shrunk = True
                break

    # Shrink the outer loop trip count.
    iters = fp.spec.outer_iterations
    while iters > 1:
        candidate = rebuild(spec, blocks=blocks,
                            outer_iterations=max(1, iters // 2))
        div = still_fails(candidate)
        if div is None:
            break
        fp, divergence = candidate, div
        iters = fp.spec.outer_iterations

    return fp, divergence


def verify_seed(
    seed: int,
    insts: int = 20_000,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    invariants: bool = False,
    invariant_every: int = 1,
    do_minimize: bool = True,
) -> VerifyOutcome:
    """Differentially execute one fuzz seed on every config.  The oracle
    does not depend on the config, so it runs once and every config is
    diffed against that one run.  The core runs are shared where the
    configs' trajectories agree (:class:`SharedRuns`); each config is
    still diffed, in order, against its own stream and final state."""
    fp = build_fuzz_program(seed, target_insts=insts // 2)
    oracle_run = oracle_stream(fp, insts)
    runs = SharedRuns(fp, configs, insts, invariants=invariants,
                      invariant_every=invariant_every)
    outcome = VerifyOutcome(seed=seed, insts=insts, configs=tuple(configs))
    for name in configs:
        div = diff_run(fp, name, insts, config_name=name,
                       invariants=invariants,
                       invariant_every=invariant_every,
                       oracle_run=oracle_run, runs=runs)
        if div is None:
            continue
        repro = fp
        if do_minimize:
            repro, div = minimize(fp, name, insts, div,
                                  invariants=invariants,
                                  invariant_every=invariant_every)
        outcome.divergences.append(div)
        outcome.reproducers.append(repro)
    return outcome


def run_verify(
    seeds: int = 50,
    seed_start: int = 0,
    insts: int = 20_000,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    invariants: bool = False,
    invariant_every: int = 1,
    report_dir: Optional[str] = None,
    progress: Optional[Callable[[VerifyOutcome], None]] = None,
) -> dict:
    """Sweep ``seeds`` consecutive seeds; write a report per failure.

    Returns a summary dict with ``seeds_run``, ``configs``, ``failures``
    (list of (seed, config, kind)) and ``reports`` (paths written).
    """
    failures: list[tuple[int, str, str]] = []
    reports: list[str] = []
    for seed in range(seed_start, seed_start + seeds):
        outcome = verify_seed(
            seed, insts=insts, configs=configs, invariants=invariants,
            invariant_every=invariant_every,
        )
        if progress is not None:
            progress(outcome)
        for div, repro in zip(outcome.divergences, outcome.reproducers):
            failures.append((div.seed, div.config, div.kind))
            if report_dir is not None:
                os.makedirs(report_dir, exist_ok=True)
                path = os.path.join(
                    report_dir,
                    f"divergence_seed{div.seed}_{div.config}.txt")
                with open(path, "w") as fh:
                    fh.write(render_divergence(
                        div, repro, insts, invariants=invariants,
                        invariant_every=invariant_every))
                reports.append(path)
    return {
        "seeds_run": seeds,
        "seed_start": seed_start,
        "insts": insts,
        "configs": list(configs),
        "failures": failures,
        "reports": reports,
    }
