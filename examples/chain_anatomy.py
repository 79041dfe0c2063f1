#!/usr/bin/env python3
"""Dependence-chain anatomy: watch Algorithm 1 at work.

Builds a small gather kernel, runs it until the ROB blocks on a miss,
then prints the dependence chain the pseudo-wakeup walk extracts — the
exact uops the runahead buffer will loop — next to the full loop body,
showing the "filtering" that gives the paper its title.

Usage::

    python examples/chain_anatomy.py
"""

from repro import RunaheadMode, make_config
from repro.core import Processor
from repro.workloads import gather


def main() -> None:
    workload = gather("anatomy", deref_depth=1, filler_fp=6, filler_int=2)
    config = make_config(RunaheadMode.BUFFER)
    processor = Processor(workload.program, config, memory=workload.memory)
    processor.warm_up(2_000)

    # Run until the first runahead-buffer interval begins.
    while processor.stats.rab_intervals == 0 and processor.now < 100_000:
        processor._step()
    if not processor.rab.active:
        raise SystemExit("no runahead interval occurred; increase run length")

    chain = processor.rab.chain
    chain_pcs = {uop.pc for uop in chain}

    print("loop body (the front-end's view)")
    print("-" * 54)
    loop_pcs = sorted({uop.pc for uop in chain}
                      | set(range(min(chain_pcs), min(chain_pcs) + 1)))
    del loop_pcs
    program = workload.program
    lo, hi = min(chain_pcs), max(chain_pcs)
    for pc in range(max(0, lo - 1), min(len(program), hi + 8)):
        marker = " <== on the dependence chain" if pc in chain_pcs else ""
        print(f"  pc {pc:3d}: {program.fetch(pc)!r}{marker}")

    print()
    print(f"extracted chain ({len(chain)} uops, capacity "
          f"{processor.rab.capacity}):")
    print("-" * 54)
    for uop in chain:
        print(f"  pc {uop.pc:3d}: {uop.inst!r}")

    print()
    print("The buffer loops these uops through rename while the front-end")
    print("is clock-gated; every iteration advances the induction register")
    print("and dereferences one more future element.")

    stats = processor.run(3_000)
    # rab_iterations counts the chain-loop iterations of the last buffer
    # interval only (RunaheadBuffer.load_chain resets it per interval).
    print(f"\nafter 3k more instructions: intervals={stats.rab_intervals} "
          f"chain-loop iterations in the last interval="
          f"{stats.rab_iterations} "
          f"misses/interval={stats.misses_per_interval:.1f}")


if __name__ == "__main__":
    main()
