"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the workload suite (with Table 2 classes) and the named
    configurations.
``run WORKLOAD``
    Simulate one workload on one configuration and print a stats summary.
``compare WORKLOAD``
    Run several configurations on one workload side by side.
``figure N``
    Regenerate one of the paper's figures/tables from the cached
    experiment matrix (running any missing cells).
``suite``
    Regenerate every figure/table (the full evaluation).
``verify``
    Differentially fuzz the OoO core against the functional interpreter
    oracle: random structured programs, every core mode, retirement
    streams and final state diffed op for op.  Failing seeds produce
    minimized reproducer reports (see docs/simulator.md).
``trace WORKLOAD``
    Run one workload with the observability layer attached and export
    the event trace as Perfetto/Chrome trace JSON (``--perfetto``), a
    structure-occupancy CSV (``--occupancy``, sampled every
    ``--stride`` cycles), and/or a metrics JSON (``--metrics``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from .analysis import ExperimentMatrix, figures, render, write_report
from .analysis.parallel import CellSpec, print_progress, simulate_cells
from .analysis.sweeps import CANNED_SWEEPS, run_named_sweep
from .config import (CONFIG_BUILDERS, SAMPLING_TIERS, SamplingConfig,
                     build_named_config)
from .core import simulate
from .obs import EVENT_KINDS
from .workloads import intensity_of, workload_names

# figure/table id -> (extractor taking a matrix, output filename)
FIGURES: dict[str, tuple[Callable, str]] = {
    "1": (figures.fig01_memory_stalls, "fig01_memory_stalls.txt"),
    "2": (figures.fig02_source_on_chip, "fig02_source_on_chip.txt"),
    "3": (figures.fig03_chain_fraction, "fig03_chain_fraction.txt"),
    "4": (figures.fig04_chain_repetition, "fig04_chain_repetition.txt"),
    "5": (figures.fig05_chain_length, "fig05_chain_length.txt"),
    "9": (figures.fig09_performance_nopf, "fig09_performance_nopf.txt"),
    "10": (figures.fig10_mlp, "fig10_mlp.txt"),
    "11": (figures.fig11_rab_cycles, "fig11_rab_cycles.txt"),
    "12": (figures.fig12_chain_cache_hits, "fig12_chain_cache_hits.txt"),
    "13": (figures.fig13_chain_cache_accuracy,
           "fig13_chain_cache_accuracy.txt"),
    "14": (figures.fig14_hybrid_split, "fig14_hybrid_split.txt"),
    "15": (figures.fig15_performance_pf, "fig15_performance_pf.txt"),
    "16": (figures.fig16_memory_traffic, "fig16_memory_traffic.txt"),
    "17": (figures.fig17_energy_nopf, "fig17_energy_nopf.txt"),
    "18": (figures.fig18_energy_pf, "fig18_energy_pf.txt"),
    "table1": (lambda _m: figures.table1_configuration(),
               "table1_configuration.txt"),
    "table2": (figures.table2_mpki_classes, "table2_mpki_classes.txt"),
    "headline": (figures.headline_summary, "headline_summary.txt"),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _known(what: str, names: Sequence[str]) -> Callable[[str], str]:
    """argparse ``type=`` accepting one name out of ``names``."""
    def check(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {text!r} (choose from {', '.join(names)})")
        return text
    return check


_workload = _known("workload", workload_names())
_config = _known("config", tuple(CONFIG_BUILDERS))

_PLAN_DEFAULTS = SamplingConfig()


def _add_tier_args(sub) -> None:
    sub.add_argument("--tier", choices=SAMPLING_TIERS, default="detailed",
                     help="execution tier: 'detailed' simulates every "
                          "instruction; 'two-level' samples detailed "
                          "windows over a functional fast-forward stream")
    sub.add_argument("--window", type=_positive_int,
                     default=_PLAN_DEFAULTS.window_instructions,
                     metavar="INSTS",
                     help="measured detailed window per stride (two-level)")
    sub.add_argument("--stride", type=_positive_int,
                     default=_PLAN_DEFAULTS.stride_instructions,
                     metavar="INSTS",
                     help="sampling stride: instructions per "
                          "ramp+window+fast-forward segment (two-level)")
    sub.add_argument("--ramp", type=int,
                     default=_PLAN_DEFAULTS.ramp_instructions,
                     metavar="INSTS",
                     help="detailed ramp-up before each measured window, "
                          "excluded from rate estimates (two-level)")


def _sampling_from_args(args) -> Optional[SamplingConfig]:
    """The two-level plan the tier flags describe, or ``None`` for the
    detailed tier."""
    if args.tier == "detailed":
        return None
    return SamplingConfig(tier="two-level", ramp_instructions=args.ramp,
                          window_instructions=args.window,
                          stride_instructions=args.stride)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Runahead-buffer (MICRO'15) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and configurations")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", type=_workload)
    run.add_argument("--config", default="baseline", type=_config)
    run.add_argument("--instructions", type=_positive_int, default=10_000)
    run.add_argument("--warmup", type=_non_negative_int, default=12_000)
    _add_tier_args(run)

    compare = sub.add_parser("compare",
                             help="run several configs on one workload")
    compare.add_argument("workload", type=_workload)
    compare.add_argument("--configs", nargs="+", type=_config,
                         default=["baseline", "runahead", "rab_cc", "hybrid"])
    compare.add_argument("--instructions", type=_positive_int,
                         default=10_000)
    compare.add_argument("--warmup", type=_non_negative_int, default=12_000)
    compare.add_argument("--jobs", type=_positive_int, default=None,
                         help="worker processes (default: all usable CPUs)")

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("id", choices=sorted(FIGURES))
    figure.add_argument("--instructions", type=_positive_int, default=None)

    suite = sub.add_parser("suite", help="regenerate all figures/tables")
    suite.add_argument("--instructions", type=_positive_int, default=None)
    suite.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker processes (default: all usable CPUs)")

    verify = sub.add_parser(
        "verify",
        help="differentially fuzz the OoO core against the oracle")
    verify.add_argument("--seeds", type=_positive_int, default=50,
                        help="number of consecutive fuzz seeds to run")
    verify.add_argument("--seed-start", type=int, default=0,
                        help="first seed (use with --seeds 1 to replay)")
    verify.add_argument("--insts", type=_positive_int, default=20_000,
                        help="per-run instruction budget for both sides")
    verify.add_argument("--invariants", action="store_true",
                        help="attach the per-step invariant checker")
    verify.add_argument("--invariant-every", type=_positive_int, default=1,
                        metavar="N",
                        help="check invariants every N simulated cycles "
                             "(at the first step that reaches each multiple "
                             "of N)")
    verify.add_argument("--configs", nargs="+", default=None,
                        choices=sorted(CONFIG_BUILDERS),
                        help="configs to verify (default: the golden five)")
    verify.add_argument("--report-dir", default="verify_reports",
                        help="where divergence reports are written")

    trace = sub.add_parser(
        "trace",
        help="run one workload with event tracing and export the trace")
    trace.add_argument("workload", type=_workload)
    trace.add_argument("--config", default="hybrid",
                       choices=sorted(CONFIG_BUILDERS))
    trace.add_argument("--instructions", type=_positive_int, default=10_000)
    trace.add_argument("--warmup", type=_non_negative_int, default=12_000)
    trace.add_argument("--events", nargs="+", choices=sorted(EVENT_KINDS),
                       default=None, metavar="KIND",
                       help=f"event kinds to record (default: all of "
                            f"{', '.join(EVENT_KINDS)})")
    trace.add_argument("--capacity", type=_positive_int, default=65536,
                       help="event ring-buffer capacity")
    trace.add_argument("--perfetto", default=None, metavar="OUT",
                       help="write Chrome/Perfetto trace JSON here")
    trace.add_argument("--occupancy", default=None, metavar="OUT",
                       help="write the occupancy-sample CSV here")
    trace.add_argument("--stride", type=_positive_int, default=64,
                       help="cycles between occupancy samples")
    trace.add_argument("--metrics", default=None, metavar="OUT",
                       help="write the metrics-registry JSON here")

    sweep = sub.add_parser("sweep", help="run a sensitivity sweep")
    sweep.add_argument("name", choices=sorted(CANNED_SWEEPS))
    sweep.add_argument("--benches", nargs="+", type=_workload, default=None)
    sweep.add_argument("--instructions", type=_positive_int, default=None)
    sweep.add_argument("--warmup", type=_non_negative_int, default=None)
    sweep.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker processes (default: all usable CPUs)")

    return parser


def _cmd_list() -> int:
    print("workloads (Table 2 classes):")
    for name in workload_names():
        print(f"  {name:12s} {intensity_of(name)}")
    print("\nconfigurations:")
    for name in CONFIG_BUILDERS:
        cfg = build_named_config(name)
        bits = [f"runahead={cfg.runahead.mode.value}"]
        if cfg.prefetcher.enabled:
            bits.append("prefetcher")
        if cfg.runahead.enhancements:
            bits.append("enhancements")
        print(f"  {name:16s} {' '.join(bits)}")
    return 0


def _print_stats(stats, energy) -> None:
    print(f"  ipc                 {stats.ipc:.4f}")
    print(f"  cycles              {stats.cycles}")
    print(f"  instructions        {stats.committed_insts}")
    print(f"  mpki                {stats.mpki:.2f}")
    print(f"  memory-stall cycles {stats.memstall_cycles} "
          f"({100 * stats.memstall_fraction:.1f}%)")
    print(f"  branch accuracy     {100 * stats.branch_accuracy:.1f}%")
    print(f"  dram requests       {stats.dram_requests}")
    if stats.runahead_intervals:
        print(f"  runahead intervals  {stats.runahead_intervals} "
              f"({stats.misses_per_interval:.1f} misses each)")
        print(f"  cycles in runahead  trad={stats.cycles_in_traditional} "
              f"buffer={stats.cycles_in_rab}")
    if stats.chain_cache_hits + stats.chain_cache_misses:
        print(f"  chain cache         "
              f"{100 * stats.chain_cache_hit_rate:.1f}% hit rate")
    print(f"  energy              {energy.total * 1e6:.2f} uJ "
          f"(front-end {energy.frontend_dynamic * 1e6:.2f} uJ)")


def _cmd_run(args) -> int:
    sampling = _sampling_from_args(args)
    result = simulate(args.workload, build_named_config(args.config),
                      max_instructions=args.instructions,
                      warmup_instructions=args.warmup,
                      config_name=args.config,
                      sampling=sampling)
    tier = f" [{sampling.tier}]" if sampling is not None else ""
    print(f"{args.workload} / {args.config}{tier}:")
    _print_stats(result.stats, result.energy)
    if result.sampling is not None:
        meta = result.sampling
        est = meta["estimates"]
        print(f"  sampling            {meta['windows']} windows of "
              f"{meta['window_instructions']} "
              f"(+{meta['ramp_instructions']} ramp) "
              f"every {meta['stride_instructions']} insts")
        print(f"  detailed share      "
              f"{100 * meta['detailed_fraction']:.1f}% "
              f"({meta['detailed_instructions']} of "
              f"{meta['instructions_advanced']} insts)")
        print(f"  sampled estimates   ipc={est['ipc']:.4f} "
              f"mpki={est['mpki']:.2f} "
              f"runahead-share={100 * est['runahead_share']:.1f}%")
    return 0


def _cmd_compare(args) -> int:
    specs = [CellSpec(args.workload, config_name,
                      build_named_config(config_name),
                      args.instructions, args.warmup)
             for config_name in args.configs]
    results = simulate_cells(specs, jobs=args.jobs).stats
    header = (f"{'config':16s} {'ipc':>7s} {'speedup':>8s} {'mpki':>6s} "
              f"{'dram':>6s} {'energy':>8s}")
    print(f"{args.workload}:")
    print(header)
    print("-" * len(header))
    base_ipc: Optional[float] = None
    base_energy: Optional[float] = None
    for config_name, stats in zip(args.configs, results):
        if base_ipc is None:
            base_ipc = stats["ipc"]
            base_energy = stats["total_energy_j"]
        speedup = 100 * (stats["ipc"] / base_ipc - 1)
        energy = 100 * (stats["total_energy_j"] / base_energy - 1)
        print(f"{config_name:16s} {stats['ipc']:7.3f} {speedup:+7.1f}% "
              f"{stats['mpki']:6.1f} {stats['dram_requests']:6d} "
              f"{energy:+7.1f}%")
    return 0


def _matrix(instructions: Optional[int]) -> ExperimentMatrix:
    if instructions is not None:
        return ExperimentMatrix(instructions=instructions)
    return ExperimentMatrix()


def _cmd_figure(args) -> int:
    matrix = _matrix(args.instructions)
    extractor, filename = FIGURES[args.id]
    table = extractor(matrix)
    matrix.save()
    path = write_report(table, filename)
    print(render(table))
    print(f"\nwritten to {path}")
    return 0


def _cmd_suite(args) -> int:
    matrix = _matrix(args.instructions)
    simulated = matrix.prefetch(figures.figure_matrix_cells(),
                                jobs=args.jobs, progress=print_progress)
    if simulated.cells:
        print(f"simulated {simulated.cells} missing cells in "
              f"{simulated.runs} runs")
    for fig_id, (extractor, filename) in FIGURES.items():
        table = extractor(matrix)
        path = write_report(table, filename)
        matrix.save()
        print(f"[{fig_id:>8s}] {table.title}  -> {path}")
    path = figures.export_comparison(matrix)
    print(f"paper-vs-measured headlines  -> {path}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import DEFAULT_CONFIGS, run_verify

    configs = tuple(args.configs) if args.configs else DEFAULT_CONFIGS

    def progress(outcome) -> None:
        mark = "ok" if outcome.ok else "DIVERGED"
        print(f"seed {outcome.seed:5d}  "
              f"[{'/'.join(outcome.configs)}]  {mark}")

    summary = run_verify(
        seeds=args.seeds, seed_start=args.seed_start, insts=args.insts,
        configs=configs, invariants=args.invariants,
        invariant_every=args.invariant_every,
        report_dir=args.report_dir, progress=progress,
    )
    failures = summary["failures"]
    print(f"\n{summary['seeds_run']} seeds x {len(configs)} configs, "
          f"{args.insts} insts each: {len(failures)} divergence(s)")
    if failures:
        for seed, config, kind in failures:
            print(f"  seed={seed} config={config} kind={kind}",
                  file=sys.stderr)
        for path in summary["reports"]:
            print(f"  report: {path}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    from .obs import run_traced

    run = run_traced(
        args.workload, args.config,
        max_instructions=args.instructions,
        warmup_instructions=args.warmup,
        kinds=args.events,
        capacity=args.capacity,
        occupancy_stride=args.stride if args.occupancy else None,
    )
    print(f"{args.workload} / {args.config}: "
          f"{run.stats.committed_insts} insts, {run.stats.cycles} cycles")
    print(run.trace.summary())
    if args.perfetto:
        path = run.write_perfetto(args.perfetto)
        print(f"perfetto trace -> {path}")
    if args.occupancy:
        path = run.write_occupancy(args.occupancy)
        print(f"occupancy csv  -> {path} "
              f"({len(run.samples)} samples, stride {args.stride})")
    if args.metrics:
        path = run.write_metrics(args.metrics)
        print(f"metrics json   -> {path}")
    return 0


def _cmd_sweep(args) -> int:
    table = run_named_sweep(args.name, benches=args.benches,
                            instructions=args.instructions,
                            warmup=args.warmup, jobs=args.jobs)
    path = write_report(table, f"sweep_{args.name}.txt")
    print(render(table))
    print(f"\nwritten to {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tier", "detailed") != "detailed":
        try:
            _sampling_from_args(args).validate()
        except ValueError as exc:
            parser.error(f"sampling plan: {exc}")
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
