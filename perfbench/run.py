"""End-to-end and per-layer benchmark of the runahead-buffer reproduction.

Run from the root of a checkout (no install step; the benchmark points
each rep's ``PYTHONPATH`` at the checkout's ``src``):

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0                      # all four workloads
    python3 perfbench/run.py --ab PARENT_SRC CHANGE_SRC --pairs 10
    python3 perfbench/run.py --record-baseline
    python3 perfbench/run.py --regen-reference

A run times one workload for about ``--seconds``: every rep is a fresh
subprocess (rep.py) with its cwd in a temporary directory under
``.perfbench/``, one rep at a time, so the benchmark loads one core.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  README.md explains the workloads, metrics and rules.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("figures", "sampled", "verify", "multicore")
# Workloads whose inputs depend on --seed; the others run fixed inputs
# (rep.py says why for each).
SEEDED = ("multicore",)
DIGESTS = HERE / "reference" / "digests.json"
BASELINE = HERE / "baseline.json"

SETUP_SAMPLES = 7          # set-up-only subprocesses per untraced run
BASELINE_SETS = 3          # untraced sets in baseline.json
RUN_DEADLINE_S = 165       # every rep of a run ends by then
REFERENCE_DEADLINE_S = 850  # a stale sampled reference is rebuilt once


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken child)."""


def catalogue() -> dict:
    """Workloads and metrics as declared in BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def resolve_src(path: str | Path) -> Path:
    """A source tree holding the ``repro`` package: ``path`` itself or its
    ``src`` directory."""
    path = Path(path).resolve()
    for candidate in (path, path / "src"):
        if (candidate / "repro" / "__init__.py").is_file():
            return candidate
    raise BenchError(f"no repro package under {path} (looked in . and src/)")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); inclusive, so they stay inside the data for the
    one to three reps a run takes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env(src: Path) -> dict:
    # REPRO_* variables select budgets, lanes and trace/checkpoint
    # directories; the benchmark fixes all of them.  Bytecode goes to the
    # usual __pycache__ directories whatever the caller's environment says
    # (see compile_bytecode).
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")
           and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
    return env


def spawn(src: Path, args: list[str], timeout: float | None,
          spans: Path | None = None) -> dict:
    """Run rep.py once in a fresh temporary cwd and return its result
    document plus ``duration_s`` (spawn to exit, parent clock).
    ``timeout=None`` waits as long as the rep takes."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cwd = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
    result = cwd / "rep.json"
    cmd = [sys.executable, str(HERE / "rep.py"), *args,
           "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        with open(cwd / "output.log", "w") as log:
            started = time.monotonic()
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(started)],
                                    cwd=cwd, env=_child_env(src),
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(
                    timeout=None if timeout is None else max(1.0, timeout))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        duration = time.monotonic() - started
        output = (cwd / "output.log").read_text()
        if code is None:
            raise BenchError(f"rep.py {' '.join(args)} exceeded {timeout:.0f}s")
        if not result.is_file():
            raise BenchError(f"rep.py {' '.join(args)} exited {code} without "
                             f"a result:\n{output[-3000:]}")
        doc = json.loads(result.read_text())
        doc["duration_s"] = duration
        doc["output"] = output
        return doc
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def compile_bytecode(src: Path) -> None:
    """Compile the source tree and the benchmark to bytecode (untimed).

    Users compile a checkout once and import from bytecode after that, so
    set-up is timed on warm bytecode.  Without this step a fresh checkout
    under PYTHONDONTWRITEBYTECODE recompiles every module in every rep,
    which added about 40 ms (50%) to each set-up sample.  Errors are left
    for the reps to report."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src),
                    str(HERE)], env=_child_env(src), timeout=300,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def ensure_reference(src: Path) -> None:
    """Rebuild the sampled workload's detailed reference in the checkout
    when the committed one carries a stale model stamp (untimed)."""
    out = spawn(src, ["--ensure-reference"], REFERENCE_DEADLINE_S)
    if out["output"].strip():
        print(out["output"].strip(), flush=True)


# ---------------------------------------------------------------------------
# One run: one workload, one seed
# ---------------------------------------------------------------------------

def expected_digest(workload: str, seed: int, stamp: dict) -> str | None:
    try:
        doc = json.loads(DIGESTS.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if doc.get("stamp") != stamp:
        return None
    key = str(seed) if workload in SEEDED else "any"
    return doc["digests"].get(workload, {}).get(key)


def run_workload(src: Path, workload: str, seed: int, seconds: float,
                 trace: bool, budget: str = "full",
                 out_dir: Path | None = None) -> dict:
    """Reps of one workload for about ``seconds`` (untraced), or one
    untraced plus one traced rep (``trace``); returns the run record."""
    compile_bytecode(src)
    if budget == "full":
        ensure_reference(src)
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--budget", budget]

    def left() -> float:
        return deadline - time.monotonic()

    setups = ([spawn(src, base + ["--setup-only"], left())
               for _ in range(SETUP_SAMPLES)] if not trace else [])
    reps = []
    started = time.monotonic()
    while True:
        reps.append(spawn(src, base, left()))
        last = reps[-1]["duration_s"]
        if (trace or time.monotonic() - started + last > seconds
                or left() < 1.5 * last):
            break
    traced = None
    if trace:
        spans = (out_dir or WORK / "out") / workload / "spans.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = spawn(src, base, left(), spans=spans)
        traced["spans_path"] = str(spans)

    done = reps + ([traced] if traced else [])
    attempted = sum(d.get("attempted", 0) for d in setups + done)
    failed = sum(d.get("failed", 0) for d in setups + done)
    problems = [e for d in setups + done for e in d.get("errors", [])]
    ok = [d for d in done if "digest" in d]
    if len(ok) < len(done):
        problems.append("a rep crashed before its outputs could be checked")
    digests = sorted({d["digest"] for d in ok})
    if len(digests) > 1:
        problems.append(f"reps disagree on the simulated digest: {digests}"
                        + (" (traced vs untraced)" if traced else ""))
    # reference/digests.json holds full-budget digests only.
    expected = (expected_digest(workload, seed, ok[0]["stamp"])
                if ok and budget == "full" else None)
    if expected is not None and digests and digests != [expected]:
        problems.append(f"simulated digest {digests} != reference {expected} "
                        f"for model stamp {ok[0]['stamp']}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    record = {
        "workload": workload, "seed": seed, "budget": budget,
        "trace": trace, "seconds": seconds,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "digest": digests[0] if len(digests) == 1 else None,
        "digest_checked": expected is not None,
        "note": ok[0].get("note", "") if ok else "",
        "accuracy": ok[0]["accuracy"] if ok else {},
        "reps": [{k: d.get(k) for k in ("job_s", "wall_s", "setup_s",
                                         "peak_rss_mb", "probe",
                                         "duration_s", "digest")}
                 for d in reps],
    }
    untraced = [d for d in reps if "job_s" in d]
    if not untraced:
        return record
    walls = [d["wall_s"] for d in untraced]
    # wall_s is reported for people; job_s (probe.py) is the gated time.
    samples = {"job_s": [d["job_s"] for d in untraced],
               "wall_s": walls,
               "setup_s": [d["setup_s"] for d in setups + untraced
                           if "setup_s" in d],
               "peak_rss_mb": [d["peak_rss_mb"] for d in untraced]}
    record["summary"] = {}
    for name, vals in samples.items():
        q1, median, q3 = quartiles(vals)
        record["summary"][name] = {"median": median, "q1": q1, "q3": q3,
                                   "n": len(vals)}
    record["end_to_end"] = {name: s["median"]
                            for name, s in record["summary"].items()}
    if traced is not None and "layers" in traced:
        record["per_layer"] = {
            **traced["layers"],
            "trace.overhead": traced["wall_s"] / walls[0] - 1}
        record["missing_boundaries"] = traced["missing_boundaries"]
        record["coverage"] = traced["coverage"]
        record["spans"] = traced["spans_path"]
    return record


def metrics_for(record: dict, cat: dict) -> dict:
    """The run's metrics named as BENCHMARK.json names them."""
    key, source = (("per_layer", record.get("per_layer"))
                   if record["trace"] else
                   ("end_to_end", record.get("end_to_end")))
    if source is None:
        raise BenchError(f"{record['workload']}: no rep produced metrics "
                         f"({'; '.join(record['problems'])[:2000]})")
    missing = [m["name"] for m in cat[key] if m["name"] not in source]
    if missing:
        raise BenchError(f"{record['workload']}: metrics not measured: "
                         f"{missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in cat[key]}


def print_record(record: dict, metrics: dict) -> None:
    w = record["workload"]
    mode = "traced" if record["trace"] else f"{len(record['reps'])} rep(s)"
    print(f"== {w}  seed {record['seed']}  {mode}  "
          f"{'correct' if record['correct'] else 'INCORRECT'}  "
          f"({record['failed']}/{record['attempted']} ops failed)")
    summary = record.get("summary", {})
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not record["trace"] and "wall_s" in summary:
        shown["wall_s"] = (summary["wall_s"]["median"], "s (raw, not gated)")
    for name, (value, unit) in shown.items():
        line = f"  {name:44s} {value:14.6g} {unit}"
        s = summary.get(name)
        if s and not record["trace"]:
            line += (f"   median of {s['n']}, q1 {s['q1']:.6g} "
                     f"q3 {s['q3']:.6g}")
        print(line)
    if not record["trace"]:
        for name, value in record["accuracy"].items():
            print(f"  {name:44s} {value:14.6g}   (model error, "
                  f"deterministic)")
    if record.get("missing_boundaries"):
        print(f"  missing boundaries: {record['missing_boundaries']}")
    if record.get("spans"):
        print(f"  spans: {record['spans']}  (layer self time covers "
              f"{100 * record['coverage']:.1f}% of traced wall)")
    if record["note"]:
        print(f"  note: {record['note']}")
    print(f"  digest {record['digest']} "
          f"({'matches the reference' if record['digest_checked'] else 'no reference for this seed/stamp'})")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def cmd_run(args, cat: dict) -> int:
    src = resolve_src(ROOT / "src")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    records, results = [], {}
    for workload in workloads:
        record = run_workload(src, workload, args.seed, args.seconds, trace,
                              args.budget, args.out)
        metrics = metrics_for(record, cat)
        print_record(record, metrics)
        suffix = "-trace" if trace else ""
        write_json(args.out / f"{workload}-seed{args.seed}{suffix}.json",
                   {**record, "metrics": metrics})
        records.append(record)
        results[workload] = metrics
    metrics = (results[workloads[0]] if len(workloads) == 1 else
               {f"{w}.{name}": m for w, ms in results.items()
                for name, m in ms.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Section 8 of the choosing-metrics guide: a gain needs >= 9/10 pair
    wins and a median gap wider than the parent's interquartile range; a
    parent spread wider than the bound leaves the metric unresolved
    unless every change run beats every parent run."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = (p3 - p1) / pm if pm else 0.0
    gap = sign * (pm - cm)          # > 0: the change is better
    if better == "lower":
        dominant = max(change) < min(parent)
    else:
        dominant = min(change) > max(parent)
    if spread > bound and not dominant:
        call = "unresolved"
    elif wins >= 0.9 * len(parent) and gap > p3 - p1:
        call = "gain"
    elif -gap > bound * pm:
        call = "regression"
    else:
        call = "no change"
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "wins": wins, "pairs": len(parent), "parent_spread": spread,
            "bound": bound, "verdict": call}


def cmd_ab(args, cat: dict) -> int:
    sides = {"parent": resolve_src(args.ab[0]),
             "change": resolve_src(args.ab[1])}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    values = {}    # (workload, metric, side) -> [value per pair]
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                record = run_workload(sides[side], workload, args.seed + i,
                                      args.seconds, False, args.budget)
                metrics = metrics_for(record, cat)
                runs.append({"pair": i, "side": side, "workload": workload,
                             "correct": record["correct"],
                             "failed": record["failed"],
                             "problems": record["problems"],
                             "metrics": {k: v["value"]
                                         for k, v in metrics.items()}})
                for name, m in metrics.items():
                    values.setdefault((workload, name, side), []).append(
                        m["value"])
                print(f"pair {i} {side:6s} {workload:10s} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in metrics.items())
                      + ("" if record["correct"] else
                         f"  INCORRECT: {record['problems']}"), flush=True)
    table = []
    print(f"\n{'workload':10s} {'metric':12s} {'parent med':>11s} "
          f"{'change med':>11s} {'wins':>6s} {'spread':>7s}  verdict")
    for workload in workloads:
        for m in cat["end_to_end"]:
            v = verdict(values[(workload, m["name"], "parent")],
                        values[(workload, m["name"], "change")],
                        m["better"], m["bound"])
            failed = {side: sum(r["failed"] for r in runs
                                if r["side"] == side
                                and r["workload"] == workload)
                      for side in ("parent", "change")}
            if v["verdict"] == "gain" and failed["change"] > failed["parent"]:
                v["verdict"] = "no gain (more operations failed)"
            table.append({"workload": workload, "metric": m["name"],
                          "unit": m["unit"], "failed": failed, **v})
            print(f"{workload:10s} {m['name']:12s} "
                  f"{v['parent']['median']:11.5g} {v['change']['median']:11.5g} "
                  f"{v['wins']:3d}/{v['pairs']:<2d} {v['parent_spread']:7.3f}  "
                  f"{v['verdict']}")
    write_json(args.out / "ab.json", {"parent": str(sides["parent"]),
                                      "change": str(sides["change"]),
                                      "pairs": args.pairs, "seed": args.seed,
                                      "seconds": args.seconds,
                                      "table": table, "runs": runs})
    print(f"\nwritten to {args.out / 'ab.json'}")
    return 0


def host_info() -> dict:
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine()}


def cmd_record_baseline(args, cat: dict) -> int:
    """Three untraced sets at one seed, workloads interleaved round-robin,
    then one traced set; written to baseline.json."""
    src = resolve_src(ROOT / "src")
    host_before = host_info()
    sets = []
    for _ in range(BASELINE_SETS):
        current = {}
        for workload in WORKLOADS:
            record = run_workload(src, workload, args.seed, args.seconds,
                                  False)
            metrics = metrics_for(record, cat)
            print_record(record, metrics)
            if not record["correct"]:
                raise BenchError(f"{workload}: {record['problems']}")
            current[workload] = {k: v["value"] for k, v in metrics.items()}
            current[workload]["wall_s"] = record["end_to_end"]["wall_s"]
            current[workload]["reps"] = len(record["reps"])
        sets.append(current)
    band = {}
    for workload in WORKLOADS:
        band[workload] = {}
        for m in cat["end_to_end"]:
            vals = [s[workload][m["name"]] for s in sets]
            med = statistics.median(vals)
            band[workload][m["name"]] = {
                "median": med, "min": min(vals), "max": max(vals),
                "band": (max(vals) - min(vals)) / med if med else 0.0,
                "bound": m["bound"]}
    traced, accuracy = {}, {}
    for workload in WORKLOADS:
        record = run_workload(src, workload, args.seed, args.seconds, True)
        metrics = metrics_for(record, cat)
        print_record(record, metrics)
        traced[workload] = {k: v["value"] for k, v in metrics.items()}
        traced[workload]["coverage"] = record["coverage"]
        accuracy[workload] = record["accuracy"]
    doc = {"recorded": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
           "host": {"before": host_before, "after": host_info()},
           "seed": args.seed, "run_seconds": args.seconds,
           "sets": sets, "noise_band": band, "accuracy": accuracy,
           "per_layer": traced}
    write_json(BASELINE, doc)
    print(f"written to {BASELINE}")
    return 0


def cmd_regen_reference(args, cat: dict) -> int:
    """Recompute the committed sampled reference and the expected digests
    (multicore for seeds 0..9, the fixed-input workloads once)."""
    src = resolve_src(ROOT / "src")
    spawn(src, ["--write-reference"], None)
    digests, stamp = {}, None
    for workload in WORKLOADS:
        seeds = range(10) if workload in SEEDED else range(1)
        for seed in seeds:
            doc = spawn(src, ["--workload", workload, "--seed", str(seed)],
                        None)
            if doc.get("failed") or "digest" not in doc:
                raise BenchError(f"{workload} seed {seed}: {doc['errors']}")
            stamp = doc["stamp"]
            key = str(seed) if workload in SEEDED else "any"
            digests.setdefault(workload, {})[key] = doc["digest"]
            print(f"{workload} seed {seed}: {doc['digest']}", flush=True)
    write_json(DIGESTS, {"stamp": stamp, "digests": digests})
    print(f"written to {DIGESTS}")
    return 0


def _parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json "
                             "run_seconds); a rep is never cut short")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced rep, per-layer "
                             "metrics")
    parser.add_argument("--out", type=Path, default=WORK / "out",
                        help="where result JSON and spans.json go")
    parser.add_argument("--budget", choices=("full", "tiny"), default="full",
                        help="'tiny' runs sub-second stand-ins of each job "
                             "(test_benchmark.py)")
    parser.add_argument("--ab", nargs=2, metavar=("PARENT_SRC", "CHANGE_SRC"),
                        help="A/B the two source trees in alternating pairs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record-baseline", action="store_true",
                        help="record baseline.json (3 sets + 1 traced)")
    parser.add_argument("--regen-reference", action="store_true",
                        help="recompute reference/*.json after a model change")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so every running rep is killed and
    # reaped by spawn()'s cleanup before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    try:
        cat = catalogue()
        if args.seconds is None:
            args.seconds = cat["run_seconds"]
        if args.ab:
            return cmd_ab(args, cat)
        if args.record_baseline:
            return cmd_record_baseline(args, cat)
        if args.regen_reference:
            return cmd_regen_reference(args, cat)
        return cmd_run(args, cat)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
