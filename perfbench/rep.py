"""One rep of one benchmark workload, run in a fresh subprocess.

``run.py`` starts this file once per rep with the cwd set to a fresh
temporary directory inside the checkout and ``PYTHONPATH`` pointing at the
checkout's ``src``.  The rep builds the workload's inputs from the seed
(set-up), runs the job (the timed region), checks the job's outputs, and
writes one JSON document to ``--result``.  With ``--spans`` the layer
boundaries are wrapped for the job (see layers.py) and the span summary is
written there.

    python perfbench/rep.py --workload verify --seed 0 --result rep.json

Only public entry points are imported: ``repro.cli.main``,
``ExperimentMatrix``, ``figures``, ``SamplingConfig``, ``run_verify`` and
``simulate_multicore``, plus named configs and the workload lists.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench"

# The `multicore` core pairs: a memory-bound workload next to a streaming
# or stencil one.  The seed decides which workload of each pair is core 0
# (it warms up first and wins scheduling ties): the contention changes,
# the programs do not, so the job's cost stays put across seeds.  Pairs
# re-drawn per seed gave 10.8-12.9 s over six seeds (README.md).
PAIRS = (("mcf", "libquantum"), ("milc", "lbm"),
         ("omnetpp", "soplex"), ("sphinx3", "GemsFDTD"))

# The `verify` campaign: fuzz seeds 0..29, whatever --seed is.  One fuzz
# program's cost varies with a coefficient of variation of 0.52 (0.06 to
# 1.1 s), so 30-program campaigns drawn per seed would differ in cost by
# about 9.5% (one standard deviation) from seed to seed.
VERIFY_SEED_START = 0

BUDGETS = {
    # The jobs the benchmark times (README.md, "Workloads").
    "full": {
        "figures": {"instructions": 5_000, "warmup": 12_000},
        "sampled": {"workloads": None, "configs": ("baseline", "hybrid"),
                    "instructions": 400_000, "warmup": 12_000,
                    "plan": (500, 1_500, 40_000)},
        "verify": {"seeds": 30, "insts": 20_000},
        "multicore": {"pairs": 4, "configs": ("baseline", "rab_cc", "hybrid"),
                      "instructions": 20_000, "warmup": 12_000},
    },
    # Sub-second stand-ins on the same code paths, for test_benchmark.py.
    "tiny": {
        "figures": {"instructions": 200, "warmup": 200},
        "sampled": {"workloads": ("mcf", "lbm"),
                    "configs": ("baseline", "hybrid"),
                    "instructions": 6_000, "warmup": 500,
                    "plan": (100, 300, 2_000)},
        "verify": {"seeds": 2, "insts": 1_000},
        "multicore": {"pairs": 1, "configs": ("baseline", "hybrid"),
                      "instructions": 1_000, "warmup": 500},
    },
}

# Simulated statistics that pin a run's behaviour: timing, traffic,
# runahead activity and energy.  A change meant only to speed up the
# simulator leaves every one of them identical.
DIGEST_FIELDS = ("cycles", "committed_insts", "llc_demand_misses",
                 "dram_reads", "dram_writes", "cond_mispredicts",
                 "runahead_intervals", "cycles_in_rab",
                 "cycles_in_traditional", "prefetches_issued",
                 "chain_cache_hits", "total_energy_j")

# Reproduction error against a reference: the paper's headline numbers
# (figures) and the detailed tier (sampled).
ACCURACY_METRICS = ("analysis.headline_err_pp",
                    "analysis.direction_mismatches",
                    "fastpath.ipc_err_pct", "fastpath.mpki_err_abs")

REFERENCE = HERE / "reference" / "sampled_detailed.json"


def _digest(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pick(stats: dict) -> list:
    return [stats.get(name) for name in DIGEST_FIELDS]


def multicore_pairs(seed: int, count: int) -> list[tuple[str, str]]:
    if seed == 0:
        return list(PAIRS[:count])
    rng = random.Random(seed)
    return [pair[::-1] if rng.random() < 0.5 else pair
            for pair in PAIRS[:count]]


# ---------------------------------------------------------------------------
# The sampled workload's detailed reference
# ---------------------------------------------------------------------------

def _sampled_cells(b: dict) -> list[tuple[str, str, bool]]:
    from repro import medium_high_names
    workloads = b["workloads"] or medium_high_names()
    return [(w, c, False) for w in workloads for c in b["configs"]]


def reference_stamp(b: dict) -> dict:
    from repro.analysis.experiments import KEY_SCHEMA, MODEL_VERSION
    return {"model_version": MODEL_VERSION, "key_schema": KEY_SCHEMA,
            "instructions": b["instructions"], "warmup": b["warmup"],
            "cells": [f"{w}/{c}" for w, c, _ in _sampled_cells(b)]}


def compute_reference(b: dict) -> dict:
    """Detailed-tier IPC and LLC MPKI of every sampled cell, at the same
    instruction and warm-up budget."""
    from repro.analysis import ExperimentMatrix
    matrix = ExperimentMatrix(instructions=b["instructions"],
                              warmup=b["warmup"], cache_path=None)
    cells = _sampled_cells(b)
    matrix.prefetch(cells, jobs=1)
    doc = reference_stamp(b)
    doc["reference"] = {f"{w}/{c}": {"ipc": matrix.get(w, c)["ipc"],
                                     "mpki": matrix.get(w, c)["mpki"]}
                        for w, c, _ in cells}
    return doc


def _reference_cache(stamp: dict) -> Path:
    """Where a stale committed reference is regenerated: the benchmark's
    work directory in the checkout, one file per model stamp (an A/B of
    two model versions keeps both)."""
    return (WORK / "reference" / f"sampled_detailed.v{stamp['model_version']}"
            f".k{stamp['key_schema']}.json")


def load_reference(b: dict) -> tuple[dict | None, str]:
    """The committed reference, else the checkout's regenerated copy,
    whichever carries the current stamp; (None, reason) when neither."""
    stamp = reference_stamp(b)
    for path in (REFERENCE, _reference_cache(stamp)):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if {k: doc.get(k) for k in stamp} == stamp:
            note = "" if path == REFERENCE else f"regenerated copy {path}"
            return doc["reference"], note
    return None, (f"no detailed reference stamped model_version="
                  f"{stamp['model_version']} key_schema={stamp['key_schema']}")


# ---------------------------------------------------------------------------
# Workloads: prepare (set-up), run (timed), collect (checks, untimed)
# ---------------------------------------------------------------------------

class Figures:
    """``repro suite --jobs 1`` from a cold cache: every figure-matrix cell
    on the detailed tier, then every figure and table rendered."""

    def __init__(self, seed: int, budget: str) -> None:
        self.b = BUDGETS[budget]["figures"]

    def prepare(self) -> None:
        from repro import build_named_config
        from repro.analysis import ExperimentMatrix, figures
        from repro.cli import FIGURES, main
        self.main = main
        # The distinct cells the suite simulates (a "+chains" cell also
        # serves its plain twin).
        self.cells = ExperimentMatrix(cache_path=None).missing_cells(
            figures.figure_matrix_cells())
        self.reports = [filename for _fn, filename in FIGURES.values()]
        self.ops = len(self.cells) + len(self.reports)
        for config in {c for _w, c, _chains in self.cells}:
            build_named_config(config).validate()

    def run(self) -> None:
        code = self.main(["suite", "--jobs", "1"])
        if code != 0:
            raise RuntimeError(f"repro suite exited with {code}")

    def collect(self) -> dict:
        from repro.analysis import ExperimentMatrix, figures
        matrix = ExperimentMatrix()
        records, short = [], 0
        for w, c, chains in self.cells:
            if not matrix.is_cached(w, c, chains):
                short += 1
                continue
            stats = matrix.get(w, c, chains)
            records.append(stats)
            short += stats["committed_insts"] < self.b["instructions"]
        missing = [name for name in self.reports
                   if not (Path("results/figures") / name).is_file()]
        gaps, mismatches = [], 0
        for metric, measured, _paper in figures.headline_summary(matrix).rows:
            paper = figures.PAPER_HEADLINES[metric]
            gaps.append(abs(measured - paper))
            mismatches += (measured >= 0) != (paper >= 0)
        return {
            "failed": short + len(missing),
            "errors": [f"report not written: {name}" for name in missing],
            "records": records,
            "digest_items": [_pick(r) for r in records],
            "accuracy": {"analysis.headline_err_pp": sum(gaps) / len(gaps),
                         "analysis.direction_mismatches": mismatches},
        }


class Sampled:
    """Two-level sampled runs of the medium/high workloads at a budget of
    ten sampling strides, scored against the detailed tier."""

    def __init__(self, seed: int, budget: str) -> None:
        self.budget = budget
        self.b = BUDGETS[budget]["sampled"]

    def prepare(self) -> None:
        from repro import build_named_config
        from repro.analysis import ExperimentMatrix
        from repro.config import SamplingConfig
        b = self.b
        ramp, window, stride = b["plan"]
        plan = SamplingConfig(tier="two-level", ramp_instructions=ramp,
                              window_instructions=window,
                              stride_instructions=stride)
        self.matrix = ExperimentMatrix(instructions=b["instructions"],
                                       warmup=b["warmup"], cache_path=None,
                                       sampling=plan)
        self.cells = _sampled_cells(b)
        self.ops = len(self.cells)
        for config in b["configs"]:
            build_named_config(config).validate()

    def run(self) -> None:
        self.matrix.prefetch(self.cells, jobs=1)

    def collect(self) -> dict:
        b = self.b
        if self.budget == "full":
            reference, note = load_reference(b)
        else:
            reference, note = compute_reference(b)["reference"], ""
        records, short, ipc_err, mpki_err = [], 0, [], []
        for w, c, _chains in self.cells:
            if not self.matrix.is_cached(w, c):
                short += 1
                continue
            stats = self.matrix.get(w, c)
            short += (stats["sampling"]["instructions_advanced"]
                      < b["instructions"])
            records.append(stats)
            if reference is not None:
                est = stats["sampling"]["estimates"]
                ref = reference[f"{w}/{c}"]
                ipc_err.append(100 * abs(est["ipc"] - ref["ipc"]) / ref["ipc"])
                mpki_err.append(abs(est["mpki"] - ref["mpki"]))
        return {
            "failed": short,
            "errors": [note] if reference is None else [],
            "note": note,
            "records": records,
            "digest_items": [
                _pick(r) + [r["sampling"]["estimates"]["ipc"],
                            r["sampling"]["estimates"]["mpki"],
                            r["sampling"]["instructions_advanced"]]
                for r in records],
            "accuracy": {
                "fastpath.ipc_err_pct": (sum(ipc_err) / len(ipc_err)
                                         if ipc_err else 0.0),
                "fastpath.mpki_err_abs": (sum(mpki_err) / len(mpki_err)
                                          if mpki_err else 0.0)},
        }


class Verify:
    """A fixed-size differential fuzz campaign (oracle vs OoO core) over
    the golden five configs, invariant checker off."""

    def __init__(self, seed: int, budget: str) -> None:
        self.b = BUDGETS[budget]["verify"]

    def prepare(self) -> None:
        from repro import build_named_config
        from repro.verify import DEFAULT_CONFIGS, differential, run_verify
        self.run_verify = run_verify
        self.configs = tuple(DEFAULT_CONFIGS)
        self.ops = self.b["seeds"] * len(self.configs)
        for config in self.configs:
            build_named_config(config).validate()
        # Digest probe: the campaign returns only its divergences, so the
        # simulated outcome of each core run is read where the harness
        # builds its commit stream (one call per seed and config).
        self.runs = []
        inner = differential.processor_stream

        @functools.wraps(inner)
        def processor_stream(fp, config, max_insts, *args, **kwargs):
            records, proc = inner(fp, config, max_insts, *args, **kwargs)
            self.runs.append((fp.seed, str(config), len(records),
                              proc.stats.to_dict()))
            return records, proc

        differential.processor_stream = processor_stream

    def run(self) -> None:
        self.summary = self.run_verify(
            seeds=self.b["seeds"], seed_start=VERIFY_SEED_START,
            insts=self.b["insts"], configs=self.configs, report_dir=None)

    def collect(self) -> dict:
        failures = self.summary["failures"]
        return {
            "failed": len(failures),
            "errors": [f"divergence seed={s} config={c} kind={k}"
                       for s, c, k in failures],
            "records": [stats for *_rest, stats in self.runs],
            "digest_items": [[seed, config, retired] + _pick(stats)
                             for seed, config, retired, stats in self.runs],
            "accuracy": {},
        }


class Multicore:
    """Two-core pairs contending for one shared LLC and DRAM controller."""

    def __init__(self, seed: int, budget: str) -> None:
        self.b = BUDGETS[budget]["multicore"]
        self.pairs = multicore_pairs(seed, self.b["pairs"])

    def prepare(self) -> None:
        from repro import build_named_config, simulate_multicore
        self.simulate_multicore = simulate_multicore
        self.ops = len(self.pairs) * len(self.b["configs"])
        for config in self.b["configs"]:
            build_named_config(config).validate()

    def run(self) -> None:
        b = self.b
        self.results = [
            (pair, config, self.simulate_multicore(
                list(pair), cores=2, configs=[config, config],
                share="llc,dram", max_instructions=b["instructions"],
                warmup_instructions=b["warmup"]).to_dict())
            for pair in self.pairs for config in b["configs"]]

    def collect(self) -> dict:
        records, shared, items, short = [], [], [], 0
        for pair, config, result in self.results:
            cores = result["per_core"]
            short += any(s["committed_insts"] < self.b["instructions"]
                         for s in cores)
            records.extend(cores)
            shared.append(result["shared"])
            items.append([list(pair), config, [_pick(s) for s in cores],
                          result["shared"]["contention"]])
        return {
            "failed": short,
            "errors": [],
            "records": records,
            "shared": shared,
            "digest_items": items,
            "accuracy": {},
        }


JOBS = {"figures": Figures, "sampled": Sampled, "verify": Verify,
        "multicore": Multicore}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def model_metrics(records: list[dict], shared: list[dict]) -> dict:
    """Modelled per-layer ratios over every simulated core run; they
    repeat exactly.  The kinst base is the detailed core's committed
    instructions."""
    def total(name: str) -> float:
        return sum(r.get(name, 0) for r in records)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kinst = total("committed_insts") / 1e3
    cycles = total("cycles")
    dram = total("dram_reads") + total("dram_writes")
    ipcs = [r["ipc"] for r in records if r.get("ipc")]
    chain_cache = total("chain_cache_hits") + total("chain_cache_misses")
    evictions = sum(s["contention"]["cross_core_evictions"] for s in shared)
    rejections = sum(core["mshr_rejections"]
                     for s in shared for core in s["fairness"])
    # A shared controller counts row hits for all its cores, not per core.
    row_hits = (sum(s["dram"]["row_hits"] for s in shared) if shared
                else total("dram_row_hits"))
    row_reqs = (sum(s["dram"]["reads"] + s["dram"]["writes"] for s in shared)
                if shared else dram)
    return {
        "core.ipc_gmean": (math.exp(sum(map(math.log, ipcs)) / len(ipcs))
                           if ipcs else 0.0),
        "core.memstall_share": ratio(total("memstall_cycles"), cycles),
        "frontend.mispredicts_per_kinst": ratio(total("cond_mispredicts"),
                                                kinst),
        "frontend.idle_share": ratio(total("frontend_idle_cycles"), cycles),
        "runahead.cycle_share": ratio(
            total("cycles_in_rab") + total("cycles_in_traditional"), cycles),
        "runahead.intervals_per_kinst": ratio(total("runahead_intervals"),
                                              kinst),
        "runahead.misses_per_interval": ratio(
            total("runahead_misses_generated"), total("runahead_intervals")),
        "runahead.chain_cache_hit_rate": ratio(total("chain_cache_hits"),
                                               chain_cache),
        "runahead.blocked_entries_per_kinst": ratio(
            total("entries_blocked_enh") + total("entries_blocked_no_chain"),
            kinst),
        "memory.l1_misses_per_kinst": ratio(total("l1d_misses"), kinst),
        "memory.shared.llc_mpki": ratio(total("llc_demand_misses"), kinst),
        "memory.shared.dram_reqs_per_kinst": ratio(dram, kinst),
        "memory.shared.row_hit_rate": ratio(row_hits, row_reqs),
        "prefetch.accuracy": ratio(total("prefetches_useful"),
                                   total("prefetches_issued")),
        "prefetch.issued_per_kinst": ratio(total("prefetches_issued"), kinst),
        "multicore.cross_core_evictions_per_kinst": ratio(evictions, kinst),
        "multicore.mshr_rejections_per_kinst": ratio(rejections, kinst),
    }


def layer_metrics(summary: dict) -> dict:
    """Host-time and call-count metrics from a span summary
    (layers.SpanTracer.summary)."""
    out = {}
    for layer, entry in summary["layers"].items():
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.self_share"] = entry["self_share"]
        out[f"{layer}.calls_per_kinst"] = entry["calls_per_kinst"]
    work = summary["work"]
    kinst = summary["kinst"]
    simulated = work["committed"] + work["ff_insts"]
    out.update({
        "core.detailed_kips": summary["detailed_kips"],
        "memory.retries_per_kinst": (work["load_retries"] / kinst
                                     if kinst else 0.0),
        "fastpath.ff_kips": summary["ff_kips"],
        "fastpath.translate_s": summary["translate_s"],
        "fastpath.ff_insts_share": (work["ff_insts"] / simulated
                                    if simulated else 0.0),
    })
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(JOBS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="full")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started "
                             "this process; set-up is timed from it")
    parser.add_argument("--result", help="where to write the rep's JSON")
    parser.add_argument("--spans", default=None,
                        help="trace the layer boundaries; write spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (a set-up time sample)")
    parser.add_argument("--ensure-reference", action="store_true",
                        help="regenerate the sampled detailed reference in "
                             "the checkout if the committed one is stale")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute the committed reference file")
    return parser.parse_args(argv)


def _reference_main(args) -> int:
    b = BUDGETS["full"]["sampled"]
    if args.write_reference:
        REFERENCE.write_text(json.dumps(compute_reference(b), indent=1) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    reference, note = load_reference(b)
    if reference is None:
        cache = _reference_cache(reference_stamp(b))
        print(f"sampled reference is stale ({note}); regenerating it in an "
              f"untimed phase -> {cache}", flush=True)
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_name(cache.name + ".tmp")
        tmp.write_text(json.dumps(compute_reference(b), indent=1) + "\n")
        os.replace(tmp, cache)
    elif note:
        print(f"sampled reference: using the {note}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.ensure_reference or args.write_reference:
        code = _reference_main(args)
        if args.result:
            Path(args.result).write_text("{}\n")
        return code
    if args.workload == "figures":
        # Read by repro.analysis.experiments when it is first imported.
        b = BUDGETS[args.budget]["figures"]
        os.environ["REPRO_BENCH_INSTS"] = str(b["instructions"])
        os.environ["REPRO_BENCH_WARMUP"] = str(b["warmup"])
    job = JOBS[args.workload](args.seed, args.budget)
    doc = {"workload": args.workload, "seed": args.seed,
           "budget": args.budget, "traced": args.spans is not None}
    code = 0
    try:
        job.prepare()
        if args.spawned_at is not None:
            doc["setup_s"] = time.monotonic() - args.spawned_at
        if not args.setup_only:
            tracer = probe = None
            if args.spans is not None:
                from layers import SpanTracer
                tracer = SpanTracer()
                tracer.install()
            else:
                from probe import HostProbe
                probe = HostProbe()
                probe.start()
            t0 = time.perf_counter()
            try:
                job.run()
            finally:
                wall = time.perf_counter() - t0
                if probe is not None:
                    probe.stop()
                if tracer is not None:
                    tracer.uninstall()
            doc["wall_s"] = wall
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if probe is not None:
                doc["job_s"] = probe.job_s(wall)
                doc["probe"] = {"mean_s": probe.mean_s,
                                "count": len(probe.samples),
                                "rss_mb": probe.rss_mb}
                peak -= probe.rss_mb
            doc["peak_rss_mb"] = peak
            out = job.collect()
            from repro.analysis.experiments import KEY_SCHEMA, MODEL_VERSION
            doc.update(attempted=job.ops, failed=out["failed"],
                       errors=out["errors"], note=out.get("note", ""),
                       digest=_digest(out["digest_items"]),
                       accuracy=out["accuracy"],
                       stamp={"model_version": MODEL_VERSION,
                              "key_schema": KEY_SCHEMA})
            if tracer is not None:
                summary = tracer.summary(wall)
                Path(args.spans).write_text(json.dumps(
                    {"workload": args.workload, "seed": args.seed, **summary},
                    indent=1) + "\n")
                # Accuracy metrics a workload does not compute read 0.
                doc["layers"] = {
                    **layer_metrics(summary),
                    **model_metrics(out["records"], out.get("shared", [])),
                    **dict.fromkeys(ACCURACY_METRICS, 0.0),
                    **out["accuracy"]}
                doc["missing_boundaries"] = summary["missing_boundaries"]
                doc["coverage"] = summary["attributed_s"] / wall
    except Exception:
        doc["errors"] = [traceback.format_exc()]
        doc["attempted"] = doc["failed"] = getattr(job, "ops", 1)
        code = 1
    if args.result:
        Path(args.result).write_text(json.dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
