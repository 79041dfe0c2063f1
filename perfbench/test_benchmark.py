"""Self-checks of the benchmark at tiny budgets (a few minutes in all).

    PYTHONPATH=src python -m pytest perfbench/test_benchmark.py -q

Each workload runs untraced and traced through run.py exactly as a
measurement would, on sub-second stand-ins of its job.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (final JSON line, result file) at tiny budget."""
    out = tmp_path_factory.mktemp("out")
    results = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = _bench("--workload", workload, "--seed", "1",
                          "--seconds", "0.1", "--trace", str(trace),
                          "--budget", "tiny", "--out", str(out))
            assert proc.returncode == 0, proc.stderr + proc.stdout[-3000:]
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            name = f"{workload}-seed1{'-trace' if trace else ''}.json"
            results[(workload, trace)] = (
                last, json.loads((out / name).read_text()))
    return results


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_emits_every_declared_metric_with_its_unit(runs, workload, trace):
    last, _record = runs[(workload, trace)]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    declared = CATALOGUE["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in last["metrics"].items()}
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_digests_match(runs, workload):
    _last, untraced = runs[(workload, 0)]
    _last, traced = runs[(workload, 1)]
    assert untraced["digest"] is not None
    assert traced["digest"] == untraced["digest"]
    assert traced["correct"], traced["problems"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_cover_the_traced_wall(runs, workload):
    _last, record = runs[(workload, 1)]
    spans = json.loads(Path(record["spans"]).read_text())
    attributed = sum(entry["self_s"] for entry in spans["layers"].values())
    assert attributed <= spans["wall_s"]
    assert attributed >= 0.9 * spans["wall_s"]
    assert spans["missing_boundaries"] == []


def test_missing_boundary_reads_zero_calls():
    from repro import build_named_config, simulate
    table = {"core": ("repro.core.processor:Processor.run",),
             "memory": ("repro.memory.ports:NoSuchPort.send",
                        "repro.no_such_module:fn")}
    tracer = layers.SpanTracer(table)
    tracer.install()
    try:
        simulate("mcf", build_named_config("baseline"),
                 max_instructions=300, warmup_instructions=300)
    finally:
        tracer.uninstall()
    summary = tracer.summary(wall_s=1.0)
    assert summary["missing_boundaries"] == [
        "repro.memory.ports:NoSuchPort.send", "repro.no_such_module:fn"]
    assert summary["layers"]["memory"]["calls"] == 0
    assert summary["layers"]["core"]["calls"] == 1
    assert summary["work"]["committed"] >= 300
    from repro.core.processor import Processor
    assert not hasattr(Processor.run, "__wrapped__")


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ab_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert run.verdict(parent, faster, "lower", 0.25)["verdict"] == "gain"
    assert run.verdict(parent, parent, "lower", 0.25)["verdict"] == "no change"
    slower = [v * 1.3 for v in parent]
    assert run.verdict(parent, slower, "lower", 0.25)["verdict"] == "regression"
    noisy = [5.0, 15.0] * 5
    assert run.verdict(noisy, parent, "lower", 0.25)["verdict"] == "unresolved"
