"""Process-parallel runner tests: fan-out, merging, determinism."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.analysis import ExperimentMatrix
from repro.analysis.parallel import (
    CellSpec,
    SimSpec,
    resolve_jobs,
    simulate_cells,
    simulate_configs,
    usable_cpus,
)
from repro.config import make_config

WORKLOADS = ["calculix", "mcf"]
CONFIGS = ["baseline", "runahead"]
BUDGET = dict(instructions=400, warmup=500)


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "5")
        assert resolve_jobs() == 5

    def test_defaults_to_at_least_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        assert resolve_jobs() >= 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_default_honours_the_affinity_mask(self, monkeypatch):
        # A cpuset-restricted container: 8 CPUs on the machine, 2 usable.
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert usable_cpus() == 2
        assert resolve_jobs() == 2
        # Platforms without an affinity call fall back to cpu_count.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cpus() == 8
        assert resolve_jobs() == 8


class TestFanOut:
    def test_simulate_cells_matches_matrix_get(self):
        spec = CellSpec("calculix", "baseline", False, 400, 500)
        (stats,) = simulate_cells([spec], jobs=1)
        matrix = ExperimentMatrix(cache_path=None, **BUDGET)
        assert stats == matrix.get("calculix", "baseline")

    def test_pool_preserves_submission_order(self):
        specs = [SimSpec(name, make_config(), 400, 500, name)
                 for name in WORKLOADS]
        parallel = simulate_configs(specs, jobs=2)
        serial = simulate_configs(specs, jobs=1)
        assert parallel == serial

    def test_progress_callback_fires_per_cell(self):
        specs = [CellSpec(w, "baseline", False, 400, 500) for w in WORKLOADS]
        seen = []
        simulate_cells(specs, jobs=1,
                       progress=lambda spec, done, total:
                       seen.append((spec.label, done, total)))
        assert seen == [("calculix/baseline", 1, 2), ("mcf/baseline", 2, 2)]


class TestMatrixPrefetch:
    def test_serial_and_parallel_results_byte_identical(self, tmp_path):
        serial = ExperimentMatrix(cache_path=tmp_path / "serial.json",
                                  **BUDGET)
        serial.run_suite(CONFIGS, workloads=WORKLOADS, jobs=1)
        parallel = ExperimentMatrix(cache_path=tmp_path / "parallel.json",
                                    **BUDGET)
        parallel.run_suite(CONFIGS, workloads=WORKLOADS, jobs=2)
        assert (json.dumps(serial._results, sort_keys=True)
                == json.dumps(parallel._results, sort_keys=True))

    def test_prefetch_skips_cached_cells(self, tmp_path):
        matrix = ExperimentMatrix(cache_path=tmp_path / "c.json", **BUDGET)
        assert matrix.prefetch([("calculix", "baseline", False)]) == 1
        assert matrix.prefetch([("calculix", "baseline", False)]) == 0

    def test_prefetch_flushes_cache_once(self, tmp_path):
        path = tmp_path / "c.json"
        matrix = ExperimentMatrix(cache_path=path, **BUDGET)
        matrix.prefetch([("calculix", "baseline", False)])
        reloaded = ExperimentMatrix(cache_path=path, **BUDGET)
        assert reloaded.is_cached("calculix", "baseline")

    def test_missing_cells_drops_plain_when_chains_requested(self):
        matrix = ExperimentMatrix(cache_path=None, **BUDGET)
        missing = matrix.missing_cells([
            ("calculix", "baseline", False),
            ("calculix", "baseline", True),
            ("calculix", "baseline", False),
        ])
        assert missing == [("calculix", "baseline", True)]

    def test_missing_cells_respects_chain_superset_in_cache(self):
        matrix = ExperimentMatrix(cache_path=None, **BUDGET)
        matrix.store("calculix", "baseline", True, {"ipc": 1.0})
        assert matrix.missing_cells([("calculix", "baseline", False)]) == []
        assert matrix.missing_cells([("mcf", "baseline", False)]) == [
            ("mcf", "baseline", False)]


class TestSweepParallel:
    def _fake_simulate(self, calls):
        def fake(workload, config, max_instructions=0,
                 warmup_instructions=0, config_name=""):
            calls.append((workload, max_instructions, warmup_instructions))
            stats = SimpleNamespace(to_dict=lambda: {"ipc": 1.0})
            return SimpleNamespace(stats=stats)
        return fake

    def test_run_sweep_honors_env_budgets(self, monkeypatch):
        from repro.analysis.sweeps import run_sweep
        monkeypatch.setenv("REPRO_BENCH_INSTS", "123")
        monkeypatch.setenv("REPRO_BENCH_WARMUP", "45")
        calls = []
        monkeypatch.setattr("repro.core.simulate",
                            self._fake_simulate(calls))
        run_sweep(lambda n: make_config(), [1, 2], benches=("mcf",), jobs=1)
        assert calls  # baseline + one run per value
        assert all(insts == 123 and warmup == 45
                   for _, insts, warmup in calls)

    def test_run_sweep_explicit_budgets_beat_env(self, monkeypatch):
        from repro.analysis.sweeps import run_sweep
        monkeypatch.setenv("REPRO_BENCH_INSTS", "123")
        monkeypatch.setenv("REPRO_BENCH_WARMUP", "45")
        calls = []
        monkeypatch.setattr("repro.core.simulate",
                            self._fake_simulate(calls))
        run_sweep(lambda n: make_config(), [1], benches=("mcf",),
                  instructions=77, warmup=88, jobs=1)
        assert calls == [("mcf", 77, 88), ("mcf", 77, 88)]
