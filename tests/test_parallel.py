"""Process-parallel runner tests: fan-out, merging, determinism."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.analysis import ExperimentMatrix
from repro.analysis.parallel import (
    CellSpec,
    resolve_jobs,
    simulate_cell,
    simulate_cells,
    usable_cpus,
)
from repro.config import (RunaheadMode, SamplingConfig, build_named_config,
                          make_config)

WORKLOADS = ["calculix", "mcf"]
CONFIGS = ["baseline", "runahead"]
BUDGET = dict(instructions=400, warmup=500)


def _cell(workload, config_name, chain_stats=False, sampling=None):
    """The spec of one named-config cell at ``BUDGET``."""
    config = build_named_config(config_name)
    config.runahead.collect_chain_stats = chain_stats
    return CellSpec(workload, config_name, config, BUDGET["instructions"],
                    BUDGET["warmup"], sampling)


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
        spec = _cell("calculix", "baseline")
        (stats,) = simulate_cells([spec], jobs=1).stats
        matrix = ExperimentMatrix(cache_path=None, **BUDGET)
        assert stats == matrix.get("calculix", "baseline")

    def test_pool_preserves_submission_order(self):
        specs = [CellSpec(name, name, make_config(), 400, 500)
                 for name in WORKLOADS]
        parallel = simulate_cells(specs, jobs=2)
        serial = simulate_cells(specs, jobs=1)
        assert parallel == serial

    def test_progress_callback_fires_per_cell(self):
        specs = [_cell(w, "baseline") for w in WORKLOADS]
        seen = []
        simulate_cells(specs, jobs=1,
                       progress=lambda spec, done, total:
                       seen.append((spec.label, done, total)))
        assert seen == [("calculix/baseline", 1, 2), ("mcf/baseline", 2, 2)]

    def test_progress_keeps_spec_order_across_cohorts(self):
        # mcf/runahead and mcf/rab form one cohort, simulated before
        # calculix/baseline; progress still reports the cells in order.
        specs = [_cell("mcf", "runahead"), _cell("calculix", "baseline"),
                 _cell("mcf", "rab")]
        seen = []
        batch = simulate_cells(specs, jobs=1,
                               progress=lambda spec, done, total:
                               seen.append((spec.label, done)))
        assert seen == [("mcf/runahead", 1), ("calculix/baseline", 2),
                        ("mcf/rab", 3)]
        assert batch.runs == 3

    def test_one_batch_holds_every_kind_of_spec(self):
        # A two-level cell, a +chains cell, a cohort (mcf's runahead and
        # rab) and an unnamed sweep config, in one call: each gets the
        # stats of its run alone, in spec order.
        plan = SamplingConfig(tier="two-level", ramp_instructions=50,
                              window_instructions=100,
                              stride_instructions=200)
        sweep = make_config(RunaheadMode.BUFFER, buffer_uops=16,
                            max_chain_length=16)
        specs = [_cell("calculix", "baseline", sampling=plan),
                 _cell("soplex", "rab_cc", chain_stats=True),
                 _cell("mcf", "runahead"), _cell("mcf", "rab"),
                 CellSpec("mcf", "16", sweep, 400, 500)]
        seen = []
        batch = simulate_cells(specs, jobs=1,
                               progress=lambda spec, done, total:
                               seen.append(spec.label))
        assert batch.stats == [simulate_cell(spec) for spec in specs]
        assert "sampling" in batch.stats[0]
        assert seen == ["calculix/baseline [two-level]",
                        "soplex/rab_cc+chains", "mcf/runahead", "mcf/rab",
                        "mcf/16"]


class TestMatrixPrefetch:
    def test_serial_and_parallel_results_byte_identical(self, tmp_path):
        serial = ExperimentMatrix(cache_path=tmp_path / "serial.json",
                                  **BUDGET)
        cells = [(w, c, False) for w in WORKLOADS for c in CONFIGS]
        serial.prefetch(cells, jobs=1)
        parallel = ExperimentMatrix(cache_path=tmp_path / "parallel.json",
                                    **BUDGET)
        parallel.prefetch(cells, jobs=2)
        assert (json.dumps(serial._results, sort_keys=True)
                == json.dumps(parallel._results, sort_keys=True))

    def test_prefetch_skips_cached_cells(self, tmp_path):
        matrix = ExperimentMatrix(cache_path=tmp_path / "c.json", **BUDGET)
        assert matrix.prefetch([("calculix", "baseline", False)]) == (1, 1)
        assert matrix.prefetch([("calculix", "baseline", False)]) == (0, 0)

    def test_prefetch_counts_runs_not_cells(self):
        # soplex's two buffer configs share one trajectory at this budget;
        # mcf's traditional and buffer configs part at the first entry, so
        # rab runs again; the baseline runs alone: 5 cells in 4 runs.
        cells = [("soplex", "rab_cc", False), ("soplex", "rab", False),
                 ("soplex", "baseline", False), ("mcf", "runahead", False),
                 ("mcf", "rab", False)]
        serial = ExperimentMatrix(cache_path=None, **BUDGET)
        assert serial.prefetch(cells, jobs=1) == (5, 4)
        parallel = ExperimentMatrix(cache_path=None, **BUDGET)
        assert parallel.prefetch(cells, jobs=2) == (5, 4)
        standalone = ExperimentMatrix(cache_path=None, **BUDGET)
        for cell in cells:
            assert (serial.get(*cell) == parallel.get(*cell)
                    == standalone.get(*cell)), cell

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
                 warmup_instructions=0, config_name="", sampling=None):
            calls.append((workload, max_instructions, warmup_instructions))
            stats = SimpleNamespace(to_dict=lambda: {"ipc": 1.0})
            return SimpleNamespace(stats=stats, sampling=None)
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
