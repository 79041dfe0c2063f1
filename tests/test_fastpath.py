"""Two-tier simulation tests (``repro.fastpath`` + its wiring).

Four concerns, mirroring the structure of tests/test_shape_regression.py:

* engine mechanics — window/stride bookkeeping, halt and cycle-budget
  termination, the metadata contract;
* detailed-tier purity — ``tier="detailed"`` (or no sampling at all)
  must be byte-identical to the pre-sampling simulator;
* the sampled tier's documented error bounds — the default plan must
  reproduce detailed IPC / MPKI / runahead share within
  ``SAMPLING_TOLERANCES`` on a small reference grid, and each tolerance
  gate is shown to *bite* on perturbed fixtures;
* cache keying — sampled cells must never collide with detailed cells
  in the experiment matrix (KEY_SCHEMA 3).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analysis.experiments import KEY_SCHEMA, ExperimentMatrix
from repro.analysis.parallel import CellSpec
from repro.config import SamplingConfig, build_named_config
from repro.core.processor import Processor
from repro.core.sim import simulate
from repro.fastpath import (SAMPLING_TOLERANCES, check_sampling_error,
                            run_two_tier, runahead_share)
from repro.verify.fuzz import build_fuzz_program
from repro.workloads import build_workload


def _processor(workload: str, config_name: str, warmup: int = 12_000):
    built = build_workload(workload)
    proc = Processor(built.program, build_named_config(config_name),
                     memory=built.memory, init_regs=built.init_regs)
    if warmup:
        proc.warm_up(warmup)
    return proc


# ---------------------------------------------------------------------------
# SamplingConfig validation
# ---------------------------------------------------------------------------

class TestSamplingConfig:
    def test_defaults_validate(self):
        SamplingConfig().validate()
        SamplingConfig(tier="two-level").validate()

    def test_detailed_share(self):
        assert SamplingConfig().detailed_share == 1.0
        plan = SamplingConfig(tier="two-level", ramp_instructions=500,
                              window_instructions=1_500,
                              stride_instructions=40_000)
        assert plan.detailed_share == pytest.approx(0.05)

    @pytest.mark.parametrize("kwargs", [
        {"tier": "sampled"},
        {"tier": "two-level", "window_instructions": 0},
        {"tier": "two-level", "ramp_instructions": -1},
        {"tier": "two-level", "ramp_instructions": 500,
         "window_instructions": 1_500, "stride_instructions": 2_000},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------

class TestEngine:
    def test_window_and_stride_bookkeeping(self):
        proc = _processor("mcf", "baseline")
        plan = SamplingConfig(tier="two-level", ramp_instructions=100,
                              window_instructions=200,
                              stride_instructions=1_000)
        meta = run_two_tier(proc, plan, 5_000)
        assert meta["tier"] == "two-level"
        assert meta["windows"] == 5
        assert meta["instructions_advanced"] == 5_000
        assert (meta["detailed_instructions"]
                + meta["fast_forward_instructions"]) == 5_000
        # Detailed bursts can overshoot by up to commit-width - 1 insts.
        assert meta["detailed_fraction"] == pytest.approx(0.3, rel=0.05)
        assert meta["detailed_seconds"] > 0
        assert meta["fast_forward_seconds"] > 0
        assert meta["estimated_total_cycles"] > proc.stats.cycles
        est = meta["estimates"]
        assert est["ipc"] > 0
        assert est["mpki"] >= 0
        assert 0.0 <= est["runahead_share"] <= 1.0

    def test_stops_at_halt_inside_gap(self):
        fuzz = build_fuzz_program(5, target_insts=2_000)
        workload = SimpleNamespace(program=fuzz.program, memory=fuzz.memory(),
                                   init_regs=None)
        proc = Processor(fuzz.program, build_named_config("baseline"),
                         memory=workload.memory)
        plan = SamplingConfig(tier="two-level", ramp_instructions=50,
                              window_instructions=100,
                              stride_instructions=1_000)
        meta = run_two_tier(proc, plan, 50_000)
        assert proc.halted
        assert meta["instructions_advanced"] < 50_000

    def test_stops_when_cycle_budget_exhausted(self):
        proc = _processor("mcf", "baseline", warmup=0)
        plan = SamplingConfig(tier="two-level")
        meta = run_two_tier(proc, plan, 100_000, max_cycles=50)
        assert meta["windows"] == 1
        assert meta["instructions_advanced"] < 100_000

    def test_validates_plan(self):
        proc = _processor("mcf", "baseline", warmup=0)
        with pytest.raises(ValueError):
            run_two_tier(proc, SamplingConfig(tier="nope"), 1_000)


# ---------------------------------------------------------------------------
# Detailed-tier purity
# ---------------------------------------------------------------------------

class TestDetailedTierPurity:
    def test_detailed_sampling_config_is_identity(self):
        plain = simulate("mcf", build_named_config("rab_cc"),
                         max_instructions=8_000, warmup_instructions=6_000)
        tiered = simulate("mcf", build_named_config("rab_cc"),
                          max_instructions=8_000, warmup_instructions=6_000,
                          sampling=SamplingConfig(tier="detailed"))
        assert tiered.sampling is None
        assert tiered.stats.to_dict() == plain.stats.to_dict()

    def test_two_level_result_carries_metadata(self):
        result = simulate("mcf", build_named_config("baseline"),
                          max_instructions=50_000,
                          warmup_instructions=6_000,
                          sampling=SamplingConfig(tier="two-level"))
        assert result.sampling is not None
        assert result.sampling["instructions_advanced"] == 50_000
        # Stats describe the detailed bursts only.
        assert (result.stats.committed_insts
                == result.sampling["detailed_instructions"])


# ---------------------------------------------------------------------------
# Error bounds: the sampled tier's accuracy contract
# ---------------------------------------------------------------------------

ERROR_BOUND_INSTS = 200_000
ERROR_BOUND_CELLS = [("mcf", "rab_cc"), ("mcf", "baseline"),
                     ("lbm", "rab_cc"), ("lbm", "baseline")]


class TestSampledErrorBounds:
    @pytest.mark.parametrize("workload,config_name", ERROR_BOUND_CELLS,
                             ids=[f"{w}-{c}" for w, c in ERROR_BOUND_CELLS])
    def test_default_plan_within_tolerances(self, workload, config_name):
        detailed = simulate(workload, build_named_config(config_name),
                            max_instructions=ERROR_BOUND_INSTS,
                            warmup_instructions=12_000)
        sampled = simulate(workload, build_named_config(config_name),
                           max_instructions=ERROR_BOUND_INSTS,
                           warmup_instructions=12_000,
                           sampling=SamplingConfig(tier="two-level"))
        failures = check_sampling_error(detailed.stats.to_dict(),
                                        sampled.sampling["estimates"])
        assert not failures, "; ".join(failures)


class TestGateBites:
    """Each tolerance gate must actually reject an out-of-bound estimate
    (mirrors tests/test_shape_regression.py's perturbed-fixture style)."""

    DETAILED = {
        "ipc": 1.0,
        "mpki": 20.0,
        "runahead_cycle_fraction": 0.30,
        "rab_cycle_fraction": 0.18,
    }

    def _estimates(self, **overrides):
        base = {"ipc": 1.0, "mpki": 20.0, "runahead_share": 0.30}
        base.update(overrides)
        return base

    def test_in_bound_estimates_pass(self):
        assert check_sampling_error(self.DETAILED, self._estimates()) == []

    def test_ipc_gate_bites(self):
        bad = 1.0 * (1 + SAMPLING_TOLERANCES["ipc_rel"] + 0.01)
        failures = check_sampling_error(self.DETAILED,
                                        self._estimates(ipc=bad))
        assert len(failures) == 1 and failures[0].startswith("ipc")

    def test_mpki_gate_bites(self):
        bad = 20.0 + SAMPLING_TOLERANCES["mpki_abs"] + 0.01
        failures = check_sampling_error(self.DETAILED,
                                        self._estimates(mpki=bad))
        assert len(failures) == 1 and failures[0].startswith("mpki")

    def test_share_gate_bites(self):
        bad = 0.30 + SAMPLING_TOLERANCES["runahead_share_abs"] + 0.01
        failures = check_sampling_error(
            self.DETAILED, self._estimates(runahead_share=bad))
        assert len(failures) == 1
        assert failures[0].startswith("runahead share")

    def test_tolerance_overrides(self):
        slightly_off = self._estimates(ipc=1.05)
        assert check_sampling_error(self.DETAILED, slightly_off) == []
        failures = check_sampling_error(self.DETAILED, slightly_off,
                                        tolerances={"ipc_rel": 0.01})
        assert len(failures) == 1 and failures[0].startswith("ipc")

    def test_runahead_share_reads_both_shapes(self):
        assert runahead_share(self.DETAILED) == pytest.approx(0.30)
        assert runahead_share({"runahead_share": 0.4}) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# Cache keying (KEY_SCHEMA 3): sampled cells never collide with detailed
# ---------------------------------------------------------------------------

PLAN = SamplingConfig(tier="two-level", ramp_instructions=500,
                      window_instructions=1_500, stride_instructions=40_000)


class TestCacheKeying:
    def test_key_schema_bumped(self):
        assert KEY_SCHEMA == 3

    def test_detailed_key_format_unchanged(self):
        # The whole persisted grid (and tests/test_shape_regression.py)
        # addresses detailed cells with the schema-2 key shape; the tier
        # suffix must only appear on non-detailed cells.
        matrix = ExperimentMatrix(instructions=5_000, warmup=12_000,
                                  cache_path=None)
        assert matrix._key("mcf", "baseline", False) == \
            "mcf/baseline/5000/w12000"
        assert matrix._key("mcf", "rab_cc", True) == \
            "mcf/rab_cc+chains/5000/w12000"

    def test_sampled_key_embeds_tier_and_plan(self):
        matrix = ExperimentMatrix(instructions=5_000, warmup=12_000,
                                  cache_path=None, sampling=PLAN)
        key = matrix._key("mcf", "baseline", False)
        assert key == "mcf/baseline/5000/w12000/two-level.r500.w1500.s40000"

    def test_window_and_stride_address_different_cells(self):
        keys = set()
        for window, stride in ((1_500, 40_000), (1_000, 40_000),
                               (1_500, 20_000)):
            plan = SamplingConfig(tier="two-level", ramp_instructions=500,
                                  window_instructions=window,
                                  stride_instructions=stride)
            matrix = ExperimentMatrix(instructions=5_000, warmup=12_000,
                                      cache_path=None, sampling=plan)
            keys.add(matrix._key("mcf", "baseline", False))
        assert len(keys) == 3

    def test_sampled_results_do_not_leak_into_detailed_matrix(self, tmp_path):
        cache = tmp_path / "experiments.json"
        sampled = ExperimentMatrix(instructions=5_000, warmup=12_000,
                                   cache_path=cache, sampling=PLAN)
        sampled.store("mcf", "baseline", False, {"ipc": 0.5})
        sampled.save()
        detailed = ExperimentMatrix(instructions=5_000, warmup=12_000,
                                    cache_path=cache)
        assert not detailed.is_cached("mcf", "baseline")
        same_plan = ExperimentMatrix(instructions=5_000, warmup=12_000,
                                     cache_path=cache, sampling=PLAN)
        assert same_plan.is_cached("mcf", "baseline")

    def test_cellspec_defaults_stay_detailed(self):
        spec = CellSpec("mcf", "baseline", build_named_config("baseline"),
                        5_000, 12_000)
        assert spec.sampling is None
        assert spec.label == "mcf/baseline"
        sampled = spec._replace(sampling=PLAN)
        assert "two-level" in sampled.label

    def test_prefetch_specs_carry_tier(self, monkeypatch):
        captured = {}

        def fake_simulate_cells(specs, jobs=None, progress=None):
            captured["specs"] = list(specs)
            return parallel_mod.Batch([{"ipc": 1.0} for _ in specs],
                                      len(specs))

        import repro.analysis.parallel as parallel_mod
        monkeypatch.setattr(parallel_mod, "simulate_cells",
                            fake_simulate_cells)
        matrix = ExperimentMatrix(instructions=5_000, warmup=12_000,
                                  cache_path=None, sampling=PLAN)
        matrix.prefetch([("mcf", "baseline", False)])
        (spec,) = captured["specs"]
        assert spec.sampling == PLAN
        assert matrix.is_cached("mcf", "baseline")
