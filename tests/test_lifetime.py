"""Object lifetime: a finished run is freed the moment it is dropped.

The simulator's object graph is a tree that hangs from the ``Processor``
(docs/simulator.md, "Object lifetime"): the processor owns its memory
hierarchy, the hierarchy owns its LLC/DRAM complex, and the program owns
its translated blocks, with no reference back up.  Dropping a run
therefore frees the processor, hierarchy, complex, LLC and program by
reference counting alone, before the next run is built, instead of
whenever the cyclic collector next makes a full pass.

Each test takes one path the benchmark runs, at a tiny budget, with the
collector disabled, and checks weak references to those objects once
the run is dropped.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import simulate_multicore
from repro.config import SamplingConfig, build_named_config
from repro.core import sim, simulate, simulate_cohort
from repro.verify import differential, verify_seed


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run_objects(proc) -> list[weakref.ref]:
    hierarchy = proc.hierarchy
    return [weakref.ref(obj) for obj in (proc, hierarchy, hierarchy.shared,
                                         hierarchy.llc, proc.program)]


def _alive(refs: list[weakref.ref]) -> list[str]:
    return [type(obj).__name__ for obj in (ref() for ref in refs)
            if obj is not None]


def _record_builds(monkeypatch, module) -> tuple[list, list]:
    """Weak references to the run objects of every ``Processor`` that
    ``module`` builds, and for each build the objects of earlier runs
    still alive when it started."""
    refs: list[weakref.ref] = []
    alive_at_build: list[list[str]] = []
    real = module.Processor

    def build(*args, **kwargs):
        alive_at_build.append(_alive(refs))
        proc = real(*args, **kwargs)
        refs.extend(_run_objects(proc))
        return proc

    monkeypatch.setattr(module, "Processor", build)
    return refs, alive_at_build


def test_detailed_run_with_the_prefetcher_is_freed(collector_off):
    result = simulate("libquantum", build_named_config("rab_pf"),
                      max_instructions=1_000, warmup_instructions=1_000)
    # The hierarchy routed prefetch issue through its own seam.
    assert result.processor.hierarchy.prefetcher.stats.issued > 0
    refs = _run_objects(result.processor)
    assert len(_alive(refs)) == 5
    del result
    assert _alive(refs) == []


def test_two_level_run_is_freed(collector_off):
    plan = SamplingConfig(tier="two-level", ramp_instructions=200,
                          window_instructions=300, stride_instructions=2_000)
    result = simulate("mcf", build_named_config("hybrid"),
                      max_instructions=6_000, warmup_instructions=1_000,
                      sampling=plan)
    assert result.processor.ff_instructions > 1_000
    refs = _run_objects(result.processor)
    del result
    assert _alive(refs) == []


def test_cohort_frees_each_run_before_the_next(collector_off, monkeypatch):
    refs, alive_at_build = _record_builds(monkeypatch, sim)
    configs = [build_named_config("runahead"), build_named_config("rab")]
    results, runs = simulate_cohort("mcf", configs, max_instructions=2_000,
                                    warmup_instructions=1_500)
    assert runs == 2   # the rab rider detached and ran again
    assert alive_at_build == [[], []]
    assert _alive(refs) == []
    assert all(stats.committed_insts >= 2_000 for stats in results)


def test_multicore_system_is_freed(collector_off):
    result = simulate_multicore(["mcf", "libquantum"], cores=2,
                                configs=["rab_cc", "rab_cc"],
                                max_instructions=1_000,
                                warmup_instructions=1_000)
    refs = [ref for core in result.system.cores
            for ref in _run_objects(core)]
    refs.append(weakref.ref(result.system))
    del result
    assert _alive(refs) == []


def test_verify_seed_frees_its_shared_runs(collector_off, monkeypatch):
    refs, _ = _record_builds(monkeypatch, differential)
    outcome = verify_seed(0, insts=2_000)
    assert not outcome.divergences
    assert len(refs) >= 10   # baseline alone, the runahead configs shared
    del outcome
    assert _alive(refs) == []
