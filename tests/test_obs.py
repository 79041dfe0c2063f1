"""Observability-layer suite: zero cost when off, cycle-identical when on.

Three guarantees:

* **Overhead guard** — an untraced processor carries *none* of the
  tracer's instance-attribute shadows, so the flattened hot path never
  consults observability code; and a fully-traced run (every event kind
  plus a stride-1 occupancy sampler) produces bit-identical SimStats to
  an untraced run on a workload x config grid.
* **Schema** — every emitted event validates against
  ``repro.obs.EVENT_SCHEMAS``, and every seam actually fires.
* **Snapshots** — the Perfetto export and occupancy CSV for one pinned
  run match golden files (regenerate intentionally with
  ``REPRO_REGEN_GOLDEN=1``).
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import pytest

from repro.config import build_named_config
from repro.core import Processor, simulate
from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMAS,
    EventTrace,
    MetricsRegistry,
    OccupancySampler,
    TraceEvent,
    Tracer,
    default_registry,
    export_perfetto,
    run_traced,
    validate_event,
)
from repro.workloads import build_workload

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

INSTRUCTIONS = 2_000
WARMUP = 1_500

# Derived floats and free-form metadata, as in test_cycle_equivalence.
_SKIP_KEYS = frozenset({
    "workload", "config_name", "energy_report", "ipc", "mpki",
    "memstall_fraction", "branch_accuracy", "rab_cycle_fraction",
    "runahead_cycle_fraction", "hybrid_rab_share", "chain_cache_hit_rate",
    "chain_cache_exact_fraction", "misses_per_interval", "total_energy_j",
})


def _canonical(stats) -> dict:
    return {k: v for k, v in stats.to_dict().items() if k not in _SKIP_KEYS}


def _traced(workload: str, config: str, **kwargs):
    return run_traced(workload, config, max_instructions=INSTRUCTIONS,
                      warmup_instructions=WARMUP, **kwargs)


# ---------------------------------------------------------------------------
# Overhead guard
# ---------------------------------------------------------------------------

# mcf exercises runahead + chain cache + DRAM heavily; the _pf config
# additionally exercises the prefetcher seams.
IDENTITY_GRID = [
    ("mcf", "runahead"),
    ("mcf", "rab_cc"),
    ("mcf", "hybrid"),
    ("mcf", "hybrid_pf"),
    ("omnetpp", "hybrid"),
]


@pytest.mark.parametrize("workload,config", IDENTITY_GRID)
def test_traced_run_cycle_identical(workload, config):
    plain = simulate(workload, build_named_config(config),
                     max_instructions=INSTRUCTIONS,
                     warmup_instructions=WARMUP)
    traced = _traced(workload, config, occupancy_stride=1)
    assert _canonical(traced.stats) == _canonical(plain.stats), \
        f"tracing perturbed the simulation of {workload}/{config}"
    assert traced.trace.total_emitted > 0
    assert len(traced.samples) > 0


def test_untraced_processor_carries_no_obs_attributes():
    """The zero-cost claim: without a tracer, none of the methods the
    tracer would shadow exist in any instance ``__dict__`` — attribute
    lookup goes straight to the class, exactly as before repro.obs."""
    built = build_workload("mcf")
    proc = Processor(built.program, build_named_config("hybrid_pf"),
                     memory=built.memory, init_regs=built.init_regs)
    shadow_points = [
        (proc, ("_step", "_enter_traditional", "_enter_rab",
                "_exit_runahead", "_generate_chain",
                "_ff_translate_hook", "_ckpt_hook")),
        (proc.fetch, ("redirect",)),
        (proc.chain_cache, ("lookup",)),
        (proc.hierarchy, ("_issue_prefetches",)),
        (proc.hierarchy.controller, ("request",)),
        (proc.hierarchy.prefetcher, ("record_useful",
                                     "record_unused_eviction", "_feedback")),
    ]
    for obj, names in shadow_points:
        for name in names:
            assert name not in vars(obj), \
                f"{type(obj).__name__}.{name} shadowed without a tracer"


def test_detach_restores_untraced_state():
    built = build_workload("mcf")
    proc = Processor(built.program, build_named_config("hybrid_pf"),
                     memory=built.memory, init_regs=built.init_regs)
    tracer = Tracer(sampler=OccupancySampler(8))
    tracer.attach(proc)
    assert "_exit_runahead" in vars(proc)
    assert "_step" in vars(proc)
    with pytest.raises(RuntimeError):
        tracer.attach(proc)  # double attach
    tracer.detach()
    assert "redirect" not in vars(proc.fetch)
    for name in ("_step", "_exit_runahead", "_generate_chain",
                 "_enter_traditional", "_enter_rab", "_ff_translate_hook",
                 "_ckpt_hook"):
        assert name not in vars(proc)
    assert "request" not in vars(proc.hierarchy.controller)
    assert "_feedback" not in vars(proc.hierarchy.prefetcher)


# ---------------------------------------------------------------------------
# Event semantics and schemas
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hybrid_run():
    return _traced("mcf", "hybrid", occupancy_stride=16)


def test_every_event_validates(hybrid_run):
    hybrid_run.trace.validate()  # raises on any schema violation
    pf_run = _traced("mcf", "hybrid_pf")
    pf_run.trace.validate()


def test_core_seams_fire(hybrid_run):
    counts = hybrid_run.trace.counts
    for kind in ("fetch_redirect", "runahead_enter", "runahead_exit",
                 "chain_extract", "chain_cache", "dram"):
        assert counts[kind] > 0, f"no {kind} events on mcf/hybrid"
    # Enter/exit pair up and agree with the model's own interval count.
    assert counts["runahead_enter"] == counts["runahead_exit"]
    assert counts["runahead_exit"] == hybrid_run.stats.runahead_intervals


def test_prefetch_seams_fire():
    run = _traced("mcf", "hybrid_pf")
    assert run.trace.counts["prefetch_issue"] > 0
    assert run.trace.counts["prefetch_resolve"] > 0
    assert run.trace.counts["prefetch_issue"] == run.stats.prefetches_issued


def test_fdp_window_seam():
    """The FDP feedback seam is rarely hit in tiny runs; drive the shadow
    directly through the attached instance to pin its payload."""
    built = build_workload("mcf")
    proc = Processor(built.program, build_named_config("hybrid_pf"),
                     memory=built.memory, init_regs=built.init_regs)
    tracer = Tracer(kinds=["fdp_window"])
    tracer.attach(proc)
    prefetcher = proc.hierarchy.prefetcher
    # A closed window with perfect accuracy: throttle up.
    prefetcher._interval_issued = prefetcher.config.fdp_interval
    prefetcher._interval_useful = prefetcher.config.fdp_interval
    prefetcher._feedback()
    (event,) = tracer.trace.events("fdp_window")
    validate_event(event)
    assert event.data["action"] == "up"
    assert event.data["accuracy"] == 1.0
    # An open window (too few resolved): hold.
    prefetcher._interval_issued = prefetcher.config.fdp_interval
    prefetcher._feedback()
    assert tracer.trace.events("fdp_window")[-1].data["action"] == "hold"


def test_ff_block_translate_seam():
    """Jit fast-forward translations emit through the tracer seam.

    ``warmup_instructions=0`` so the first translations happen inside
    the traced two-level run rather than in pre-attach warm-up."""
    from repro.config import SamplingConfig

    plan = SamplingConfig(tier="two-level", ramp_instructions=300,
                          window_instructions=900,
                          stride_instructions=4_000)
    tracer = Tracer(kinds=["ff.block_translate"])
    result = simulate("mcf", build_named_config("hybrid"),
                      max_instructions=20_000, warmup_instructions=0,
                      attach=tracer.attach, sampling=plan, ff_lane="jit")
    events = tracer.trace.events("ff.block_translate")
    assert events, "no translation events from a cold two-level run"
    program_len = len(build_workload("mcf").program.instructions)
    for event in events:
        validate_event(event)
        assert 0 <= event.data["pc"] < program_len
        assert event.data["length"] >= 1
    # mcf is one hot loop: at least one region is loop-shaped.
    assert any(e.data["loop"] for e in events)
    # One event per translation, not per execution: far fewer events
    # than fast-forwarded instructions.
    assert len(events) < 50
    assert result.sampling["translate_seconds"] > 0.0
    tracer.detach()


def test_ff_block_translate_silent_on_interp_lane():
    from repro.config import SamplingConfig

    plan = SamplingConfig(tier="two-level", ramp_instructions=300,
                          window_instructions=900,
                          stride_instructions=4_000)
    tracer = Tracer(kinds=["ff.block_translate"])
    simulate("mcf", build_named_config("hybrid"),
             max_instructions=20_000, warmup_instructions=0,
             attach=tracer.attach, sampling=plan, ff_lane="interp")
    assert tracer.trace.counts["ff.block_translate"] == 0
    tracer.detach()


def test_ckpt_seams_fire(tmp_path):
    """The live-point engine's checkpoint hook emits one ckpt.save per
    stride boundary on a cold store and one ckpt.restore per boundary on
    a warm one."""
    from repro.config import SamplingConfig
    from repro.fastpath import CheckpointPlan, CheckpointStore

    plan = SamplingConfig(tier="two-level", ramp_instructions=300,
                          window_instructions=900,
                          stride_instructions=4_000)
    store = CheckpointStore(tmp_path)

    cold = Tracer(kinds=["ckpt.save", "ckpt.restore"])
    simulate("mcf", build_named_config("hybrid"),
             max_instructions=20_000, warmup_instructions=1_000,
             attach=cold.attach, sampling=plan,
             checkpoints=CheckpointPlan(store=store))
    saves = cold.trace.events("ckpt.save")
    for event in saves:
        validate_event(event)
    assert [e.data["position"] for e in saves] == \
        [0, 4_000, 8_000, 12_000, 16_000]
    assert saves[0].data["store"] is False  # entry snapshot: free, not stored
    assert all(e.data["store"] for e in saves[1:])
    assert cold.trace.counts["ckpt.restore"] == 0
    cold.detach()

    warm = Tracer(kinds=["ckpt.save", "ckpt.restore"])
    simulate("mcf", build_named_config("hybrid"),
             max_instructions=20_000, warmup_instructions=1_000,
             attach=warm.attach, sampling=plan,
             checkpoints=CheckpointPlan(store=store))
    restores = warm.trace.events("ckpt.restore")
    for event in restores:
        validate_event(event)
    assert [e.data["position"] for e in restores] == \
        [4_000, 8_000, 12_000, 16_000]
    assert all(e.data["store"] for e in restores)
    assert warm.trace.counts["ckpt.save"] == 1  # only the entry snapshot
    warm.detach()


def test_ckpt_kind_selection():
    """Each ckpt kind is gated independently; drive the hook directly to
    pin the per-kind flags (as test_fdp_window_seam does for FDP)."""
    built = build_workload("mcf")
    proc = Processor(built.program, build_named_config("hybrid"),
                     memory=built.memory, init_regs=built.init_regs)
    tracer = Tracer(kinds=["ckpt.restore"])
    tracer.attach(proc)
    proc._ckpt_hook("save", 0, False)
    proc._ckpt_hook("restore", 4_000, True)
    assert set(tracer.trace.counts) == {"ckpt.restore"}
    tracer.detach()
    saver = Tracer(kinds=["ckpt.save"])
    saver.attach(proc)
    proc._ckpt_hook("save", 0, True)
    proc._ckpt_hook("restore", 4_000, True)
    assert set(saver.trace.counts) == {"ckpt.save"}
    saver.detach()


def test_perfetto_ckpt_instants():
    trace = EventTrace()
    trace.emit("ckpt.save", 0, position=0, store=False)
    trace.emit("ckpt.restore", 0, position=4_000, store=True)
    doc = export_perfetto(trace)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["ckpt_save", "ckpt_restore"]
    assert instants[1]["args"]["position"] == 4_000


def test_runahead_exit_payload(hybrid_run):
    for event in hybrid_run.trace.events("runahead_exit"):
        assert event.data["entry_cycle"] <= event.cycle
        assert event.data["mode"] in ("traditional", "buffer")
    total = sum(e.data["misses_generated"]
                for e in hybrid_run.trace.events("runahead_exit"))
    assert total == hybrid_run.stats.runahead_misses_generated


def test_dram_payload(hybrid_run):
    config = build_named_config("hybrid")
    for event in hybrid_run.trace.events("dram"):
        assert event.data["done_cycle"] > event.cycle
        assert 0 <= event.data["channel"] < config.dram.channels
        assert 0 <= event.data["bank"] < config.dram.banks_per_channel
        assert 0 <= event.data["queue"] <= config.dram.queue_entries


def test_validate_event_rejects_bad_payloads():
    ok = TraceEvent("prefetch_issue", 5, {"line": 7})
    validate_event(ok)
    with pytest.raises(ValueError, match="unknown event kind"):
        validate_event(TraceEvent("nonsense", 0, {}))
    with pytest.raises(ValueError, match="missing"):
        validate_event(TraceEvent("prefetch_issue", 5, {}))
    with pytest.raises(ValueError, match="extra"):
        validate_event(TraceEvent("prefetch_issue", 5,
                                  {"line": 7, "bogus": 1}))
    # bool is an int subclass; exact-type matching must reject it.
    with pytest.raises(ValueError, match="expected int"):
        validate_event(TraceEvent("prefetch_issue", 5, {"line": True}))
    with pytest.raises(ValueError, match="bad cycle"):
        validate_event(TraceEvent("prefetch_issue", -1, {"line": 7}))


def test_event_kind_selection_and_errors():
    with pytest.raises(ValueError, match="unknown event kind"):
        Tracer(kinds=["dram", "bogus"])
    run = _traced("mcf", "hybrid", kinds=["dram"])
    assert set(run.trace.counts) == {"dram"}


def test_ring_buffer_rollover():
    run = _traced("mcf", "hybrid", capacity=16)
    trace = run.trace
    assert trace.total_emitted > 16
    assert len(trace) == 16
    assert trace.dropped == trace.total_emitted - 16
    assert sum(trace.counts.values()) == trace.total_emitted
    # The buffer keeps the most recent window: the same run with an
    # unbounded buffer must end with exactly these 16 events.
    full = _traced("mcf", "hybrid").trace
    assert trace.events() == full.events()[-16:]
    assert "dropped" in trace.summary()
    with pytest.raises(ValueError):
        EventTrace(capacity=0)


# ---------------------------------------------------------------------------
# Occupancy sampler
# ---------------------------------------------------------------------------

def test_sampler_stride_semantics(hybrid_run):
    samples = hybrid_run.samples
    assert samples, "no occupancy samples collected"
    cycles = [s.cycle for s in samples]
    assert cycles == sorted(cycles)
    assert all(b - a >= 16 for a, b in zip(cycles, cycles[1:]))
    config = build_named_config("hybrid")
    for s in samples:
        assert 0 <= s.rob <= config.core.rob_size
        assert 0 <= s.rs <= config.core.rs_size
        assert s.mode in ("normal", "runahead", "rab")
    assert any(s.mode != "normal" for s in samples), \
        "sampler never observed a runahead interval on mcf/hybrid"
    with pytest.raises(ValueError):
        OccupancySampler(stride=0)


def test_sampler_emits_every_boundary_a_jump_crosses():
    """One step can jump an idle stretch: each stride boundary crossed
    gets its own sample, stamped with the boundary cycle and reading the
    MSHR occupancy at that cycle."""
    from types import SimpleNamespace

    fills = [30, 50]   # MSHR fills in flight, by completion cycle
    hierarchy = SimpleNamespace(
        mshr_occupancy=lambda now: sum(1 for done in fills if done > now))
    proc = SimpleNamespace(now=1, mode="normal", rob=[0] * 192, rs_used=40,
                           load_queue_used=30, store_queue=[], ready=[],
                           decode_queue=[0] * 16, hierarchy=hierarchy)
    sampler = OccupancySampler(stride=10)
    sampler.on_cycle(proc)          # anchors the grid at cycle 1
    proc.now = 8
    sampler.on_cycle(proc)          # no boundary crossed
    proc.now = 41                   # jump across 11, 21, 31 and 41
    sampler.on_cycle(proc)
    assert [s.cycle for s in sampler.samples] == [1, 11, 21, 31, 41]
    assert [s.mshr for s in sampler.samples] == [2, 2, 2, 1, 1]
    assert {s.rob for s in sampler.samples} == {192}


# ---------------------------------------------------------------------------
# Golden snapshots (Perfetto JSON + occupancy CSV)
# ---------------------------------------------------------------------------

def _golden_compare(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    if not path.exists():
        pytest.skip(f"{name} missing; regenerate with REPRO_REGEN_GOLDEN=1")
    assert text == path.read_text(), (
        f"{name} drifted from the pinned snapshot; if the change is "
        f"intentional, regenerate with REPRO_REGEN_GOLDEN=1 and commit"
    )


@pytest.fixture(scope="module")
def snapshot_run():
    return _traced("mcf", "hybrid", occupancy_stride=64)


def test_perfetto_golden(snapshot_run, tmp_path):
    out = tmp_path / "trace.perfetto.json"
    snapshot_run.write_perfetto(out)
    _golden_compare("obs_perfetto.json", out.read_text())


def test_occupancy_golden(snapshot_run):
    buffer = io.StringIO()
    snapshot_run.tracer.sampler.write_csv(buffer)
    _golden_compare("obs_occupancy.csv", buffer.getvalue())


def test_perfetto_structure(snapshot_run, tmp_path):
    """The export must be loadable Chrome/Perfetto trace JSON carrying
    runahead-interval, chain-extraction and DRAM events."""
    out = tmp_path / "trace.perfetto.json"
    snapshot_run.write_perfetto(out)
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert doc["otherData"]["workload"] == "mcf"
    named = {}
    for event in events:
        assert {"ph", "pid"} <= set(event)
        if event["ph"] != "M":
            assert "ts" in event and "tid" in event
        named.setdefault(event["ph"], []).append(event)
    # Metadata names the process and every used track.
    metas = {e["name"] for e in named["M"]}
    assert "process_name" in metas and "thread_name" in metas
    # Complete slices for runahead intervals, chain extraction and DRAM.
    slice_names = {e["name"] for e in named["X"]}
    assert slice_names & {"traditional", "buffer"}, \
        "no runahead-interval slices in the export"
    assert any(n.startswith("chain") for n in slice_names), \
        "no chain-extraction slices in the export"
    assert slice_names & {"demand", "store", "runahead", "writeback",
                          "ifetch"}, "no DRAM slices in the export"
    for event in named["X"]:
        assert event["dur"] >= 0
    # Occupancy counters rode along.
    assert any(e["name"] == "occupancy" for e in named.get("C", []))


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def test_default_registry_collect(hybrid_run):
    registry = default_registry()
    values = registry.collect(hybrid_run.stats)
    assert values["core.cycles"] == hybrid_run.stats.cycles
    assert values["core.ipc"] == pytest.approx(hybrid_run.stats.ipc)
    assert values["runahead.intervals"] == hybrid_run.stats.runahead_intervals
    assert values["energy.total_j"] > 0
    # Every registered metric is documented.
    for name in registry.names():
        assert registry.get(name).description
    # The SimStats convenience forwards here.
    assert hybrid_run.stats.metrics() == values
    subset = hybrid_run.stats.metrics(names=["core.ipc"])
    assert set(subset) == {"core.ipc"}


def test_registry_errors_and_exports(hybrid_run, tmp_path):
    registry = MetricsRegistry()
    registry.counter("core.cycles", "cycles", "total cycles")
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("core.cycles", "cycles", "again")
    with pytest.raises(KeyError):
        registry.collect(hybrid_run.stats, names=["nope"])

    full = default_registry()
    json_path = full.write_json(hybrid_run.stats, tmp_path / "metrics.json")
    doc = json.loads(json_path.read_text())
    assert doc["workload"] == "mcf"
    assert doc["metrics"]["core.cycles"] == hybrid_run.stats.cycles
    assert set(doc["units"]) == set(doc["metrics"])

    csv_path = tmp_path / "metrics.csv"
    full.write_csv([hybrid_run.stats], csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("workload,config")
    assert lines[1].startswith("mcf,")


# ---------------------------------------------------------------------------
# Analysis integration
# ---------------------------------------------------------------------------

def test_experiment_matrix_persists_traces(tmp_path):
    from repro.analysis.experiments import ExperimentMatrix

    traced = ExperimentMatrix(instructions=INSTRUCTIONS, warmup=WARMUP,
                              cache_path=None, trace_dir=tmp_path / "traces")
    stats = traced.get("mcf", "hybrid")
    (trace_file,) = sorted((tmp_path / "traces").iterdir())
    assert trace_file.name == \
        f"mcf_hybrid_{INSTRUCTIONS}_w{WARMUP}.perfetto.json"
    doc = json.loads(trace_file.read_text())
    assert doc["otherData"]["cell"] == f"mcf/hybrid/{INSTRUCTIONS}/w{WARMUP}"
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
    # Tracing a cell must not change its stats (cache compatibility).
    plain = ExperimentMatrix(instructions=INSTRUCTIONS, warmup=WARMUP,
                             cache_path=None)
    assert stats == plain.get("mcf", "hybrid")
    # Cached cells are never re-simulated, hence never re-traced.
    trace_file.unlink()
    traced.get("mcf", "hybrid")
    assert not list((tmp_path / "traces").iterdir())


def test_export_perfetto_validates(hybrid_run):
    bogus = EventTrace()
    bogus.emit("prefetch_issue", 1, line="not an int")
    with pytest.raises(ValueError):
        export_perfetto(bogus)
    assert EVENT_KINDS == tuple(sorted(EVENT_SCHEMAS))
