"""Warm-state checkpoints and the live-point engine (repro.fastpath.checkpoint).

Five concerns:

* snapshot/restore round-trips — every component (caches, predictor,
  prefetcher, DRAM controller, hierarchy, whole processor) restores to a
  byte-identical canonical serialization, including *mid-episode*
  snapshots taken at runahead-adjacent points (sync_architectural runs
  inside snapshot(), so a processor paused inside a runahead interval
  still round-trips);
* the content-addressed store — save/load, corrupt-entry-as-miss,
  key sensitivity (program content, geometry, base digest, stream
  distance) and key *insensitivity* (runahead configuration, so sweep
  cells share warm state);
* the byte-identity contract — serial (jobs=1) and parallel (jobs=2)
  checkpointed runs, and cold-store vs warm-store runs, produce equal
  ``stats_fingerprint``s (this is the property the CI gate enforces);
* warm-store reuse — a second run over a populated store restores
  instead of re-fast-forwarding (ff_seconds collapses, hits == chain
  length);
* plan plumbing — degenerate plans are rejected or clamped, detailed
  tiers refuse checkpoints, and live-point estimates stay inside
  ``SAMPLING_TOLERANCES``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import SamplingConfig, build_named_config
from repro.core.processor import Processor
from repro.core.sim import simulate
from repro.fastpath import (
    CKPT_SCHEMA,
    CheckpointPlan,
    CheckpointStore,
    check_sampling_error,
    checkpoint_key,
    make_checkpoint_plan,
    merge_window_stats,
    resolve_checkpoint_dir,
    restore_or_warm_up,
    run_two_tier,
    snapshot_bytes,
    snapshot_digest,
    stats_fingerprint,
)
from repro.workloads import build_workload

PLAN = SamplingConfig(tier="two-level", ramp_instructions=300,
                      window_instructions=900, stride_instructions=5_000)


def _processor(workload: str = "mcf", config_name: str = "rab_cc"):
    built = build_workload(workload)
    return Processor(built.program, build_named_config(config_name),
                     memory=built.memory, init_regs=built.init_regs)


def _fresh_pair(workload: str = "mcf", config_name: str = "rab_cc"):
    return (_processor(workload, config_name),
            _processor(workload, config_name))


# ---------------------------------------------------------------------------
# Snapshot / restore round-trips
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_component_snapshots_round_trip(self):
        """Each hierarchy component restores onto a fresh instance to the
        exact snapshot it was saved from."""
        proc = _processor("mcf", "rab_cc_pf")   # _pf: prefetcher enabled
        proc.warm_up(20_000)
        proc.run(3_000)
        proc.sync_architectural()
        fresh = _processor("mcf", "rab_cc_pf")
        for name, src, dst in (
            ("l1d", proc.hierarchy.l1d, fresh.hierarchy.l1d),
            ("l1i", proc.hierarchy.l1i, fresh.hierarchy.l1i),
            ("llc", proc.hierarchy.llc, fresh.hierarchy.llc),
            ("controller", proc.hierarchy.controller,
             fresh.hierarchy.controller),
            ("prefetcher", proc.hierarchy.prefetcher,
             fresh.hierarchy.prefetcher),
        ):
            snap = src.snapshot()
            dst.restore(snap)
            assert dst.snapshot() == snap, f"{name} round-trip diverged"
        pred = proc.predictor.snapshot_state()
        fresh.predictor.restore_state(pred)
        assert fresh.predictor.snapshot_state() == pred

    def test_processor_snapshot_round_trips_bytewise(self):
        proc = _processor()
        proc.warm_up(20_000)
        snap = proc.snapshot()
        fresh = _processor()
        fresh.restore(snap)
        assert snapshot_bytes(fresh.snapshot()) == snapshot_bytes(snap)
        assert snapshot_digest(fresh.snapshot()) == snapshot_digest(snap)

    def test_restored_processor_behaves_identically(self):
        """Restore is behavioral, not just structural: both processors run
        the next detailed burst to identical warm-state bytes."""
        proc = _processor()
        proc.warm_up(20_000)
        snap = proc.snapshot()
        twin = _processor()
        twin.restore(snap)
        proc.run(2_000)
        twin.run(2_000)
        assert proc.now == twin.now
        assert proc.committed == twin.committed
        assert snapshot_bytes(proc.snapshot()) == snapshot_bytes(
            twin.snapshot())

    def test_mid_episode_snapshot_at_runahead_adjacent_point(self):
        """Satellite gate: snapshot() mid-run — after detailed execution
        that enters/exits runahead episodes — collapses to the
        architectural point and still round-trips byte-identically, and
        the continuation matches a processor that never round-tripped."""
        proc = _processor("mcf", "rab_cc")
        proc.warm_up(12_000)
        proc.run(4_000)   # long enough to cross runahead entries on mcf
        ref = _processor("mcf", "rab_cc")
        ref.warm_up(12_000)
        ref.run(4_000)
        snap = proc.snapshot()
        twin = _processor("mcf", "rab_cc")
        twin.restore(snap)
        assert snapshot_bytes(twin.snapshot()) == snapshot_bytes(snap)
        # sync_architectural inside snapshot() must not have perturbed the
        # source processor's forward path relative to the reference.
        ref.sync_architectural()
        assert snapshot_bytes(ref.snapshot()) == snapshot_bytes(snap)
        twin.fast_forward(5_000)
        proc.fast_forward(5_000)
        assert snapshot_bytes(twin.snapshot()) == snapshot_bytes(
            proc.snapshot())

    def test_snapshot_excludes_run_statistics(self):
        proc = _processor()
        proc.warm_up(12_000)
        proc.run(2_000)
        twin = _processor()
        twin.restore(proc.snapshot())
        assert twin.stats.committed_insts == 0
        assert twin.committed == proc.committed  # position, not stats


# ---------------------------------------------------------------------------
# Shared hierarchies don't checkpoint
# ---------------------------------------------------------------------------

class TestSharedHierarchyRejection:
    """Regression for the multi-core refactor: a core whose hierarchy is
    shared cannot snapshot or restore.  Its warm state spans co-runners
    (one LLC array, one MSHR pool, one DRAM controller), so a per-core
    snapshot would silently capture — and restore would silently
    clobber — other cores' state.  Both must refuse loudly instead."""

    def _shared_core(self):
        from repro.multicore import CoreSpec, System
        system = System([CoreSpec("mcf"), CoreSpec("lbm")],
                        share="llc,dram")
        return system.cores[0]

    def test_snapshot_raises(self):
        from repro.memory import SharedHierarchyError
        with pytest.raises(SharedHierarchyError):
            self._shared_core().snapshot()

    def test_restore_raises(self):
        from repro.memory import SharedHierarchyError
        donor = _processor()
        donor.warm_up(8_000)
        snap = donor.snapshot()
        with pytest.raises(SharedHierarchyError):
            self._shared_core().restore(snap)

    def test_dram_only_share_is_rejected_too(self):
        # Private LLCs don't help: the DRAM controller (row-buffer and
        # queue state) is still cross-core.
        from repro.memory import SharedHierarchyError
        from repro.multicore import CoreSpec, System
        system = System([CoreSpec("mcf"), CoreSpec("lbm")], share="dram")
        with pytest.raises(SharedHierarchyError):
            system.cores[0].snapshot()

    def test_schema_records_the_stream_core_field(self):
        # CKPT_SCHEMA v2: stream-prefetcher entries carry the training
        # core, so v1 stores can never alias v2 snapshots.
        assert CKPT_SCHEMA == 2


# ---------------------------------------------------------------------------
# Content-addressed store
# ---------------------------------------------------------------------------

class TestStore:
    def _snap(self):
        proc = _processor()
        proc.warm_up(8_000)
        return proc, proc.snapshot()

    def test_save_load_round_trip(self, tmp_path):
        proc, snap = self._snap()
        store = CheckpointStore(tmp_path)
        key = checkpoint_key(proc.program, proc.config, "base", 8_000)
        store.save(key, snap)
        assert (tmp_path / "SCHEMA").read_text().strip() == str(CKPT_SCHEMA)
        loaded = CheckpointStore(tmp_path).load(key)
        assert snapshot_bytes(loaded) == snapshot_bytes(snap)
        assert store.saves == 1 and store.bytes_written > 0

    def test_absent_key_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("0" * 64) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        proc, snap = self._snap()
        store = CheckpointStore(tmp_path)
        key = checkpoint_key(proc.program, proc.config, "base", 8_000)
        store.save(key, snap)
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.load(key) is None
        assert not path.exists()

    def test_wrong_schema_entry_is_a_miss_and_removed(self, tmp_path):
        proc, snap = self._snap()
        store = CheckpointStore(tmp_path)
        key = checkpoint_key(proc.program, proc.config, "base", 8_000)
        path = store._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(
            (CheckpointStore._MAGIC, CKPT_SCHEMA + 1, snap)))
        assert store.load(key) is None
        assert not path.exists()

    def test_key_sensitivity_and_runahead_insensitivity(self):
        proc = _processor("mcf", "baseline")
        base = checkpoint_key(proc.program, proc.config, "d" * 64, 40_000)
        # Sensitive: stream distance, base digest, program content.
        assert checkpoint_key(proc.program, proc.config,
                              "d" * 64, 80_000) != base
        assert checkpoint_key(proc.program, proc.config,
                              "e" * 64, 40_000) != base
        other = build_workload("lbm")
        assert checkpoint_key(other.program, proc.config,
                              "d" * 64, 40_000) != base
        # Insensitive: runahead mode (the cross-cell reuse property).
        rab = _processor("mcf", "rab_cc")
        assert checkpoint_key(rab.program, rab.config,
                              "d" * 64, 40_000) == base
        # Sensitive: cache geometry.
        small = build_named_config("baseline")
        small.llc.size_bytes //= 2
        assert checkpoint_key(proc.program, small, "d" * 64, 40_000) != base


# ---------------------------------------------------------------------------
# Plan plumbing
# ---------------------------------------------------------------------------

class TestPlanPlumbing:
    def test_make_checkpoint_plan_disengaged_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CKPT_DIR", raising=False)
        assert make_checkpoint_plan() is None
        assert resolve_checkpoint_dir() is None

    def test_make_checkpoint_plan_from_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_CKPT_DIR", raising=False)
        plan = make_checkpoint_plan(jobs=4)
        assert plan.jobs == 4 and plan.store is None

    def test_checkpoint_dir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path / "env"))
        assert resolve_checkpoint_dir() == str(tmp_path / "env")
        assert resolve_checkpoint_dir(str(tmp_path / "cli")) == \
            str(tmp_path / "cli")
        plan = make_checkpoint_plan()
        assert str(plan.store.root) == str(tmp_path / "env")

    def test_degenerate_plan_window_ge_stride_rejected(self):
        plan = SamplingConfig(tier="two-level", ramp_instructions=500,
                              window_instructions=5_000,
                              stride_instructions=5_000)
        with pytest.raises(ValueError):
            run_two_tier(_processor(), plan, 50_000,
                         checkpoints=CheckpointPlan())

    def test_degenerate_budget_window_clamped_to_remaining(self):
        """A final boundary whose ramp+window exceeds the remaining budget
        clamps rather than overrunning max_instructions."""
        proc = _processor()
        proc.warm_up(12_000)
        meta = run_two_tier(proc, PLAN, 6_000,  # 2 boundaries, short tail
                            checkpoints=CheckpointPlan())
        assert meta["windows"] == 2
        assert meta["instructions_advanced"] == 6_000
        # Second burst had only 1000 insts of budget past its boundary.
        assert meta["detailed_instructions"] <= (300 + 900) + 1_000 + 16

    def test_simulate_rejects_checkpoints_on_detailed_tier(self):
        with pytest.raises(ValueError):
            simulate("mcf", build_named_config("baseline"),
                     max_instructions=5_000, warmup_instructions=1_000,
                     checkpoints=CheckpointPlan())

    def test_restore_or_warm_up_falls_back_after_execution(self, tmp_path):
        """The store only ever holds pure fast-forward state: a processor
        with detailed history takes the plain warm_up path."""
        store = CheckpointStore(tmp_path)
        proc = _processor()
        proc.run(500)
        out = restore_or_warm_up(proc, 4_000, store=store)
        assert not out["restored"]
        assert store.saves == 0 and store.hits == 0 and store.misses == 0


# ---------------------------------------------------------------------------
# Byte-identity and warm-store reuse (the CI-gate properties)
# ---------------------------------------------------------------------------

def _run_checkpointed(ckpt, max_instructions: int = 25_000):
    proc = _processor()
    proc.warm_up(12_000)
    meta = run_two_tier(proc, PLAN, max_instructions, checkpoints=ckpt)
    return proc.stats.to_dict(), meta


class TestByteIdentity:
    def test_serial_equals_parallel(self):
        stats1, meta1 = _run_checkpointed(CheckpointPlan(jobs=1))
        stats2, meta2 = _run_checkpointed(CheckpointPlan(jobs=2))
        assert meta2["checkpoints"]["jobs"] == 2
        assert stats_fingerprint(stats1, meta1) == \
            stats_fingerprint(stats2, meta2)
        assert stats1 == stats2  # stats carry no host keys at all

    def test_cold_equals_warm_store(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stats_cold, meta_cold = _run_checkpointed(CheckpointPlan(store=store))
        assert meta_cold["checkpoints"]["store_hits"] == 0
        assert store.saves > 0
        stats_warm, meta_warm = _run_checkpointed(CheckpointPlan(store=store))
        hits = meta_warm["checkpoints"]["store_hits"]
        assert hits == meta_cold["checkpoints"]["count"] - 1  # entry is free
        assert meta_warm["checkpoints"]["store_misses"] == 0
        assert stats_fingerprint(stats_cold, meta_cold) == \
            stats_fingerprint(stats_warm, meta_warm)

    def test_warm_store_eliminates_fast_forward(self, tmp_path):
        """The perf claim the bench section records: a warm store turns
        the engine's fast-forward phase into restores."""
        store = CheckpointStore(tmp_path)
        _, cold = _run_checkpointed(CheckpointPlan(store=store))
        _, warm = _run_checkpointed(CheckpointPlan(store=store))
        assert warm["fast_forward_seconds"] == 0.0
        assert cold["fast_forward_seconds"] > 0.0

    def test_store_shared_across_runahead_modes(self, tmp_path):
        """Sweep-cell reuse: a store populated by a baseline run serves a
        rab_cc run of the same workload at full hit rate."""
        store = CheckpointStore(tmp_path)
        base = _processor("mcf", "baseline")
        base.warm_up(12_000)
        run_two_tier(base, PLAN, 25_000,
                     checkpoints=CheckpointPlan(store=store))
        rab = _processor("mcf", "rab_cc")
        rab.warm_up(12_000)
        meta = run_two_tier(rab, PLAN, 25_000,
                            checkpoints=CheckpointPlan(store=store))
        assert meta["checkpoints"]["store_misses"] == 0
        assert meta["checkpoints"]["store_hits"] > 0

    def test_warmup_chain_restores_through_store(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cold = _processor()
        out = restore_or_warm_up(cold, 12_000, store=store)
        assert not out["restored"] and out["ff_seconds"] > 0
        warm = _processor()
        out2 = restore_or_warm_up(warm, 12_000, store=store)
        assert out2["restored"] and out2["ff_seconds"] == 0.0
        assert snapshot_bytes(warm.snapshot()) == snapshot_bytes(
            cold.snapshot())


# ---------------------------------------------------------------------------
# Accuracy: live-points inherit the sampled tier's error contract
# ---------------------------------------------------------------------------

class TestAccuracy:
    def test_live_point_estimates_within_tolerances(self):
        detailed = simulate("mcf", build_named_config("rab_cc"),
                            max_instructions=100_000,
                            warmup_instructions=12_000)
        live = simulate("mcf", build_named_config("rab_cc"),
                        max_instructions=100_000,
                        warmup_instructions=12_000,
                        sampling=SamplingConfig(tier="two-level",
                                                ramp_instructions=500,
                                                window_instructions=1_500,
                                                stride_instructions=10_000),
                        checkpoints=CheckpointPlan(jobs=1))
        failures = check_sampling_error(detailed.stats.to_dict(),
                                        live.sampling["estimates"])
        assert not failures, "; ".join(failures)
        assert live.sampling["checkpoints"]["count"] == 10
        assert live.sampling["windows"] == 10


# ---------------------------------------------------------------------------
# Window-stats merge
# ---------------------------------------------------------------------------

class TestMerge:
    def _payload(self, **over):
        from repro.core.stats import SimStats
        stats = SimStats()
        payload = {name: getattr(stats, name)
                   for name in SimStats.__dataclass_fields__}
        payload.update(over)
        return payload

    def test_counters_sum_and_dicts_merge(self):
        merged = merge_window_stats([
            self._payload(cycles=10, committed_insts=5,
                          llc_misses_by_kind={"demand": 2},
                          workload="mcf"),
            self._payload(cycles=7, committed_insts=3,
                          llc_misses_by_kind={"demand": 1, "prefetch": 4},
                          workload=""),
        ])
        assert merged.cycles == 17
        assert merged.committed_insts == 8
        assert merged.llc_misses_by_kind == {"demand": 3, "prefetch": 4}
        assert merged.workload == "mcf"

    def test_merge_is_order_independent_for_counters(self):
        a = self._payload(cycles=10, squashed_uops=2)
        b = self._payload(cycles=7, squashed_uops=5)
        ab, ba = merge_window_stats([a, b]), merge_window_stats([b, a])
        assert ab.cycles == ba.cycles and ab.squashed_uops == ba.squashed_uops


# ---------------------------------------------------------------------------
# Eviction under concurrency (--window-jobs workers sharing a store)
# ---------------------------------------------------------------------------

class TestEvictionRace:
    """Corrupt-entry eviction must use claim-by-rename missing-file-is-a-
    miss semantics: with parallel window jobs, a bare unlink can race a
    peer's atomic rewrite and destroy the *valid* entry (lost update),
    and two evictors can race each other on the delete."""

    def _entry(self, tmp_path):
        proc = _processor()
        proc.warm_up(8_000)
        snap = proc.snapshot()
        store = CheckpointStore(tmp_path)
        key = checkpoint_key(proc.program, proc.config, "base", 8_000)
        return store, key, snap

    def test_eviction_preserves_concurrent_valid_rewrite(self, tmp_path):
        store, key, snap = self._entry(tmp_path)
        store.save(key, snap)
        path = store._path(key)
        # The moment under test: this process read corrupt bytes and
        # decided to evict, but a peer's save() already replaced the
        # file with a fresh valid entry.  The eviction must recover the
        # peer's entry, not delete it.
        recovered = store._evict(path)
        assert recovered is not None
        assert snapshot_bytes(recovered) == snapshot_bytes(snap)
        assert path.exists()
        assert CheckpointStore(tmp_path).load(key) is not None

    def test_racing_evictors_miss_quietly(self, tmp_path):
        store, key, snap = self._entry(tmp_path)
        store.save(key, snap)
        path = store._path(key)
        path.write_bytes(b"corrupt")
        winner = CheckpointStore(tmp_path)
        loser = CheckpointStore(tmp_path)
        assert winner.load(key) is None          # claims and removes
        assert not path.exists()
        assert loser.load(key) is None           # entry gone: plain miss
        assert loser.misses == 1
        # The slot is reusable immediately after.
        store.save(key, snap)
        assert store.load(key) is not None

    def test_two_claimants_in_one_process(self, tmp_path, monkeypatch):
        """Two evictions of one entry overlapping inside one process
        (window-job threads share a pid): the first claimant is paused
        just before putting its claim back while a peer rewrites the
        entry and a second claimant evicts it start to finish.  Each
        claim has its own name, so neither put-back loses the other's
        file, and both recover the valid entry."""
        import os

        store, key, snap = self._entry(tmp_path)
        store.save(key, snap)
        path = store._path(key)
        real_replace = os.replace
        second = []

        def replace(src, dst):
            if ".evict." in str(src) and not second:
                second.append(None)
                store.save(key, snap)
                second[0] = CheckpointStore(tmp_path)._evict(path)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        first = store._evict(path)
        monkeypatch.undo()
        assert second and second[0] is not None
        assert snapshot_bytes(second[0]) == snapshot_bytes(snap)
        assert first is not None
        assert snapshot_bytes(first) == snapshot_bytes(snap)
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        assert snapshot_bytes(store.load(key)) == snapshot_bytes(snap)

    def test_failed_put_back_leaves_no_claim(self, tmp_path, monkeypatch):
        """A valid claim whose put-back fails is still served, and its
        claim file does not linger where nothing would reuse it."""
        import os

        store, key, snap = self._entry(tmp_path)
        store.save(key, snap)
        path = store._path(key)
        real_replace = os.replace

        def replace(src, dst):
            if ".evict." in str(src):
                raise OSError("put-back refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        recovered = store._evict(path)
        monkeypatch.undo()
        assert recovered is not None
        assert snapshot_bytes(recovered) == snapshot_bytes(snap)
        assert [p.name for p in path.parent.iterdir()
                if ".evict." in p.name] == []

    def test_concurrent_eviction_stress(self, tmp_path):
        """Many workers loading/saving/corrupting one key concurrently:
        no exceptions, no lingering claim files, and the surviving entry
        (if any) is valid."""
        import threading

        store, key, snap = self._entry(tmp_path)
        store.save(key, snap)
        path = store._path(key)
        errors = []

        def hammer(worker: int) -> None:
            local = CheckpointStore(tmp_path)
            try:
                for i in range(30):
                    if worker == 0 and i % 3 == 0:
                        try:
                            path.write_bytes(b"corrupt")
                        except OSError:
                            pass
                    elif worker == 1 and i % 5 == 0:
                        local.save(key, snap)
                    loaded = local.load(key)
                    if loaded is not None:
                        assert snapshot_bytes(loaded) == snapshot_bytes(snap)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert errors == []
        leftovers = [p for p in path.parent.iterdir()
                     if ".evict." in p.name or ".tmp." in p.name]
        assert leftovers == []
        final = CheckpointStore(tmp_path)
        final.save(key, snap)
        assert snapshot_bytes(final.load(key)) == snapshot_bytes(snap)
