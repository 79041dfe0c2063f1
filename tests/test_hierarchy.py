"""Memory hierarchy integration tests: levels, inclusion, MSHRs."""

from repro.config import default_system, make_config
from repro.memory import MemoryHierarchy, SharedLLC


def make_hierarchy(prefetch=False):
    cfg = make_config(prefetcher=prefetch)
    return MemoryHierarchy(cfg)


class TestLoadPath:
    def test_cold_load_goes_to_dram(self):
        h = make_hierarchy()
        result = h.load(0x10000, now=0)
        assert result.level == "DRAM"
        assert result.done_cycle > h.l1d.latency + h.llc.latency
        assert h.llc.stats.misses == 1

    def test_warm_load_hits_l1(self):
        h = make_hierarchy()
        first = h.load(0x10000, now=0)
        second = h.load(0x10000, now=first.done_cycle + 1)
        assert second.level == "L1"
        assert second.done_cycle == first.done_cycle + 1 + h.l1d.latency

    def test_inflight_merge(self):
        h = make_hierarchy()
        first = h.load(0x10000, now=0)
        merged = h.load(0x10008, now=5)  # same 64B line, fill in flight
        assert merged.merged
        assert merged.done_cycle == first.done_cycle

    def test_llc_hit_after_l1_eviction(self):
        h = make_hierarchy()
        done = h.load(0x10000, now=0).done_cycle
        h.l1d.invalidate(h.line_of(0x10000))
        again = h.load(0x10000, now=done + 1)
        assert again.level == "LLC"

    def test_demand_miss_counting(self):
        h = make_hierarchy()
        h.load(0, now=0, kind="demand")
        h.load(1 << 20, now=0, kind="runahead")
        assert h.llc_misses["demand"] == 1
        assert h.llc_misses["runahead"] == 1
        assert h.demand_llc_misses() == 1


class TestInclusion:
    def test_llc_eviction_back_invalidates_l1(self):
        h = make_hierarchy()
        llc_lines = h.llc.num_sets * h.llc.assoc
        target = 0x40000000
        h.load(target, now=0)
        line = h.line_of(target)
        assert h.l1d.probe(line)
        # Fill enough conflicting lines to evict the target from the LLC.
        set_index = line % h.llc.num_sets
        for k in range(1, h.llc.assoc + 2):
            conflict = line + k * h.llc.num_sets
            h.llc.fill(conflict, 0)
        assert not h.llc.probe(line)
        assert not h.l1d.probe(line)
        del llc_lines, set_index


class TestMshrBackpressure:
    def test_speculative_requests_bounced_when_full(self):
        h = make_hierarchy()
        mshrs = h.config.llc.mshrs
        for i in range(mshrs):
            h.load(i * 64 + (1 << 24), now=0, kind="demand")
        result = h.load(1 << 26, now=0, kind="runahead")
        assert result.level == "RETRY"
        assert result.done_cycle > 0
        assert h.mshr_rejections == 1

    def test_demand_gets_reserved_mshrs(self):
        h = make_hierarchy()
        mshrs = h.config.llc.mshrs
        reserve = SharedLLC._SPECULATIVE_RESERVE
        for i in range(mshrs - reserve):
            h.load(i * 64 + (1 << 24), now=0, kind="runahead")
        # Speculative is now rejected, demand still admitted.
        assert h.load(1 << 26, now=0, kind="runahead").level == "RETRY"
        assert h.load(2 << 26, now=0, kind="demand").level == "DRAM"

    def test_mshrs_free_over_time(self):
        h = make_hierarchy()
        mshrs = h.config.llc.mshrs
        dones = [h.load(i * 64 + (1 << 24), now=0).done_cycle
                 for i in range(mshrs)]
        late = max(dones) + 1
        assert h.load(1 << 26, now=late, kind="runahead").level == "DRAM"

    def test_fewer_mshrs_than_speculative_reserve(self):
        """A config with llc.mshrs <= the speculative reserve leaves no
        slot for speculative kinds; the request must bounce forward (not
        IndexError on the empty fill heap — found by the config fuzzer)."""
        cfg = make_config()
        cfg.llc.mshrs = SharedLLC._SPECULATIVE_RESERVE
        h = MemoryHierarchy(cfg)
        result = h.load(1 << 24, now=7, kind="runahead")
        assert result.level == "RETRY"
        assert result.done_cycle > 7
        # Demand traffic is unaffected.
        assert h.load(1 << 26, now=7, kind="demand").level == "DRAM"

    def test_mshr_occupancy_is_non_mutating(self):
        h = make_hierarchy()
        done = h.load(1 << 24, now=0).done_cycle
        heap_before = list(h._fills)
        assert h.mshr_occupancy(0) == 1
        assert h.mshr_occupancy(done) == 0     # completed at `done`
        assert h._fills == heap_before          # observer left the heap alone
        assert h.mshr_occupancy(0) == 1         # ...so it can re-read the past


class TestStoresAndIfetch:
    def test_store_commit_marks_dirty(self):
        h = make_hierarchy()
        done = h.load(0x5000, now=0).done_cycle
        h.store_commit(0x5000, now=done + 1)
        line = h.l1d.lookup(h.line_of(0x5000), touch=False)
        assert line.dirty

    def test_store_miss_allocates(self):
        h = make_hierarchy()
        h.store_commit(0x7000, now=0)
        assert h.l1d.probe(h.line_of(0x7000))
        assert h.llc_misses["store"] == 1

    def test_ifetch_path(self):
        h = make_hierarchy()
        done = h.ifetch(0x100, now=0)
        assert done > 0
        assert h.ifetch_llc_misses == 1
        done2 = h.ifetch(0x100, now=done + 1)
        assert done2 == done + 1 + h.l1i.latency


class TestWarmup:
    def test_warm_load_installs_without_timing(self):
        h = make_hierarchy()
        h.warm_load(0x9000)
        result = h.load(0x9000, now=0)
        assert result.level == "L1"
        assert h.llc.stats.misses == 0

    def test_warm_ifetch(self):
        h = make_hierarchy()
        h.warm_ifetch(0x100)
        assert h.ifetch(0x104, now=0) == h.l1i.latency


class TestPrefetcherIntegration:
    def test_stream_prefetches_into_llc(self):
        h = make_hierarchy(prefetch=True)
        base = 1 << 24
        now = 0
        for i in range(8):
            result = h.load(base + i * 64, now=now, kind="demand")
            now = result.done_cycle + 1
        assert h.prefetcher.stats.issued > 0
        # Lines ahead of the stream should be resident or in flight.
        ahead = h.line_of(base + 9 * 64)
        assert h.llc.probe(ahead)

    def test_prefetched_lines_marked(self):
        h = make_hierarchy(prefetch=True)
        base = 1 << 24
        now = 0
        for i in range(8):
            now = h.load(base + i * 64, now=now).done_cycle + 1
        ahead = h.llc.lookup(h.line_of(base + 9 * 64), touch=False)
        assert ahead is not None and ahead.prefetched
