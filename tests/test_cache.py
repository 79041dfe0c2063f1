"""Set-associative cache model tests."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory import Cache


def make_cache(size=1024, assoc=2, line=64, latency=3):
    return Cache(CacheConfig("T", size, assoc, line, latency))


def occupancy(cache):
    """Resident (or in-fill) lines, over every set."""
    return sum(len(cache_set) for cache_set in cache._sets)


class TestBasics:
    def test_geometry(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        assert cache.num_sets == 8

    def test_fill_then_lookup(self):
        cache = make_cache()
        cache.fill(5, ready_cycle=10)
        line = cache.lookup(5)
        assert line is not None
        assert line.ready_cycle == 10

    def test_miss_returns_none(self):
        cache = make_cache()
        assert cache.lookup(5) is None

    def test_probe_does_not_touch_lru(self):
        cache = make_cache(assoc=2)
        sets = cache.num_sets
        a, b, c = 0, sets, 2 * sets  # same set
        cache.fill(a, 0)
        cache.fill(b, 0)
        cache.probe(a)          # must NOT refresh a
        cache.fill(c, 0)        # evicts a (LRU), not b
        assert not cache.probe(a)
        assert cache.probe(b)


class TestLru:
    def test_lookup_refreshes_lru(self):
        cache = make_cache(assoc=2)
        sets = cache.num_sets
        a, b, c = 0, sets, 2 * sets
        cache.fill(a, 0)
        cache.fill(b, 0)
        cache.lookup(a)         # refresh a
        cache.fill(c, 0)        # evicts b
        assert cache.probe(a)
        assert not cache.probe(b)

    def test_eviction_returns_victim(self):
        cache = make_cache(assoc=1)
        sets = cache.num_sets
        cache.fill(0, 0)
        victim = cache.fill(sets, 0)
        assert victim is not None and victim[0] == 0
        assert cache.stats.evictions == 1


class TestDirtyAndWriteback:
    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache(assoc=1)
        sets = cache.num_sets
        cache.fill(0, 0)
        cache.mark_dirty(0)
        cache.fill(sets, 0)
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(assoc=1)
        sets = cache.num_sets
        cache.fill(0, 0)
        cache.fill(sets, 0)
        assert cache.stats.writebacks == 0


class TestFillMerge:
    def test_refill_lowers_ready_time(self):
        cache = make_cache()
        cache.fill(7, ready_cycle=100)
        cache.fill(7, ready_cycle=50)
        assert cache.lookup(7).ready_cycle == 50

    def test_refill_does_not_raise_ready_time(self):
        cache = make_cache()
        cache.fill(7, ready_cycle=50)
        cache.fill(7, ready_cycle=100)
        assert cache.lookup(7).ready_cycle == 50


class TestInvalidation:
    def test_invalidate(self):
        cache = make_cache()
        cache.fill(3, 0)
        line = cache.invalidate(3)
        assert line is not None
        assert not cache.probe(3)
        assert cache.stats.invalidations == 1

    def test_invalidate_missing_is_noop(self):
        cache = make_cache()
        assert cache.invalidate(3) is None
        assert cache.stats.invalidations == 0

    def test_fill_hands_back_its_victim(self):
        # The level's owner settles each victim (for the LLC,
        # SharedLLC.fill: writeback, prefetch feedback and L1
        # back-invalidation), so the victim comes back with its state.
        cache = make_cache(assoc=1)
        assert cache.fill(0, 0, prefetched=True) is None
        cache.mark_dirty(0)
        addr, line = cache.fill(cache.num_sets, 0)
        assert addr == 0 and line.dirty and line.prefetched
        assert not cache.probe(0)


class TestOccupancy:
    def test_occupancy_counts_every_fill(self):
        cache = make_cache()
        for i in range(5):
            cache.fill(i, 0)
        assert occupancy(cache) == 5

    @given(addrs=st.lists(st.integers(min_value=0, max_value=4096),
                          min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_capacity(self, addrs):
        cache = make_cache(size=512, assoc=2, line=64)  # 8 lines total
        for addr in addrs:
            cache.fill(addr, 0)
        assert occupancy(cache) <= 8
        # And every set respects associativity.
        for cache_set in cache._sets:
            assert len(cache_set) <= 2

    @given(addrs=st.lists(st.integers(min_value=0, max_value=256),
                          min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_most_recent_fill_always_present(self, addrs):
        cache = make_cache(size=512, assoc=2, line=64)
        for addr in addrs:
            cache.fill(addr, 0)
            assert cache.probe(addr)


class TestMruFastPath:
    """The MRU shortcut must be invisible: same lines, same LRU order."""

    def test_repeat_lookup_returns_same_line(self):
        cache = make_cache()
        cache.fill(5, 0)
        first = cache.lookup(5)
        assert cache.lookup(5) is first

    def test_repeat_lookup_keeps_lru_exact(self):
        cache = make_cache(assoc=2)
        sets = cache.num_sets
        a, b, c = 0, sets, 2 * sets
        cache.fill(a, 0)
        cache.fill(b, 0)
        for _ in range(3):
            cache.lookup(a)     # first touch is slow-path, the rest MRU
        cache.fill(c, 0)        # evicts b: a is most recently used
        assert cache.probe(a)
        assert not cache.probe(b)

    def test_fill_merge_on_mru_line(self):
        cache = make_cache()
        cache.fill(7, ready_cycle=100)
        cache.lookup(7)               # 7 is now the tracked MRU line
        cache.fill(7, ready_cycle=50)
        assert cache.lookup(7).ready_cycle == 50
        cache.fill(7, ready_cycle=200)  # merge must never raise ready time
        assert cache.lookup(7).ready_cycle == 50

    def test_invalidate_clears_mru(self):
        cache = make_cache()
        cache.fill(5, 0)
        cache.lookup(5)
        cache.invalidate(5)
        assert not cache.probe(5)
        assert cache.lookup(5) is None

    def test_evicting_the_mru_line_clears_it(self):
        cache = make_cache(assoc=1)
        sets = cache.num_sets
        cache.fill(0, 0)
        cache.lookup(0)
        cache.fill(sets, 0)     # 1-way set: evicts the tracked line
        assert not cache.probe(0)
        assert cache.lookup(0) is None
        assert cache.probe(sets)

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["fill", "lookup", "probe", "invalidate"]),
                  st.integers(min_value=0, max_value=64)),
        min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_matches_plain_lru_reference(self, ops):
        # Differential check: replay the same ops against a reference that
        # has no fast path, then compare per-set contents *and order*.
        cache = make_cache(size=512, assoc=2, line=64)
        ref = [OrderedDict() for _ in range(cache.num_sets)]
        for op, addr in ops:
            rset = ref[addr % cache.num_sets]
            if op == "fill":
                cache.fill(addr, 0)
                if addr in rset:
                    rset.move_to_end(addr)
                else:
                    if len(rset) >= cache.assoc:
                        rset.popitem(last=False)
                    rset[addr] = True
            elif op == "lookup":
                hit = cache.lookup(addr) is not None
                assert hit == (addr in rset)
                if hit:
                    rset.move_to_end(addr)
            elif op == "probe":
                assert cache.probe(addr) == (addr in rset)
            else:
                cache.invalidate(addr)
                rset.pop(addr, None)
        for cache_set, rset in zip(cache._sets, ref):
            assert list(cache_set) == list(rset)
