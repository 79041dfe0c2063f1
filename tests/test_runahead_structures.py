"""Runahead cache, chain cache, and runahead buffer tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, Opcode
from repro.runahead import ChainCache, ChainUop, RunaheadBuffer, RunaheadCache


def chain_of(n, opcode=Opcode.ADDI):
    return tuple(
        ChainUop(pc, Instruction(opcode, rd=1, rs1=1, imm=pc))
        for pc in range(n)
    )


class TestRunaheadCache:
    def test_write_read_roundtrip(self):
        rc = RunaheadCache()
        rc.write(0x1000, 42)
        assert rc.read(0x1000) == 42
        assert rc.hits == 1

    def test_miss(self):
        rc = RunaheadCache()
        assert rc.read(0x1000) is None
        assert rc.misses == 1

    def test_word_granularity(self):
        rc = RunaheadCache()
        rc.write(0x1000, 1)
        rc.write(0x1008, 2)
        assert rc.read(0x1000) == 1
        assert rc.read(0x1008) == 2

    def test_capacity_by_set(self):
        rc = RunaheadCache(size_bytes=64, assoc=2, line_bytes=8)
        # 4 sets x 2 ways; 3 conflicting words in one set evict the LRU.
        rc.write(0 * 8, 10)      # set 0
        rc.write(4 * 8, 20)      # set 0
        rc.write(8 * 8, 30)      # set 0 -> evicts word 0
        assert rc.read(0) is None
        assert rc.read(4 * 8) == 20
        assert rc.read(8 * 8) == 30

    def test_clear(self):
        rc = RunaheadCache()
        rc.write(0x1000, 42)
        rc.clear()
        assert rc.read(0x1000) is None

    def test_overwrite(self):
        rc = RunaheadCache()
        rc.write(0x1000, 1)
        rc.write(0x1000, 2)
        assert rc.read(0x1000) == 2

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            RunaheadCache(size_bytes=8, assoc=4, line_bytes=8)

    @given(writes=st.lists(
        st.tuples(st.integers(0, 1023), st.integers(0, 2**32)),
        min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_read_never_returns_stale_garbage(self, writes):
        """A hit must return the most recent write to that word."""
        rc = RunaheadCache()
        latest = {}
        for addr, value in writes:
            rc.write(addr, value)
            latest[addr >> 3] = value
        for addr, _ in writes:
            got = rc.read(addr)
            if got is not None:
                assert got == latest[addr >> 3]


class TestChainCache:
    def test_insert_lookup(self):
        cc = ChainCache(entries=2)
        chain = chain_of(4)
        cc.insert(100, chain)
        assert cc.lookup(100) == chain
        assert cc.hits == 1

    def test_miss(self):
        cc = ChainCache()
        assert cc.lookup(5) is None
        assert cc.misses == 1

    def test_lru_eviction(self):
        cc = ChainCache(entries=2)
        cc.insert(1, chain_of(1))
        cc.insert(2, chain_of(2))
        cc.lookup(1)                  # refresh 1
        cc.insert(3, chain_of(3))     # evicts 2
        assert cc.lookup(2) is None
        assert cc.lookup(1) is not None
        assert cc.lookup(3) is not None

    def test_no_path_associativity(self):
        """One chain per PC: a new insert replaces the old chain."""
        cc = ChainCache(entries=2)
        cc.insert(7, chain_of(2))
        cc.insert(7, chain_of(5))
        assert len(cc) == 1
        assert len(cc.lookup(7)) == 5

    def test_hit_rate(self):
        cc = ChainCache()
        cc.insert(1, chain_of(1))
        cc.lookup(1)
        cc.lookup(2)
        assert cc.hits == 1
        assert cc.misses == 1
        assert cc.insertions == 1

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            ChainCache(entries=0)


class TestRunaheadBuffer:
    def test_load_and_loop(self):
        rab = RunaheadBuffer(capacity_uops=8)
        chain = chain_of(3)
        rab.load_chain(chain)
        out = [rab.take() for _ in range(7)]
        expected = [chain[i % 3] for i in range(7)]
        assert out == expected
        assert rab.iterations_started == 3

    def test_peek_does_not_advance(self):
        rab = RunaheadBuffer()
        rab.load_chain(chain_of(2))
        first = rab.peek()
        assert rab.peek() == first
        assert rab.take() == first

    def test_capacity_enforced(self):
        rab = RunaheadBuffer(capacity_uops=4)
        with pytest.raises(ValueError):
            rab.load_chain(chain_of(5))

    def test_empty_chain_rejected(self):
        rab = RunaheadBuffer()
        with pytest.raises(ValueError):
            rab.load_chain(())

    def test_deactivate(self):
        rab = RunaheadBuffer()
        rab.load_chain(chain_of(2))
        rab.deactivate()
        assert not rab.active
        with pytest.raises(RuntimeError):
            rab.take()

    def test_peek_empty_raises(self):
        rab = RunaheadBuffer()
        with pytest.raises(RuntimeError):
            rab.peek()

    def test_reload_resets_cursor(self):
        rab = RunaheadBuffer()
        rab.load_chain(chain_of(3))
        rab.take()
        rab.take()
        rab.load_chain(chain_of(2))
        assert rab.peek().pc == 0
