"""Back-end substrate tests: rename state, PRF, store queue."""

import pytest

from repro.backend import (
    ForwardResult,
    InFlightUop,
    PhysicalRegisterFile,
    RenameState,
    StoreQueue,
)
from repro.isa import Instruction, NUM_ARCH_REGS, Opcode


class TestPhysicalRegisterFile:
    def test_write_sets_ready_and_poison(self):
        prf = PhysicalRegisterFile(64)
        prf.write(5, 42, poisoned=True)
        assert prf.value[5] == 42
        assert prf.ready[5]
        assert prf.poison[5]

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            PhysicalRegisterFile(16)


class TestRenameState:
    def test_initial_identity_mapping(self):
        rs = RenameState(PhysicalRegisterFile(64))
        assert rs.rat[:4] == [0, 1, 2, 3]
        assert rs.free_count() == 64 - NUM_ARCH_REGS

    def test_alloc_free_roundtrip(self):
        rs = RenameState(PhysicalRegisterFile(64))
        phys = rs.free_list.pop()
        assert phys >= NUM_ARCH_REGS
        before = rs.free_count()
        rs.free(phys)
        assert rs.free_count() == before + 1

    def test_arch_values_follow_commit_rat(self):
        rs = RenameState(PhysicalRegisterFile(64))
        phys = rs.free_list.pop()
        rs.prf.write(phys, 123)
        rs.commit_rat[7] = phys
        assert rs.arch_values()[7] == 123

    def test_reset_to_values(self):
        rs = RenameState(PhysicalRegisterFile(64))
        values = list(range(NUM_ARCH_REGS))
        rs.reset_to_values(values)
        assert rs.arch_values() == values
        assert rs.free_count() == 64 - NUM_ARCH_REGS
        for arch in range(NUM_ARCH_REGS):
            assert rs.prf.ready[rs.rat[arch]]
            assert not rs.prf.poison[rs.rat[arch]]


def make_store(seq, addr=None, data=0, data_known=True, poisoned=False):
    uop = InFlightUop(pc=0, inst=Instruction(Opcode.ST, rs1=1, rs2=2))
    uop.seq = seq
    # Dispatch clears addr_known; execute sets mem_addr with it.
    uop.addr_known = addr is not None
    if addr is not None:
        uop.mem_addr = addr
    uop.store_data = data
    uop.data_known = data_known
    uop.poisoned = poisoned
    return uop


class TestStoreQueue:
    def test_forward_from_youngest_match(self):
        sq = StoreQueue(8)
        sq.push(make_store(1, addr=0x100, data=11))
        sq.push(make_store(2, addr=0x100, data=22))
        result, store = sq.search(0x100 >> 3, load_seq=5)
        assert result is ForwardResult.FORWARD
        assert store.store_data == 22

    def test_no_match(self):
        sq = StoreQueue(8)
        sq.push(make_store(1, addr=0x100))
        result, _ = sq.search(0x200 >> 3, load_seq=5)
        assert result is ForwardResult.NO_MATCH

    def test_unknown_address_forces_wait(self):
        sq = StoreQueue(8)
        sq.push(make_store(1))  # address unknown
        result, _ = sq.search(0x100 >> 3, load_seq=5)
        assert result is ForwardResult.WAIT

    def test_pending_data_forces_wait(self):
        sq = StoreQueue(8)
        sq.push(make_store(1, addr=0x100, data_known=False))
        result, _ = sq.search(0x100 >> 3, load_seq=5)
        assert result is ForwardResult.WAIT

    def test_poisoned_address_store_skipped(self):
        sq = StoreQueue(8)
        sq.push(make_store(1, poisoned=True))  # runahead INV store
        result, _ = sq.search(0x100 >> 3, load_seq=5)
        assert result is ForwardResult.NO_MATCH

    def test_younger_stores_ignored(self):
        sq = StoreQueue(8)
        sq.push(make_store(9, addr=0x100, data=99))
        result, _ = sq.search(0x100 >> 3, load_seq=5)
        assert result is ForwardResult.NO_MATCH

    def test_squash_younger(self):
        sq = StoreQueue(8)
        sq.push(make_store(1, addr=0x100))
        sq.push(make_store(5, addr=0x200))
        sq.squash_younger(boundary_seq=3)
        assert len(sq) == 1

    def test_pop_oldest_pops_head(self):
        sq = StoreQueue(8)
        a, b = make_store(1, addr=0x100), make_store(2, addr=0x200)
        sq.push(a)
        sq.push(b)
        sq.pop_oldest(a)
        assert len(sq) == 1
        sq.pop_oldest(b)
        assert len(sq) == 0

    def test_pop_oldest_raises_on_non_head(self):
        # A commit popping anything but the queue head means stores are
        # retiring out of order — a silent no-op here masked that.
        sq = StoreQueue(8)
        a, b = make_store(1, addr=0x100), make_store(2, addr=0x200)
        sq.push(a)
        sq.push(b)
        with pytest.raises(RuntimeError, match="out of order"):
            sq.pop_oldest(b)
        assert len(sq) == 2  # queue untouched

    def test_pop_oldest_raises_on_empty(self):
        sq = StoreQueue(8)
        with pytest.raises(RuntimeError, match="out of order"):
            sq.pop_oldest(make_store(1))

    def test_capacity(self):
        sq = StoreQueue(2)
        sq.push(make_store(1))
        sq.push(make_store(2))
        assert sq.full()

    def test_find_producing_store_for_chain_gen(self):
        sq = StoreQueue(8)
        sq.push(make_store(1, addr=0x100, data=7))
        found = sq.find_producing_store(0x100 >> 3, load_seq=5)
        assert found is not None and found.seq == 1
        assert sq.find_producing_store(0x300 >> 3, load_seq=5) is None
