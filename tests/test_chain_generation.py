"""Algorithm 1 (dependence-chain generation) tests over a synthetic ROB."""

from repro.backend import InFlightUop, StoreQueue
from repro.isa import Instruction, Opcode
from repro.runahead import chain_signature, generate_chain


def uop(seq, pc, inst, dest_phys=None, src1=None, src2=None,
        mem_addr=None):
    u = InFlightUop(pc, inst)
    u.seq = seq
    u.dest_phys = dest_phys
    u.src1_phys = src1
    u.src2_phys = src2
    if mem_addr is not None:
        u.mem_addr = mem_addr
        u.addr_known = True
    return u


LD = lambda rd, rs: Instruction(Opcode.LD, rd=rd, rs1=rs)
ADDI = lambda rd, rs, imm: Instruction(Opcode.ADDI, rd=rd, rs1=rs, imm=imm)
ADD = lambda rd, a, b: Instruction(Opcode.ADD, rd=rd, rs1=a, rs2=b)
ST = lambda rs1, rs2: Instruction(Opcode.ST, rs1=rs1, rs2=rs2)


def make_gather_rob():
    """A mcf-like ROB snapshot: blocking deref at the head, one younger
    iteration in flight.

    PC  program                  iteration k (head)  iteration k+1
    0   ADDI R1, R1, 8           retired             seq 2 (P40->P44)
    1   LD   R2 <- [R1]          retired             seq 3 (P45)
    2   LD   R3 <- [R2]          seq 0 (blocking)    seq 4 (P46)
    3   ADD  R4, R4, R3          seq 1               seq 5
    """
    blocking = uop(0, 2, LD(3, 2), dest_phys=41, src1=30)
    rob = [
        blocking,
        uop(1, 3, ADD(4, 4, 3), dest_phys=42, src1=43, src2=41),
        uop(2, 0, ADDI(1, 1, 8), dest_phys=44, src1=40),
        uop(3, 1, LD(2, 1), dest_phys=45, src1=44),
        uop(4, 2, LD(3, 2), dest_phys=46, src1=45),
        uop(5, 3, ADD(4, 4, 3), dest_phys=47, src1=42, src2=46),
    ]
    return rob, blocking


class TestGatherChain:
    def test_finds_oldest_other_instance(self):
        rob, blocking = make_gather_rob()
        result = generate_chain(rob, blocking, None)
        assert result.found_pc
        assert result.usable

    def test_chain_is_the_filtered_slice(self):
        rob, blocking = make_gather_rob()
        result = generate_chain(rob, blocking, None)
        # Chain: ADDI (pc0), LD (pc1), LD (pc2) — NOT the ADD accumulator.
        pcs = [c.pc for c in result.chain]
        assert pcs == [0, 1, 2]
        opcodes = [c.inst.opcode for c in result.chain]
        assert Opcode.ADD not in opcodes

    def test_walk_terminates_at_retirement_boundary(self):
        rob, blocking = make_gather_rob()
        result = generate_chain(rob, blocking, None)
        # P40 (older iteration's ADDI) is retired: not in the chain.
        assert len(result.chain) == 3
        assert not result.hit_cap

    def test_cycle_cost_accounting(self):
        rob, blocking = make_gather_rob()
        result = generate_chain(rob, blocking, None,
                                reg_searches_per_cycle=2, readout_width=4)
        # 1 (PC CAM) + ceil(searches/2) + ceil(3/4).
        assert result.cycles == 1 + -(-result.reg_searches // 2) + 1
        assert result.reg_searches >= 2


class TestNoMatch:
    def test_no_other_instance(self):
        blocking = uop(0, 2, LD(3, 2), dest_phys=41, src1=30)
        rob = [blocking, uop(1, 3, ADD(4, 4, 3), dest_phys=42, src1=43,
                             src2=41)]
        result = generate_chain(rob, blocking, None)
        assert not result.found_pc
        assert not result.usable
        assert result.chain == ()


class TestLengthCap:
    def test_long_chain_hits_cap(self):
        # A serial ADDI chain longer than the cap, ending in the load.
        blocking = uop(0, 99, LD(1, 2), dest_phys=10, src1=9)
        rob = [blocking]
        phys = 20
        n = 40
        for i in range(n):
            rob.append(uop(1 + i, i, ADDI(1, 1, 1), dest_phys=phys + i + 1,
                           src1=phys + i))
        rob.append(uop(n + 1, 99, LD(1, 2), dest_phys=phys + n + 1,
                       src1=phys + n))
        result = generate_chain(rob, blocking, None, max_length=32)
        assert result.hit_cap
        assert len(result.chain) <= 32

    def test_cap_respected_exactly(self):
        blocking = uop(0, 99, LD(1, 2), dest_phys=10, src1=9)
        rob = [blocking]
        for i in range(50):
            rob.append(uop(1 + i, i, ADDI(1, 1, 1), dest_phys=21 + i,
                           src1=20 + i))
        rob.append(uop(51, 99, LD(1, 2), dest_phys=99, src1=70))
        result = generate_chain(rob, blocking, None, max_length=8)
        assert len(result.chain) <= 8


class TestStoreQueueInclusion:
    def test_forwarding_store_joins_chain(self):
        """A chain load fed by a store (register spill/fill) pulls the
        store and its sources into the chain."""
        blocking = uop(0, 5, LD(3, 2), dest_phys=41, src1=30)
        store = uop(2, 1, ST(1, 7), dest_phys=None, src1=50, src2=51,
                    mem_addr=0x800)
        store.data_known = True
        spill_load = uop(3, 2, LD(2, 1), dest_phys=52, src1=50,
                         mem_addr=0x800)
        deref = uop(4, 5, LD(3, 2), dest_phys=53, src1=52)
        rob = [blocking, store, spill_load, deref]
        sq = StoreQueue(8)
        sq.push(store)
        result = generate_chain(rob, blocking, sq)
        pcs = {c.pc for c in result.chain}
        assert 1 in pcs          # the store joined
        assert result.sq_searches >= 1


class TestCapEdgeCases:
    def test_store_dropped_at_cap_sets_hit_cap(self):
        """A producing store rejected because the chain is already at
        ``max_length`` truncates the chain even when the SRSL then
        drains — ``hit_cap`` must say so (hybrid mode trusts it to fall
        back to traditional runahead)."""
        blocking = uop(0, 5, LD(3, 2), dest_phys=41, src1=30)
        store = uop(2, 1, ST(1, 7), dest_phys=None, src1=50, src2=51,
                    mem_addr=0x800)
        store.data_known = True
        # Spill load addressed off R0: no sources, so the SRSL drains
        # right after the store is (not) appended.
        spill_load = uop(3, 2, LD(2, 0), dest_phys=52, src1=None,
                         mem_addr=0x800)
        deref = uop(4, 5, LD(3, 2), dest_phys=53, src1=52)
        rob = [blocking, store, spill_load, deref]
        sq = StoreQueue(8)
        sq.push(store)
        result = generate_chain(rob, blocking, sq, max_length=2)
        assert len(result.chain) == 2
        assert 1 not in {c.pc for c in result.chain}  # store was dropped
        assert result.hit_cap

    def test_duplicate_srsl_entries_add_producer_once(self):
        """src1 == src2 pushes the same physical register twice; the
        producer must enter the chain once, but both CAM searches are
        still paid for."""
        blocking = uop(0, 9, LD(5, 3), dest_phys=60, src1=30)
        doubler = uop(2, 1, ADD(3, 2, 2), dest_phys=44, src1=43, src2=43)
        feeder = uop(3, 0, ADDI(2, 2, 1), dest_phys=43, src1=42)
        other = uop(4, 9, LD(5, 3), dest_phys=61, src1=44)
        rob = [blocking, doubler, feeder, other]
        result = generate_chain(rob, blocking, None)
        assert sorted(result.chain_seqs) == [2, 3, 4]
        assert len(set(result.chain_seqs)) == len(result.chain_seqs)
        # P44 once, P43 twice (the duplicate), P42 once = 4 searches.
        assert result.reg_searches == 4
        assert not result.hit_cap

    def test_only_other_instance_squashed(self):
        """A squashed duplicate of the blocking PC is not a usable
        template: generation must report no match, not extract a chain
        from a wrong-path uop."""
        rob, blocking = make_gather_rob()
        rob[4].squashed = True      # the younger LD at the blocking PC
        result = generate_chain(rob, blocking, None)
        assert not result.found_pc
        assert not result.usable
        assert result.chain == ()


class TestSignature:
    def test_signature_identity(self):
        rob, blocking = make_gather_rob()
        a = generate_chain(rob, blocking, None).chain
        b = generate_chain(rob, blocking, None).chain
        assert chain_signature(a) == chain_signature(b)

    def test_signature_differs_for_different_chains(self):
        rob, blocking = make_gather_rob()
        a = generate_chain(rob, blocking, None).chain
        assert chain_signature(a) != chain_signature(a[:-1])

    def test_squashed_uops_ignored(self):
        rob, blocking = make_gather_rob()
        for u in rob[1:]:
            u.squashed = True
        result = generate_chain(rob, blocking, None)
        assert not result.found_pc
