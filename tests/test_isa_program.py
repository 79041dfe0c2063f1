"""ProgramBuilder / Program tests."""

import pytest

from repro.isa import Opcode, Program, ProgramBuilder, Instruction


class TestProgramBuilder:
    def test_labels_resolve(self):
        b = ProgramBuilder()
        b.label("top")
        b.addi("R1", "R1", 1)
        b.jmp("top")
        program = b.build()
        assert program.instructions[1].target == 0

    def test_forward_labels(self):
        b = ProgramBuilder()
        b.beq("R1", "R0", "end")
        b.nop()
        b.label("end")
        b.halt()
        program = b.build()
        assert program.instructions[0].target == 2

    def test_undefined_label_raises(self):
        b = ProgramBuilder()
        b.jmp("nowhere")
        with pytest.raises(ValueError, match="undefined label"):
            b.build()

    def test_duplicate_label_raises(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(ValueError, match="duplicate"):
            b.label("x")

    def test_entry_by_label(self):
        b = ProgramBuilder()
        b.nop()
        b.label("go")
        b.halt()
        program = b.build(entry="go")
        assert program.entry == 1

    def test_undefined_entry_label(self):
        b = ProgramBuilder()
        b.halt()
        with pytest.raises(ValueError, match="undefined entry"):
            b.build(entry="missing")

    def test_numeric_branch_target(self):
        b = ProgramBuilder()
        b.jmp(0)
        program = b.build()
        assert program.instructions[0].target == 0

    def test_pc_helper(self):
        b = ProgramBuilder()
        assert b.pc() == 0
        b.nop()
        assert b.pc() == 1

    def test_call_writes_link_register(self):
        b = ProgramBuilder()
        b.call(0)
        program = b.build()
        assert program.instructions[0].rd == 31

    def test_all_alu_emitters(self):
        b = ProgramBuilder()
        for emit in (b.add, b.sub, b.and_, b.or_, b.xor, b.shl, b.shr,
                     b.mul, b.div, b.fadd, b.fmul, b.fdiv):
            emit("R1", "R2", "R3")
        program = b.build()
        assert len(program) == 12
        assert all(i.rd == 1 and i.rs1 == 2 and i.rs2 == 3
                   for i in program.instructions)


class TestProgram:
    def test_fetch_out_of_range_returns_nop(self):
        program = Program([Instruction(Opcode.HALT)])
        assert program.fetch(99).opcode is Opcode.NOP
        assert program.fetch(-1).opcode is Opcode.NOP

    def test_in_range(self):
        program = Program([Instruction(Opcode.NOP)] * 3)
        assert program.in_range(0) and program.in_range(2)
        assert not program.in_range(3)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program([])

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            Program([Instruction(Opcode.NOP)], entry=5)


class TestInstruction:
    def test_sources_exclude_zero_register(self):
        inst = Instruction(Opcode.ADD, rd=1, rs1=0, rs2=5)
        assert inst.src1 is None
        assert inst.src2 == 5

    def test_dest_excludes_zero_register(self):
        inst = Instruction(Opcode.ADD, rd=0, rs1=1, rs2=2)
        assert inst.dest_reg is None

    def test_classification(self):
        load = Instruction(Opcode.LD, rd=1, rs1=2)
        store = Instruction(Opcode.ST, rs1=1, rs2=2)
        branch = Instruction(Opcode.BEQ, rs1=1, rs2=2, target=0)
        assert load.is_load and load.is_mem and not load.is_branch
        assert store.is_store and store.is_mem
        assert branch.is_branch and branch.is_conditional_branch

    def test_indirects(self):
        assert Instruction(Opcode.JR, rs1=1).is_indirect
        assert Instruction(Opcode.RET, rs1=31).is_return
        assert Instruction(Opcode.CALL, rd=31, target=0).is_call

    def test_key_identity(self):
        a = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        b = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        c = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=4)
        assert a.key() == b.key()
        assert a.key() != c.key()
