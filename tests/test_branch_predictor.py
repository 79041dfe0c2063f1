"""Hybrid branch predictor tests: tables, BTB, RAS, repair."""

from repro.config import BranchPredictorConfig
from repro.frontend import BranchPredictor
from repro.isa import Instruction, Opcode


def make_bp(**overrides):
    return BranchPredictor(BranchPredictorConfig(**overrides))


COND = Instruction(Opcode.BNE, rs1=1, rs2=2, target=5)
JMP = Instruction(Opcode.JMP, target=9)
CALL = Instruction(Opcode.CALL, rd=31, target=20)
RET = Instruction(Opcode.RET, rs1=31)
JR = Instruction(Opcode.JR, rs1=3)


class TestConditional:
    def test_learns_always_taken(self):
        bp = make_bp()
        for _ in range(8):
            taken, target = bp.predict(10, COND)
            bp.update(10, COND, True, 5, mispredicted=not taken)
        taken, target = bp.predict(10, COND)
        assert taken and target == 5

    def test_learns_never_taken(self):
        bp = make_bp()
        for _ in range(8):
            taken, _ = bp.predict(10, COND)
            bp.update(10, COND, False, 11, mispredicted=taken)
        taken, target = bp.predict(10, COND)
        assert not taken and target == 11

    def test_gshare_learns_alternating_pattern(self):
        bp = make_bp()
        # Strict T/N alternation is captured by 1 bit of history.
        outcome = True
        mispredicts = 0
        for i in range(200):
            ghr_at_predict = bp.ghr
            taken, _ = bp.predict(10, COND)
            if taken != outcome:
                mispredicts += 1
                # Mispredict: repair speculative history as the core does.
                bp.ghr = ((ghr_at_predict << 1) | int(outcome)) \
                    & bp._history_mask
            bp.update(10, COND, outcome, 5 if outcome else 11,
                      taken != outcome, ghr=ghr_at_predict)
            outcome = not outcome
        # After warmup the pattern should be predicted nearly perfectly.
        assert mispredicts < 40

    def test_warmup_training_without_predict_learns_pattern(self):
        bp = make_bp()
        outcome = True
        for _ in range(100):
            bp.update(10, COND, outcome, 5 if outcome else 11, False)
            outcome = not outcome
        # Now predictions should follow the alternation.
        hits = 0
        for _ in range(20):
            ghr = bp.ghr
            taken, _ = bp.predict(10, COND)
            hits += taken == outcome
            bp.update(10, COND, outcome, 5 if outcome else 11,
                      taken != outcome, ghr=ghr)
            if taken != outcome:
                bp.ghr = ((ghr << 1) | int(outcome)) & bp._history_mask
            outcome = not outcome
        assert hits >= 15

    def test_accuracy_stat(self):
        bp = make_bp()
        for _ in range(10):
            taken, _ = bp.predict(10, COND)
            bp.update(10, COND, True, 5, mispredicted=not taken)
        assert 0.0 <= bp.stats.accuracy <= 1.0


class TestUnconditional:
    def test_jmp_always_taken_with_target(self):
        bp = make_bp()
        taken, target = bp.predict(0, JMP)
        assert taken and target == 9

    def test_jr_unknown_without_btb(self):
        bp = make_bp()
        taken, target = bp.predict(0, JR)
        assert taken and target is None
        assert bp.stats.btb_misses == 1

    def test_jr_uses_btb_after_training(self):
        bp = make_bp()
        bp.update(0, JR, True, 1234, mispredicted=True)
        taken, target = bp.predict(0, JR)
        assert target == 1234

    def test_btb_capacity_bounded(self):
        bp = make_bp(btb_entries=4)
        for pc in range(10):
            bp.update(pc, JMP, True, pc + 100, mispredicted=False)
        assert len(bp._btb) <= 4


class TestRas:
    def test_call_return_pairing(self):
        bp = make_bp()
        bp.predict(7, CALL)
        taken, target = bp.predict(20, RET)
        assert taken and target == 8

    def test_nested_calls(self):
        bp = make_bp()
        bp.predict(1, CALL)
        bp.predict(2, CALL)
        assert bp.predict(30, RET)[1] == 3
        assert bp.predict(31, RET)[1] == 2
        assert bp.stats.ras_predictions == 2


class TestSnapshots:
    def test_snapshot_restores_history(self):
        bp = make_bp()
        snap = bp.snapshot()
        bp.predict(10, COND)
        bp.predict(10, COND)
        ghr, _ras_sp, _ras_top = snap
        assert bp.ghr != ghr or True  # history may change
        bp.restore(snap)
        assert bp.ghr == ghr

    def test_repair_reapplies_actual_outcome(self):
        bp = make_bp()
        snap = bp.snapshot()
        bp.predict(10, COND)        # speculative update (maybe wrong)
        bp.repair(10, COND, taken=True, snapshot=snap)
        ghr, _ras_sp, _ras_top = snap
        assert bp.ghr == ((ghr << 1) | 1) & bp._history_mask

    def test_repair_call_restores_ras(self):
        bp = make_bp()
        snap = bp.snapshot()
        bp.predict(7, CALL)
        bp.repair(7, CALL, taken=True, snapshot=snap)
        assert bp.predict(20, RET)[1] == 8

    def test_full_checkpoint_roundtrip(self):
        bp = make_bp()
        bp.predict(1, CALL)
        checkpoint = bp.checkpoint_full()
        bp.predict(2, CALL)
        bp.predict(30, RET)
        bp.predict(10, COND)
        bp.restore_full(checkpoint)
        assert bp.predict(30, RET)[1] == 2
