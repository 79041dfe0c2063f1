"""Differential verification subsystem tests (``repro.verify``).

Covers the fuzz generator's determinism and termination guarantees, the
retirement-stream differ, the per-cycle invariant checker (both that it
passes on a healthy core and that it actually catches seeded
corruption), the greedy reproducer minimizer, the campaign's shared core
runs, and the ``repro verify`` CLI plumbing.
"""

import pytest

from repro.cli import main
from repro.config import build_named_config
from repro.core import Processor
from repro.isa import Interpreter
from repro.verify import (
    DEFAULT_CONFIGS,
    Divergence,
    InvariantError,
    RetireRecord,
    attach_invariant_checker,
    build_fuzz_program,
    diff_run,
    oracle_stream,
    processor_stream,
    rebuild,
    render_divergence,
    run_verify,
    verify_seed,
)
from repro.verify import differential
from repro.verify.differential import diff_streams
from repro.verify.harness import minimize
from repro.verify.invariants import InvariantChecker


class TestFuzzGenerator:
    def test_deterministic(self):
        a = build_fuzz_program(7, target_insts=4000)
        b = build_fuzz_program(7, target_insts=4000)
        assert a.spec == b.spec
        assert ([i.key() for i in a.program.instructions]
                == [i.key() for i in b.program.instructions])

    def test_seeds_differ(self):
        a = build_fuzz_program(1, target_insts=4000)
        b = build_fuzz_program(2, target_insts=4000)
        assert a.spec != b.spec

    @pytest.mark.parametrize("seed", range(6))
    def test_terminates_within_budget(self, seed):
        fp = build_fuzz_program(seed, target_insts=4000)
        records, interp = oracle_stream(fp, 8000)
        assert interp.halted, "fuzz program must HALT within 2x its target"
        assert len(records) > 100

    def test_memory_fresh_per_call(self):
        fp = build_fuzz_program(3, target_insts=2000)
        m1, m2 = fp.memory(), fp.memory()
        assert m1 is not m2
        assert m1.snapshot() == m2.snapshot()

    def test_rebuild_subset_still_halts(self):
        fp = build_fuzz_program(5, target_insts=4000)
        sub = rebuild(fp.spec, blocks=fp.spec.blocks[:1],
                      outer_iterations=1)
        assert len(sub.spec.blocks) == 1
        _, interp = oracle_stream(sub, 8000)
        assert interp.halted


class TestDifferential:
    def test_streams_match_on_baseline(self):
        fp = build_fuzz_program(0, target_insts=3000)
        oracle, interp = oracle_stream(fp, 6000)
        actual, run = processor_stream(fp, "baseline", 6000)
        assert diff_streams(oracle, actual) is None
        assert interp.halted == run.halted

    def test_diff_streams_pinpoints_first_mismatch(self):
        fp = build_fuzz_program(0, target_insts=3000)
        oracle, _ = oracle_stream(fp, 6000)
        mutated = list(oracle)
        index = len(mutated) // 2
        record = RetireRecord._make(mutated[index])
        mutated[index] = record._replace(dest_value=0xDEAD,
                                         next_pc=record.next_pc + 1)
        found = diff_streams(oracle, mutated)
        assert found is not None
        where, fields = found
        assert where == index
        assert "dest_value" in fields and "next_pc" in fields

    def test_record_equals_plain_tuple(self):
        fp = build_fuzz_program(0, target_insts=1000)
        oracle, _ = oracle_stream(fp, 2000)
        assert all(type(r) is tuple for r in oracle)
        assert RetireRecord._make(oracle[0]) == oracle[0]
        assert diff_streams(oracle, [RetireRecord._make(r)
                                     for r in oracle]) is None

    @staticmethod
    def _diff_perturbed(monkeypatch, perturb):
        """``diff_run`` on baseline with ``perturb(records, run)``
        applied to the core side's stream and run record before the
        diff."""
        inner = differential.processor_stream

        def perturbed(*args, **kwargs):
            records, run = inner(*args, **kwargs)
            perturb(records, run)
            return records, run

        monkeypatch.setattr(differential, "processor_stream", perturbed)
        fp = build_fuzz_program(0, target_insts=2000)
        return diff_run(fp, "baseline", 4000, config_name="baseline")

    def test_dropped_retirement_reports_length(self, monkeypatch):
        div = self._diff_perturbed(
            monkeypatch, lambda records, run: records.pop())
        assert div is not None and div.kind == "length"
        assert "oracle=" in div.detail and "core=" in div.detail
        assert ">>" in div.context   # points at the missing op

    def test_unhalted_core_reports_halt(self, monkeypatch):
        def unhalt(records, run):
            run.halted = False

        div = self._diff_perturbed(monkeypatch, unhalt)
        assert div is not None and div.kind == "halt"
        assert "core halted=False" in div.detail

    def test_corrupt_register_reports_final_regs(self, monkeypatch):
        def corrupt(records, run):
            run.regs[5] ^= 1

        div = self._diff_perturbed(monkeypatch, corrupt)
        assert div is not None and div.kind == "final_regs"
        assert "R5:" in div.detail

    def test_corrupt_memory_reports_final_mem(self, monkeypatch):
        addr = 0x7F_0000

        def corrupt(records, run):
            run.memory.store(addr, run.memory.load(addr) ^ 1)

        div = self._diff_perturbed(monkeypatch, corrupt)
        assert div is not None and div.kind == "final_mem"
        assert f"[{addr:#x}]" in div.detail

    @pytest.mark.parametrize("config", DEFAULT_CONFIGS)
    def test_no_divergence_across_modes(self, config):
        fp = build_fuzz_program(11, target_insts=3000)
        assert diff_run(fp, config, 6000, config_name=config) is None

    def test_render_includes_replay_command(self):
        fp = build_fuzz_program(4, target_insts=2000)
        div = Divergence(kind="stream", seed=4, config="rab", index=17,
                         fields=("dest_value",), detail="boom")
        report = render_divergence(div, fp, 4000)
        assert "--seed-start 4" in report
        assert "--configs rab" in report
        assert "--invariants" not in report
        assert "program listing:" in report


class TestInvariantChecker:
    def _proc(self, seed=0):
        fp = build_fuzz_program(seed, target_insts=2000)
        return Processor(fp.program, build_named_config("rab_cc"),
                         memory=fp.memory())

    def test_clean_run_passes(self):
        proc = self._proc()
        checker = attach_invariant_checker(proc)
        proc.run(3000)
        assert checker.cycles_checked > 0

    def test_no_hook_means_no_step_shadow(self):
        proc = self._proc()
        assert "_step" not in proc.__dict__
        attach_invariant_checker(proc)
        assert "_step" in proc.__dict__

    def test_catches_counter_drift(self):
        proc = self._proc()
        checker = attach_invariant_checker(proc)
        proc.run(200)
        proc.rs_used += 1
        with pytest.raises(InvariantError, match="rs_used"):
            checker.check_now()

    def test_catches_store_queue_desync(self):
        from repro.backend import InFlightUop
        from repro.isa import Instruction, Opcode

        proc = self._proc()
        checker = attach_invariant_checker(proc)
        proc.run(200)
        stray = InFlightUop(10 ** 9, 0, Instruction(Opcode.ST, rs1=1, rs2=2))
        proc.store_queue.entries.append(stray)
        with pytest.raises(InvariantError, match="store queue"):
            checker.check_now()

    def test_catches_free_list_duplicate(self):
        proc = self._proc()
        checker = attach_invariant_checker(proc)
        proc.run(200)
        proc.rename.free_list.append(proc.rename.free_list[0])
        with pytest.raises(InvariantError, match="duplicate"):
            checker.check_now()

    def test_catches_inverted_interval(self):
        proc = self._proc()
        checker = attach_invariant_checker(proc)
        proc.run(200)
        proc.ra_policy.begin_interval("traditional", now=100)
        proc.ra_policy.end_interval(now=100, committed_total=0,
                                    pseudo_retired=0)
        proc.ra_policy.intervals[-1].exit_cycle = 40
        with pytest.raises(InvariantError, match="inverted"):
            checker.check_now()

    def test_every_step_is_checked_by_default(self):
        """With ``every=1`` each step is checked, the one that halts the
        core included, although its clock does not advance."""
        proc = self._proc()
        checker = attach_invariant_checker(proc)
        step = proc._step
        steps = []

        def counted():
            steps.append(proc.now)
            step()

        proc._step = counted
        proc.run(10_000)
        assert proc.halted
        assert checker.cycles_checked == len(steps)

    def test_every_n_skips_cycles(self):
        proc = self._proc()
        checker = attach_invariant_checker(proc, every=50)
        proc.run(1000)
        assert 0 < checker.cycles_checked < proc.now

    def test_refuses_core_on_shared_hierarchy(self):
        """Regression for the multi-core refactor: the checker's verdict
        is read as whole-run soundness, but on a shared hierarchy
        co-runners mutate LLC/MSHR state between the checked core's
        cycles — attaching must be an explicit, scoped decision."""
        from repro.multicore import CoreSpec, System
        system = System([CoreSpec("mcf"), CoreSpec("lbm")])
        with pytest.raises(ValueError, match="shared"):
            attach_invariant_checker(system.cores[0])
        # Explicit opt-in scopes the verdict to core-local structures.
        checker = attach_invariant_checker(system.cores[0],
                                           allow_shared=True)
        system.warm_up(2_000)
        system.run(500)
        assert checker.cycles_checked > 0


class TestHarness:
    def test_verify_seed_clean(self):
        outcome = verify_seed(0, insts=4000, configs=("baseline", "rab_cc"))
        assert outcome.ok
        assert outcome.divergences == []

    def test_verify_seed_runs_oracle_once(self, monkeypatch):
        """The oracle is config-independent: one run per seed serves
        every config's diff."""
        calls = []
        inner = Interpreter.run

        def counted(self, *args, **kwargs):
            calls.append(self)
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run", counted)
        outcome = verify_seed(3, insts=2000, configs=DEFAULT_CONFIGS)
        assert outcome.ok
        assert len(calls) == 1

    def test_minimize_shrinks_reproducer(self):
        """Against a synthetic failure predicate (any program containing
        an 'alias' block diverges), the greedy minimizer must shrink the
        reproducer to a single block and a single outer iteration."""
        seed = next(
            s for s in range(50)
            if sum(b.kind == "alias"
                   for b in build_fuzz_program(s, 4000).spec.blocks) == 1
            and len(build_fuzz_program(s, 4000).spec.blocks) > 2
        )
        fp = build_fuzz_program(seed, 4000)
        div = Divergence(kind="stream", seed=seed, config="rab")

        import repro.verify.harness as harness_mod

        real_diff_run = harness_mod.diff_run

        def fake_diff_run(candidate, config, max_insts, config_name="",
                          invariants=False, invariant_every=1):
            if any(b.kind == "alias" for b in candidate.spec.blocks):
                return Divergence(kind="stream", seed=seed, config=config)
            return None

        harness_mod.diff_run = fake_diff_run
        try:
            small, small_div = minimize(fp, "rab", 4000, div)
        finally:
            harness_mod.diff_run = real_diff_run
        assert small_div.kind == "stream"
        assert len(small.spec.blocks) == 1
        assert small.spec.blocks[0].kind == "alias"
        assert small.spec.outer_iterations == 1

    def test_minimize_keeps_campaign_invariant_settings(self, monkeypatch):
        """A campaign with the checker on every 16th step minimizes with
        the same settings, so a candidate fails the way the original
        did, at the campaign's cost."""
        import repro.verify.harness as harness_mod

        minimizer_calls = []

        def spy(candidate, config, max_insts, config_name="",
                invariants=False, invariant_every=1, oracle_run=None,
                runs=None):
            if runs is not None:   # the campaign's own diff: make it fail
                return Divergence(kind="invariant", seed=candidate.seed,
                                  config=config)
            minimizer_calls.append((invariants, invariant_every))
            return None

        monkeypatch.setattr(harness_mod, "diff_run", spy)
        outcome = verify_seed(0, insts=2000, configs=("rab",),
                              invariants=True, invariant_every=16)
        assert [d.kind for d in outcome.divergences] == ["invariant"]
        assert minimizer_calls
        assert set(minimizer_calls) == {(True, 16)}

    def test_report_replays_with_campaign_invariants(self, monkeypatch,
                                                     tmp_path):
        import repro.verify.harness as harness_mod
        from repro.verify.harness import VerifyOutcome

        fp = build_fuzz_program(0, 2000)

        def fake_verify_seed(seed, **kwargs):
            outcome = VerifyOutcome(seed=seed, insts=2000, configs=("rab",))
            outcome.divergences.append(
                Divergence(kind="invariant", seed=seed, config="rab",
                           detail="synthetic"))
            outcome.reproducers.append(fp)
            return outcome

        monkeypatch.setattr(harness_mod, "verify_seed", fake_verify_seed)
        summary = run_verify(seeds=1, insts=2000, configs=("rab",),
                             invariants=True, invariant_every=16,
                             report_dir=str(tmp_path))
        [path] = summary["reports"]
        replay = next(line for line in open(path).read().splitlines()
                      if line.startswith("replay:"))
        assert replay.endswith(
            "--configs rab --invariants --invariant-every 16")

    def test_run_verify_writes_reports_on_failure(self, tmp_path):
        import repro.verify.harness as harness_mod

        real_verify_seed = harness_mod.verify_seed
        fp = build_fuzz_program(0, 2000)

        def fake_verify_seed(seed, **kwargs):
            from repro.verify.harness import VerifyOutcome
            outcome = VerifyOutcome(seed=seed, insts=2000,
                                    configs=("rab",))
            outcome.divergences.append(
                Divergence(kind="stream", seed=seed, config="rab",
                           index=3, fields=("pc",), detail="synthetic"))
            outcome.reproducers.append(fp)
            return outcome

        harness_mod.verify_seed = fake_verify_seed
        try:
            summary = run_verify(seeds=2, insts=2000, configs=("rab",),
                                 report_dir=str(tmp_path))
        finally:
            harness_mod.verify_seed = real_verify_seed
        assert len(summary["failures"]) == 2
        assert len(summary["reports"]) == 2
        for path in summary["reports"]:
            text = open(path).read()
            assert "DIVERGENCE" in text
            assert "replay:" in text


def _count_runs(monkeypatch) -> list:
    """Record every ``Processor.run`` call (one per simulated trajectory)."""
    calls = []
    inner = Processor.run

    def counted(self, *args, **kwargs):
        calls.append(self)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(Processor, "run", counted)
    return calls


def _stream_calls(monkeypatch) -> list:
    """Record each ``processor_stream`` call of a campaign as
    (config, stream, run record), the way the benchmark reads them."""
    calls = []
    inner = differential.processor_stream

    def spy(fp, config, max_insts, *args, **kwargs):
        records, run = inner(fp, config, max_insts, *args, **kwargs)
        calls.append((config, records, run))
        return records, run

    monkeypatch.setattr(differential, "processor_stream", spy)
    return calls


def _raise_from(monkeypatch, method: str, cycle: int, error: type) -> None:
    """Make ``Processor.<method>`` raise ``error`` from ``cycle`` on."""
    inner = getattr(Processor, method)

    def raising(self, *args):
        if self.now >= cycle:
            raise error(f"injected in {method} at cycle {self.now}")
        return inner(self, *args)

    monkeypatch.setattr(Processor, method, raising)


class TestSharedRuns:
    """A seed's runahead configs share core runs until their entry
    decisions differ; each config's result equals its standalone run."""

    @pytest.mark.parametrize("seed, runahead_runs", [(0, 1), (3, 2), (5, 3)])
    def test_shared_runs_equal_standalone_runs(self, monkeypatch, seed,
                                               runahead_runs):
        # At 4k instructions the four runahead configs take one run on
        # seed 0, two on seed 3 (runahead detaches first) and three on
        # seed 5 (runahead, rab_cc with hybrid, and rab).
        runs = _count_runs(monkeypatch)
        shared = _stream_calls(monkeypatch)
        assert verify_seed(seed, insts=4000).ok
        assert len(runs) == 1 + runahead_runs
        assert [config for config, *_ in shared] == list(DEFAULT_CONFIGS)
        fp = build_fuzz_program(seed, target_insts=2000)
        for config, stream, run in shared:
            alone_stream, alone = processor_stream(fp, config, 4000)
            assert stream == alone_stream, config
            assert run.stats.to_dict() == alone.stats.to_dict(), config
            assert run.halted == alone.halted, config
            assert run.cycles == alone.cycles, config
            assert run.regs == alone.regs, config
            assert run.memory.snapshot() == alone.memory.snapshot(), config

    @pytest.mark.parametrize("invariants", [False, True])
    def test_one_stream_call_per_config_over_fewer_runs(self, monkeypatch,
                                                        invariants):
        runs = _count_runs(monkeypatch)
        calls = _stream_calls(monkeypatch)
        checkers = []
        attach = differential.attach_invariant_checker

        def attach_spy(proc, **kwargs):
            checkers.append(attach(proc, **kwargs))
            return checkers[-1]

        monkeypatch.setattr(differential, "attach_invariant_checker",
                            attach_spy)
        outcome = verify_seed(5, insts=4000, configs=DEFAULT_CONFIGS,
                              invariants=invariants)
        assert outcome.ok
        assert [config for config, *_ in calls] == list(DEFAULT_CONFIGS)
        assert [run.stats.config_name for *_, run in calls] == [
            build_named_config(c).runahead.mode.value
            for c in DEFAULT_CONFIGS]
        assert len({id(run.stats) for *_, run in calls}) == 5
        assert len(runs) == 4   # baseline, then 3 for the runahead four
        if invariants:
            assert len(checkers) == 4
            assert all(c.cycles_checked > 0 for c in checkers)
        else:
            assert checkers == []

    def test_invariant_checks_equal_standalone_runs(self, monkeypatch):
        """With ``--invariant-every N`` a config riding a shared run is
        checked in the states its standalone run checks, so an
        ``invariant`` divergence reproduces in the minimizer and the
        replay line, which run the config alone.  On seed 19 at 20k,
        rab_cc and hybrid ride rab's run, whose clock also wakes at rab's
        buffer start cycles: it takes two steps more than their
        standalone runs, and a schedule that counted steps checked other
        states from the 32nd check on."""
        checkers = []
        attach = differential.attach_invariant_checker
        check_now = InvariantChecker.check_now

        def attach_spy(proc, **kwargs):
            checkers.append(attach(proc, **kwargs))
            checkers[-1].states = []
            return checkers[-1]

        def recording_check(checker):
            proc = checker.proc
            checker.states.append(
                (proc.now, proc.committed, proc.mode, len(proc.rob),
                 proc.rob[0].seq if proc.rob else None))
            check_now(checker)

        monkeypatch.setattr(differential, "attach_invariant_checker",
                            attach_spy)
        monkeypatch.setattr(InvariantChecker, "check_now", recording_check)
        modes = [build_named_config(c).runahead.mode.value
                 for c in ("rab", "rab_cc", "hybrid")]
        assert verify_seed(19, insts=20_000, invariants=True,
                           invariant_every=16, do_minimize=False).ok
        # The run rab leads carries rab_cc and hybrid to its end.
        (carrier,) = [c for c in checkers if modes == [
            s and s.config_name for s in c.proc.member_stats()]]
        fp = build_fuzz_program(19)
        for config in ("rab_cc", "hybrid"):
            processor_stream(fp, config, 20_000, invariants=True,
                             invariant_every=16)
            alone = checkers[-1]
            assert alone.proc is not carrier.proc
            assert len(alone.states) > 100, config
            assert carrier.states == alone.states, config

    @pytest.mark.parametrize("seed, method, cycle, error, failing", [
        # No runahead entry on seed 0: all four ride one run to the end.
        (0, "_commit", 1_000, RuntimeError, DEFAULT_CONFIGS),
        # Seed 3: the buffer configs detach at the first entry decision,
        # where traditional runahead then enters, and run again clean.
        (3, "_enter_traditional", 0, RuntimeError, ("runahead",)),
        # ...and the three of them fail together on their own run.
        (3, "_enter_rab", 1_700, InvariantError, ("rab", "rab_cc", "hybrid")),
    ], ids=["all-attached", "detached-run-again", "second-run"])
    def test_failure_goes_to_the_configs_still_attached(
            self, monkeypatch, seed, method, cycle, error, failing):
        _raise_from(monkeypatch, method, cycle, error)
        kind = "invariant" if error is InvariantError else "exception"
        expected = {c: kind if c in failing else None
                    for c in DEFAULT_CONFIGS}
        fp = build_fuzz_program(seed, target_insts=2000)
        alone = {c: diff_run(fp, c, 4000, config_name=c)
                 for c in DEFAULT_CONFIGS}
        assert {c: d.kind if d else None for c, d in alone.items()} == expected
        outcome = verify_seed(seed, insts=4000, do_minimize=False)
        shared = {d.config: d.kind for d in outcome.divergences}
        assert {c: shared.get(c) for c in DEFAULT_CONFIGS} == expected
        for div in outcome.divergences:
            assert f"injected in {method}" in div.detail


class TestVerifyCli:
    def test_verify_clean_exit_zero(self, capsys, tmp_path):
        code = main(["verify", "--seeds", "2", "--insts", "2000",
                     "--configs", "baseline", "rab_cc",
                     "--report-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 divergence(s)" in out

    def test_verify_replay_flags_accepted(self, capsys, tmp_path):
        code = main(["verify", "--seeds", "1", "--seed-start", "5",
                     "--insts", "2000", "--invariants",
                     "--invariant-every", "10", "--configs", "rab",
                     "--report-dir", str(tmp_path)])
        assert code == 0
        assert "seed     5" in capsys.readouterr().out
