"""Fetch unit tests: groups, redirects, I-cache stalls, halting."""

from repro.config import default_system
from repro.frontend import BranchPredictor, FetchUnit
from repro.isa import ProgramBuilder
from repro.memory import MemoryHierarchy


def make_fetch(program, warm=True):
    cfg = default_system()
    hierarchy = MemoryHierarchy(cfg)
    predictor = BranchPredictor(cfg.branch)
    fetch = FetchUnit(program, predictor, hierarchy, cfg.core)
    if warm:
        for pc in range(len(program)):
            hierarchy.warm_ifetch(pc * 4)
    return fetch, predictor


def straight_line(n):
    b = ProgramBuilder()
    for _ in range(n):
        b.addi("R1", "R1", 1)
    b.halt()
    return b.build()


def test_fetches_up_to_width():
    fetch, _ = make_fetch(straight_line(20))
    group = fetch.fetch_cycle(now=0)
    assert len(group) == 4
    assert [u.pc for u in group] == [0, 1, 2, 3]


def test_budget_limits_group():
    fetch, _ = make_fetch(straight_line(20))
    assert len(fetch.fetch_cycle(now=0, budget=2)) == 2


def test_taken_branch_ends_group():
    b = ProgramBuilder()
    b.jmp("target")
    b.nop()
    b.label("target")
    b.nop()
    b.halt()
    fetch, _ = make_fetch(b.build())
    group = fetch.fetch_cycle(now=0)
    assert len(group) == 1
    assert group[0].predicted_next_pc == 2
    assert fetch.pc == 2


def test_halt_stops_fetch():
    fetch, _ = make_fetch(straight_line(1))
    group = fetch.fetch_cycle(now=0)
    assert group[-1].inst.is_halt
    assert fetch.halted
    assert fetch.fetch_cycle(now=1) == []


def test_redirect_resumes_fetch():
    fetch, _ = make_fetch(straight_line(10))
    fetch.halted = True
    fetch.redirect(5, at_cycle=10)
    assert fetch.fetch_cycle(now=9) == []   # still stalled
    group = fetch.fetch_cycle(now=10)
    assert group[0].pc == 5


def test_cold_icache_stalls_fetch():
    fetch, _ = make_fetch(straight_line(20), warm=False)
    assert fetch.fetch_cycle(now=0) == []
    assert fetch.stalled_until > 0
    ready = fetch.stalled_until
    assert len(fetch.fetch_cycle(now=ready)) > 0


def test_unknown_indirect_waits_for_redirect():
    b = ProgramBuilder()
    b.jr("R5")
    b.halt()
    fetch, _ = make_fetch(b.build())
    group = fetch.fetch_cycle(now=0)
    assert group[-1].predicted_next_pc == -1
    assert fetch.wait_for_redirect
    assert fetch.fetch_cycle(now=1) == []
    fetch.redirect(1, at_cycle=2)
    assert not fetch.wait_for_redirect


def test_wrong_path_fetch_is_real_instructions():
    # Predicted-taken branch leads fetch to decode the real instructions
    # at the target, whatever they are.
    b = ProgramBuilder()
    b.bne("R1", "R2", "far")
    b.addi("R3", "R3", 1)
    b.label("far")
    b.addi("R4", "R4", 1)
    b.halt()
    fetch, predictor = make_fetch(b.build())
    # Train the predictor taken.
    inst = b._instructions[0]
    for _ in range(8):
        predictor.update(0, inst, True, 2, mispredicted=False)
    group = fetch.fetch_cycle(now=0)
    assert group[0].predicted_next_pc == 2
    assert fetch.pc == 2


def test_snapshot_attached_to_branches():
    b = ProgramBuilder()
    b.bne("R1", "R2", 0)
    b.halt()
    fetch, _ = make_fetch(b.build())
    group = fetch.fetch_cycle(now=0)
    assert group[0].snapshot is not None


def test_line_ready_map_is_bounded_lru():
    # Walk fetch across three I-cache lines with a cap of two: the map
    # must stay bounded and evict the *oldest* line, not a recent one.
    fetch, _ = make_fetch(straight_line(16 * 4))
    fetch._line_ready_cap = 2
    now = 0
    while fetch.pc < 16 * 2 + 1:   # lines 0, 1 and 2 all touched
        fetch.fetch_cycle(now)
        now += 1
    assert len(fetch._line_ready) <= 2
    assert set(fetch._line_ready) == {1, 2}


def test_line_ready_retouch_refreshes_lru():
    # Re-touching a cached line moves it to the recent end, so the cap
    # evicts the least-recently used line instead.
    fetch, _ = make_fetch(straight_line(16 * 4))
    fetch._line_ready_cap = 2
    for pc in (0, 16, 0, 32):   # lines 0, 1, 0 again, then 2
        fetch.pc = pc
        fetch.fetch_cycle(now=0, budget=1)
    assert set(fetch._line_ready) == {0, 2}


def test_redirect_clears_line_ready():
    fetch, _ = make_fetch(straight_line(40))
    fetch.fetch_cycle(now=0)
    assert fetch._line_ready and fetch._last_line != -1
    fetch.redirect(0, at_cycle=5)
    assert not fetch._line_ready
    assert fetch._last_line == -1


def test_flush_clears_line_ready():
    fetch, _ = make_fetch(straight_line(40))
    fetch.fetch_cycle(now=0)
    fetch.flush()
    assert not fetch._line_ready
    assert fetch._last_line == -1


def test_redirect_reprobes_icache():
    # After a redirect the cached ready cycles are stale; the next fetch
    # must consult the cache hierarchy again rather than the cleared map.
    fetch, _ = make_fetch(straight_line(40))
    fetch.fetch_cycle(now=0)
    before = fetch.hierarchy.l1i.stats.accesses
    fetch.redirect(0, at_cycle=1)
    fetch.fetch_cycle(now=1)
    assert fetch.hierarchy.l1i.stats.accesses > before
