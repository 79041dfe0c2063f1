"""Opt-in per-cycle invariant checking for the out-of-order core.

The checker attaches to a :class:`~repro.core.Processor` through
``Processor.set_cycle_hook`` — a debug shadow of ``_step`` that exists
only on instances with a hook installed, so the production hot loop is
untouched when checking is off.  By default, after every step of the
core it validates the structural invariants whose violation would
otherwise corrupt results *silently*.  A step is one stepped cycle or
one jump across an idle stretch (the core's state is constant over the
cycles jumped), so the checks see every state the core passes through
(a sparser schedule is by simulated cycle; see :class:`InvariantChecker`):

* **ROB order** — sequence numbers strictly increase head to tail, and
  no squashed uop lingers in the window;
* **Store-queue/ROB consistency** — the store queue holds exactly the
  in-flight stores of the ROB, in program order, within capacity;
* **Resource counters** — ``load_queue_used`` / ``rs_used`` equal what
  the ROB actually contains (a drifted counter deadlocks or over-issues
  long after the bug that moved it);
* **Rename sanity** — the free list has no duplicates and never overlaps
  the speculative RAT (nor, in normal mode, the commit RAT);
* **No runahead state after exit** — in normal mode there is no
  checkpoint, the runahead buffer is inactive, no ROB uop carries
  runahead/poison provenance, and no RAT- or commit-RAT-visible physical
  register has its poison bit set;
* **Interval sanity** — a runahead mode implies an open interval (the
  processor's ``_interval_entry``) whose entry cycle is not in the
  future, with the scheduled exit no earlier than the entry; and the
  last closed interval (``Processor.last_interval``) does not exit
  before it entered.
"""

from __future__ import annotations

from ..core import Processor


class InvariantError(AssertionError):
    """A per-cycle structural invariant of the core was violated."""


class InvariantChecker:
    """Validates core invariants after each step, or every ``every``
    simulated cycles.

    The schedule is by simulated cycle, not by step: a step that reaches
    the next multiple of ``every`` is checked, and so is the step that
    halts the core.  Two runs of one trajectory therefore check the same
    states although one may take extra steps (a shared run also wakes at
    its other members' buffer start cycles).  With ``every=1`` every
    step is checked.  ``cycles_checked`` counts the checks."""

    def __init__(self, processor: Processor, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.proc = processor
        self.every = every
        self.cycles_checked = 0
        self._due = 0

    # -- hook ----------------------------------------------------------------

    def on_cycle(self, proc: Processor) -> None:
        now = proc.now
        if now >= self._due or proc.halted:
            self._due = now - now % self.every + self.every
            self.check_now()

    def _fail(self, message: str) -> None:
        proc = self.proc
        raise InvariantError(
            f"invariant violated at cycle {proc.now} "
            f"(mode={proc.mode}, committed={proc.committed}): {message}"
        )

    # -- the checks ----------------------------------------------------------

    def check_now(self) -> None:
        self.cycles_checked += 1
        proc = self.proc

        # ROB order, flags, and derived resource counts.
        last_seq = -1
        loads = 0
        unissued = 0
        rob_stores = []
        for uop in proc.rob:
            if uop.squashed:
                self._fail(f"squashed uop {uop!r} still in the ROB")
            if uop.seq <= last_seq:
                self._fail(
                    f"ROB seq not strictly increasing: {uop.seq} after "
                    f"{last_seq}")
            last_seq = uop.seq
            inst = uop.inst
            if inst.is_load:
                loads += 1
            elif inst.is_store:
                rob_stores.append(uop)
            if not uop.issued:
                unissued += 1
        if proc.load_queue_used != loads:
            self._fail(
                f"load_queue_used={proc.load_queue_used} but the ROB holds "
                f"{loads} loads")
        if proc.rs_used != unissued:
            self._fail(
                f"rs_used={proc.rs_used} but the ROB holds {unissued} "
                f"un-issued uops")

        # Store-queue/ROB consistency.
        sq = proc.store_queue
        if len(sq.entries) > sq.capacity:
            self._fail(f"store queue over capacity: {len(sq.entries)} > "
                       f"{sq.capacity}")
        if sq.entries != rob_stores:
            self._fail(
                f"store queue out of sync with the ROB: sq holds "
                f"{[u.seq for u in sq.entries]}, ROB stores are "
                f"{[u.seq for u in rob_stores]}")

        # Rename sanity.
        rename = proc.rename
        free = rename.free_list
        free_set = set(free)
        if len(free_set) != len(free):
            self._fail("duplicate physical register on the free list")
        overlap = free_set.intersection(rename.rat)
        if overlap:
            self._fail(f"RAT maps free physical registers {sorted(overlap)}")

        mode = proc.mode
        in_ra = mode != "normal"
        if in_ra != proc._in_ra:
            self._fail(f"_in_ra={proc._in_ra} inconsistent with mode={mode}")

        if not in_ra:
            # No runahead-poisoned state may be visible after exit.
            if proc._checkpoint is not None:
                self._fail("checkpoint still held in normal mode")
            if proc.rab.active:
                self._fail("runahead buffer active in normal mode")
            overlap = free_set.intersection(rename.commit_rat)
            if overlap:
                self._fail(
                    f"commit RAT maps free physical registers "
                    f"{sorted(overlap)}")
            for uop in proc.rob:
                if uop.runahead or uop.from_rab:
                    self._fail(f"runahead-provenance uop {uop!r} in the ROB "
                               f"in normal mode")
                if uop.poisoned:
                    self._fail(f"poisoned uop {uop!r} in the ROB in normal "
                               f"mode")
            poison = proc.prf.poison
            for arch in range(len(rename.rat)):
                if poison[rename.rat[arch]]:
                    self._fail(f"RAT-visible poisoned register R{arch}")
                if poison[rename.commit_rat[arch]]:
                    self._fail(f"commit-RAT-visible poisoned register "
                               f"R{arch}")
        else:
            # Interval accounting sanity.
            entry = proc._interval_entry
            if entry < 0:
                self._fail("in a runahead mode with no open interval")
            if entry > proc.now:
                self._fail(f"interval entry_cycle={entry} is in the future")
            if proc._exit_cycle < entry:
                self._fail(
                    f"scheduled exit_cycle={proc._exit_cycle} precedes "
                    f"entry_cycle={entry}")
            if proc._checkpoint is None:
                self._fail("in a runahead mode without a checkpoint")

        if proc.last_interval is not None:
            entry, exit_cycle = proc.last_interval[:2]
            if exit_cycle < entry:
                self._fail(f"closed interval inverted: exit={exit_cycle} "
                           f"< entry={entry}")


def attach_invariant_checker(processor: Processor, every: int = 1,
                             allow_shared: bool = False) -> InvariantChecker:
    """Create a checker and install it as the processor's cycle hook.

    A core on a shared hierarchy is refused by default: the checker's
    invariants are core-local and hold per core, but its verdicts are
    conventionally read as whole-run soundness — and co-runners mutate
    the shared LLC/MSHR state underneath the checked core between its
    cycles.  Pass ``allow_shared=True`` to attach anyway, scoping the
    verdict to this core's structures only.
    """
    if processor.hierarchy.is_shared and not allow_shared:
        raise ValueError(
            "refusing to attach an invariant checker to a core on a "
            "shared hierarchy: its verdict covers core-local structures "
            "only (pass allow_shared=True to attach with that scope)")
    checker = InvariantChecker(processor, every=every)
    processor.set_cycle_hook(checker.on_cycle)
    return checker
