"""The cycle-level out-of-order processor (Table 1 core).

Execution-driven: micro-ops compute real 64-bit values against a sparse
functional memory, so runahead modes generate real addresses.  One
:class:`Processor` models the 4-wide superscalar core with a 192-entry
ROB, register renaming with poison bits, a hybrid branch predictor with
wrong-path execution, the full cache/DRAM hierarchy, and three operating
modes:

* ``normal``   — ordinary out-of-order execution;
* ``runahead`` — traditional runahead [Mutlu+, HPCA'03]: checkpoint,
  poison the blocking load, keep fetching/executing, pseudo-retire;
* ``rab``      — the paper's runahead buffer: extract the blocking miss's
  dependence chain from the ROB (Algorithm 1), clock-gate the front-end,
  and loop the chain through rename until the miss returns.

The main loop is event-accelerated: a stretch of cycles in which provably
nothing can happen (a memory stall, including a full window blocked
behind an LLC miss) is crossed in one jump to the next wake-up cycle,
with stall accounting preserved — necessary for a Python-hosted
cycle-level model.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import replace
from typing import Optional, Sequence

from ..backend import ForwardResult, InFlightUop, PhysicalRegisterFile, \
    RenameState, StoreQueue
from ..config import RunaheadConfig, RunaheadMode, SystemConfig, cohort_key
from ..frontend import BranchPredictor, FetchedUop, FetchUnit, INST_BYTES
from ..isa import (
    MASK64,
    DataMemory,
    Interpreter,
    Program,
)
from ..isa.uop import (
    CLS_BRANCH,
    CLS_FADD,
    CLS_FDIV,
    CLS_FMUL,
    CLS_IALU,
    CLS_IDIV,
    CLS_IMUL,
    CLS_LOAD,
    CLS_NOP,
    CLS_STORE,
    NUM_UOP_CLASSES,
)
from ..memory import MemoryHierarchy, SharedHierarchyError
from ..runahead import (
    TRADITIONAL,
    ChainGenResult,
    ChainUop,
    EntryPolicy,
    RunaheadBuffer,
    RunaheadCache,
    RunaheadPolicyState,
    generate_chain,
    same_path,
)
from .dataflow import DataflowTracker
from .stats import ChainAnalysis, SimStats

_WATCHDOG_CYCLES = 1_000_000
# "No such cycle" for the clock's wake-up candidates.
_NEVER = 1 << 62


class Processor:
    """One simulated core plus its memory system.

    ``riders`` makes the core serve a cohort (:func:`repro.core.
    simulate_cohort`): the runahead configs of other configurations that
    differ from ``config`` only in their entry policy
    (:func:`~repro.config.cohort_key`).  Each member, ``config``'s own
    policy (the lead) first, keeps its own :class:`~repro.runahead.
    EntryPolicy`; they share this core's trajectory until their entry
    decisions differ, and :meth:`member_stats` reports each one's run.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[SystemConfig] = None,
        memory: Optional[DataMemory] = None,
        init_regs: Optional[list[int]] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        riders: Sequence[RunaheadConfig] = (),
    ) -> None:
        if config is None:
            from ..config import default_system
            config = default_system()
        config.validate()
        if riders:
            key = cohort_key(config)
            if key is None or any(
                    cohort_key(replace(config, runahead=ra)) != key
                    for ra in riders):
                raise ValueError(
                    "cohort members must have runahead on and differ from "
                    "the lead only in runahead.mode, .enhancements and "
                    ".collect_chain_stats")
        self.config = config
        self.program = program
        self.memory = memory if memory is not None else DataMemory()

        core = config.core
        self.width = core.width
        # A caller (repro.multicore) may pass a hierarchy wired to a
        # shared LLC/DRAM complex; standalone construction keeps the
        # legacy private hierarchy, bit-identical to the golden grid.
        self.hierarchy = (hierarchy if hierarchy is not None
                          else MemoryHierarchy(config))
        self.core_id = self.hierarchy.core_id
        self.predictor = BranchPredictor(config.branch)
        self.fetch = FetchUnit(program, self.predictor, self.hierarchy, core)

        self.prf = PhysicalRegisterFile(core.num_phys_regs)
        self.rename = RenameState(self.prf)
        if init_regs is not None:
            self.rename.reset_to_values(list(init_regs))

        self.rob: deque[InFlightUop] = deque()
        self.store_queue = StoreQueue(core.store_queue_size)
        self.load_queue_used = 0
        self.rs_used = 0
        self.decode_queue: deque[tuple[int, FetchedUop]] = deque()
        self.decode_queue_cap = 4 * core.width

        self.events: list[tuple[int, int, InFlightUop]] = []
        self._retries: list[tuple[int, int, InFlightUop]] = []
        self.ready: deque[InFlightUop] = deque()
        self.deferred_loads: list[InFlightUop] = []
        self.waiters: dict[int, list[InFlightUop]] = {}

        # Runahead machinery.
        ra = config.runahead
        self.mode = "normal"
        self._in_ra = False   # mirrors mode != "normal" for the hot path
        # The entry policies this trajectory serves, in construction
        # order (member_stats reports them so), and the live ones, the
        # lead first (a rider detaches where its decision differs).
        self._policies = [EntryPolicy(ra)] + [EntryPolicy(r) for r in riders]
        self.members = list(self._policies)
        # Algorithm 1's result at the current decision point, shared by
        # every member that generates or checks a chain there.
        self._chain_result: Optional[ChainGenResult] = None
        self.runahead_cache = RunaheadCache(
            ra.runahead_cache_bytes, ra.runahead_cache_assoc,
            ra.runahead_cache_line,
        )
        self.rab = RunaheadBuffer(ra.buffer_uops)
        self._checkpoint: Optional[list[int]] = None
        self._predictor_checkpoint = None
        self._blocking_pc = -1
        self._exit_cycle = -1
        self._rab_start_cycle = -1
        # (start cycle, member) for members whose chain reaches the
        # buffer after _rab_start_cycle, the earliest start of the
        # interval (see _dispatch_from_buffer).
        self._rab_pending: Sequence[tuple[int, EntryPolicy]] = ()
        self._interval_pseudo_retired = 0
        # Program-order pseudo-retirements only: RAB chain-loop uops
        # re-execute the same few instructions and do not advance the
        # architectural frontier, so Policy 2's furthest-point tracking
        # must not count them.
        self._interval_pseudo_retired_arch = 0
        self._committed_at_entry = 0
        # Runahead loads whose data is further away than this are INV.
        self._poison_latency = 3 * config.llc.latency

        # Hot-path caches: immutable config facts pulled into flat
        # attributes/lists so the cycle loop never walks
        # ``self.config.core.<field>`` attribute chains per uop.
        self._rob_size = core.rob_size
        self._rs_size = core.rs_size
        self._lq_size = core.load_queue_size
        # Issue-port budgets indexed by Instruction.port_class
        # (PORT_MEM, PORT_ALU, PORT_MULDIV, PORT_FP).
        self._port_limits = (
            core.mem_ports, core.int_alu_units,
            core.mul_div_units, core.fp_units,
        )
        self._lat_agu = core.latency_agu
        self._lat_branch = core.latency_branch
        self._l1d_latency = config.l1d.latency
        self._fetch_to_rename = core.fetch_to_rename_cycles
        self._redirect_penalty = core.branch_mispredict_redirect
        self._ra_mode_off = ra.mode is RunaheadMode.NONE
        self._min_interval = ra.min_interval_cycles
        self._ra_cache_enabled = ra.runahead_cache_enabled
        # Functional-unit latency per UopClass index (ALU classes only).
        lat = [0] * NUM_UOP_CLASSES
        lat[CLS_IALU] = core.latency_ialu
        lat[CLS_IMUL] = core.latency_imul
        lat[CLS_IDIV] = core.latency_idiv
        lat[CLS_FADD] = core.latency_fadd
        lat[CLS_FMUL] = core.latency_fmul
        lat[CLS_FDIV] = core.latency_fdiv
        self._lat_by_cls = lat

        # Hot energy-event counters, folded into plain ints (merged with
        # the ``ev`` dict in _finalize_stats).  Cumulative across run()
        # calls, exactly like the dict entries they replace.
        self._ev_prf_write = 0
        self._ev_rs_wakeup = 0
        self._ev_rob_read = 0
        self._ev_issue = 0
        self._ev_agu = 0
        self._ev_alu = 0
        self._ev_prf_read = 0
        self._ev_rename = 0
        self._ev_rab_read = 0
        self._ev_fetch = 0
        self._ev_decode = 0
        self._ev_runahead_cache = 0
        self._ev_fu = [0] * NUM_UOP_CLASSES  # per-class FU activations

        # Analytics.
        self.stats = SimStats(workload=program.name)
        self.tracker = (
            DataflowTracker()
            if any(m.config.collect_chain_stats for m in self._policies)
            else None
        )
        self._tracking = self.tracker is not None

        # Bookkeeping.
        self.now = 0
        self.seq = 0
        self.committed = 0
        self.dispatched_total = 0
        self.halted = False
        self._entry_declined_seq = -1
        # Event-driven clock (see _step): the cycle the idle stretch
        # ahead of the clock ends at, the cycle cap of the current run
        # that bounds it (see set_cycle_cap), and the last cycle a
        # dispatcher stopped on a full structure.
        self._wake = 0
        self._wake_cap = _NEVER
        self._dispatch_stall = -1
        self._last_progress = 0
        # Optional observer called as commit_hook(uop, cycle) for every
        # architecturally committed instruction (see repro.core.trace).
        # Richer observability — typed event traces, Perfetto export,
        # occupancy sampling — attaches via repro.obs.Tracer, which
        # shadows cold-path methods per instance so this hot loop never
        # checks for it.
        self.commit_hook = None
        # Cumulative host seconds fast_forward spent translating blocks.
        self.ff_translate_seconds = 0.0
        # Cumulative instructions executed by fast_forward since
        # construction (part of the warm-state snapshot).
        self.ff_instructions = 0

    @property
    def ra_policy(self) -> RunaheadPolicyState:
        """The lead member's policy state (the only one when the core
        simulates one configuration)."""
        return self.members[0].state

    @property
    def chain_cache(self):
        """The lead member's chain cache, or ``None``."""
        return self.members[0].chain_cache

    def set_cycle_hook(self, hook) -> None:
        """Install a debug observer called as ``hook(self)`` after every
        ``_step``, by shadowing ``_step`` with an instance attribute —
        processors without a hook keep calling the class method
        directly, so the hot loop pays nothing when this is off (see
        repro.verify.invariants).

        A step is one stepped cycle, or one jump across an idle stretch:
        ``self.now`` may advance by more than one between two calls, and
        the core's state is constant over the cycles jumped."""
        step = type(self)._step

        def stepped() -> None:
            step(self)
            hook(self)

        self._step = stepped

    # ------------------------------------------------------------------
    # Warm-up / functional fast-forward (the two-tier engine's fast tier)
    # ------------------------------------------------------------------

    def sync_architectural(self) -> int:
        """Collapse all speculative state down to the architectural point
        and return its PC.

        Exits any runahead interval (restoring the checkpoint), squashes
        the in-flight window, rebuilds rename from the committed register
        values, and steers fetch to the oldest uncommitted instruction.
        Uncommitted stores live only in the store queue, so discarding the
        window leaves memory holding exactly the committed stores — the
        state a functional replay from the returned PC must start from.
        """
        if self.mode != "normal":
            # run() has already closed the policy interval if it returned
            # mid-runahead; _exit_runahead's second end_interval no-ops.
            self._exit_runahead(self.now)
        if self.rob:
            # Oldest uncommitted instruction.  An in-flight mispredict
            # would be resolved only behind it, so rob[0].pc is on the
            # committed path by construction.
            arch_pc = self.rob[0].pc
        elif self.decode_queue:
            # ROB empty => every branch older than the decode queue has
            # resolved and redirected, so decoded uops are correct-path.
            arch_pc = self.decode_queue[0][1].pc
        else:
            arch_pc = self.fetch.pc
        values = self.rename.arch_values()
        self._flush_pipeline()
        self.rename.reset_to_values(values)
        self.fetch.redirect(arch_pc, self.now)
        # The idle stretch the last step computed no longer exists.
        self._wake = 0
        self._dispatch_stall = -1
        return arch_pc

    def fast_forward(self, instructions: int, lane: str = "jit") -> int:
        """Advance ``instructions`` functionally from the architectural
        point, warming caches and the branch predictor, then restart the
        detailed model from the resulting state.  Returns the number of
        instructions actually executed (stops at HALT).

        This is the fast tier of two-tier simulation (and the whole of
        pre-run warm-up).  Each basic block / loop superblock / branch
        region is translated once to specialized Python
        (:mod:`repro.fastpath.blockjit`) that drives the hierarchy/
        predictor warm paths directly.

        ``lane="interp"`` instead replays the committed path per-op
        through the reference interpreter (:meth:`Interpreter.run_warm`),
        feeding every instruction fetch, memory access and branch
        outcome through the callbacks below.  Both lanes leave
        bit-identical warm state, on a private or a shared LLC; the
        lane-identity tests compare them.
        """
        from ..fastpath.blockjit import WarmTargets, program_translate_seconds
        if lane not in ("jit", "interp"):
            raise ValueError(f"unknown fast-forward lane {lane!r}")
        if self.halted or instructions <= 0:
            return 0
        self.sync_architectural()
        interp = Interpreter(self.program, self.memory,
                             regs=self.rename.arch_values())
        interp.pc = self.fetch.pc
        hierarchy = self.hierarchy
        predictor = self.predictor
        prev_taken: dict[int, bool] = {}
        warm_ifetch = hierarchy.warm_ifetch
        # Straight-line runs re-warm the same I-line 16x over; skip the
        # call when the line is the L1I's MRU entry with a warm (<= 0)
        # ready cycle.  Bit-identical: MRU-resident implies LLC-resident
        # (inclusive LLC back-invalidates the L1s and clears the MRU key),
        # so the skipped call would only re-merge an already-warm fill.
        l1i = hierarchy.l1i
        pc_line_shift = (hierarchy.l1i.line_bytes.bit_length() - 1
                         - (INST_BYTES.bit_length() - 1))

        def on_ifetch(pc: int) -> None:
            line = pc >> pc_line_shift
            if line == l1i._mru_key and l1i._mru_line.ready_cycle <= 0:
                return
            warm_ifetch(pc * INST_BYTES)

        def on_branch(pc: int, inst, taken: bool, next_pc: int) -> None:
            if inst.is_conditional_branch:
                mispred = prev_taken.get(pc, False) != taken
                predictor.update(pc, inst, taken, next_pc, mispred)
                prev_taken[pc] = taken
            elif inst.is_branch:
                predictor.update(pc, inst, True, next_pc, False)

        if lane == "jit":
            warm = WarmTargets(hierarchy=hierarchy, predictor=predictor,
                               prev_taken=prev_taken,
                               pc_line_shift=pc_line_shift)
            t0 = program_translate_seconds(self.program)
            executed = interp.run_warm_jit(
                instructions, warm, on_ifetch=on_ifetch,
                on_mem=hierarchy.warm_load, on_branch=on_branch,
                translate_hook=getattr(self, "_ff_translate_hook", None))
            self.ff_translate_seconds += (
                program_translate_seconds(self.program) - t0)
        else:
            executed = interp.run_warm(instructions, on_ifetch=on_ifetch,
                                       on_mem=hierarchy.warm_load,
                                       on_branch=on_branch)
        self.rename.reset_to_values(interp.regs)
        self.fetch.redirect(interp.pc, self.now)
        self.halted = interp.halted
        self.ff_instructions += executed
        return executed

    def warm_up(self, instructions: int) -> int:
        """Fast-forward functionally before (or between) timed runs —
        kept as the historical name for the pre-run warm-up phase."""
        return self.fast_forward(instructions)

    # ------------------------------------------------------------------
    # Warm-state snapshots (compared by repro.fastpath.snapshot_bytes)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Architectural + warm microarchitectural state as plain data.

        Collapses to the architectural point first (``sync_architectural``
        — safe mid-episode: any runahead interval is exited exactly as a
        fast-forward call would exit it), then captures the state the
        two-tier engine carries across a fast-forward gap: registers, PC,
        memory words, the full cache/DRAM/prefetcher hierarchy, the
        branch predictor, and the stream-position bookkeeping.  Run
        statistics (``SimStats``, energy counters, runahead-policy
        interval history) are deliberately *not* part of the format.
        The lane-equivalence gate compares two lanes' snapshots through
        :func:`repro.fastpath.snapshot_bytes`.

        Refuses shared-hierarchy cores: the hierarchy snapshot assumes
        sole ownership of the LLC/DRAM/prefetcher state, and capturing a
        shared complex per-core would alias it into N copies.
        """
        if self.hierarchy.is_shared:
            raise SharedHierarchyError(
                "Processor.snapshot() requires a private memory "
                "hierarchy; core %d shares its LLC/DRAM complex"
                % self.core_id)
        pc = self.sync_architectural()
        return {
            "pc": pc,
            "regs": tuple(self.rename.arch_values()),
            "memory": dict(self.memory._words),
            "memory_fill": self.memory.default_fill,
            "now": self.now,
            "seq": self.seq,
            "committed": self.committed,
            "halted": self.halted,
            "ff_instructions": self.ff_instructions,
            "hierarchy": self.hierarchy.snapshot(),
            "predictor": self.predictor.snapshot_state(),
        }

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def set_cycle_cap(self, max_cycles: Optional[int]) -> None:
        """Bound idle jumps by a run's ``max_cycles``: a jump stops at the
        cap, where stepping the stretch cycle by cycle would have
        stopped.  Called once as a run starts; it also clips a wake-up
        an earlier run stored under a looser cap."""
        cap = _NEVER if max_cycles is None else max_cycles
        self._wake_cap = cap
        if self._wake > cap:
            self._wake = cap

    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until ``max_instructions`` commit (or HALT)."""
        target = self.committed + max_instructions
        self.set_cycle_cap(max_cycles)
        step = self._step   # the cycle hook's shadow, when one is set
        while not self.halted and self.committed < target:
            if max_cycles is not None and self.now >= max_cycles:
                break
            step()
            if self.now - self._last_progress > _WATCHDOG_CYCLES:
                raise RuntimeError(
                    f"no forward progress for {_WATCHDOG_CYCLES} cycles "
                    f"at cycle {self.now} (mode={self.mode})"
                )
        if self.members[0].state.current is not None:
            self._finish_interval()
        return self._finalize_stats()

    # -- one cycle ---------------------------------------------------------------

    def _step(self) -> None:
        """Simulate one cycle, or cross one provably idle stretch.

        A step that does work advances the clock exactly as stepping
        cycle by cycle would: by one, or straight to the next event when
        nothing at all is pending.  When the only thing the next cycles
        would do is re-try an entry stalled on a full structure (or wait
        on a store address), the step records the earliest wake-up cycle
        (:meth:`_wake_up`) in ``_wake`` and the next call jumps there in
        one go."""
        now = self.now
        nxt = self._wake
        if nxt > now:
            # The idle stretch the previous step found.  Stepping visits
            # each of its cycles, and fetch is blocked throughout (its
            # resume cycle is a wake-up), so a normal-mode core counts
            # every cycle as front-end idle, as stepping would.
            if (self.mode == "normal"
                    and len(self.decode_queue) < self.decode_queue_cap):
                self.stats.frontend_idle_cycles += nxt - now
        else:
            retries = self._retries
            while retries and retries[0][0] <= now:
                _at, _seq, uop = heapq.heappop(retries)
                if not uop.squashed and not uop.issued:
                    self.ready.append(uop)
            # Each stage call is guarded by the same cheap emptiness check
            # the stage itself would bail on, so idle stages cost one
            # comparison instead of a function call.
            events = self.events
            if events and events[0][0] <= now:
                self._writeback(now)
            rob = self.rob
            mode = self.mode
            if mode == "normal":
                if rob and rob[0].completed:
                    self._commit(now)
                    if self.halted:
                        return
                if not self._ra_mode_off:
                    head = self._entry_candidate()
                    if head is not None:
                        self._maybe_enter_runahead(head, now)
                        mode = self.mode   # may have entered a runahead mode
            else:
                self._pseudo_retire(now)
                if now >= self._exit_cycle:
                    self._exit_runahead(now)
                mode = self.mode
            if self.ready:
                self._issue(now)
            queue = self.decode_queue
            if mode == "rab":
                if queue:
                    if queue[0][0] <= now:
                        self._dispatch_from_decode(now)
                elif now >= self._rab_start_cycle:
                    self._dispatch_from_buffer(now)
            else:
                if queue and queue[0][0] <= now:
                    self._dispatch_from_decode(now)
                if len(queue) < self.decode_queue_cap:
                    fetch = self.fetch
                    if (fetch.halted or fetch.wait_for_redirect
                            or now < fetch.stalled_until):
                        # fetch_cycle would return an empty group: account
                        # the idle cycle without paying for the call.
                        if self.mode == "normal":
                            self.stats.frontend_idle_cycles += 1
                    else:
                        self._fetch_into_decode(now)

            # -- the clock --------------------------------------------------
            # Advance by one, or jump straight to the next event when
            # nothing at all is pending (retries are candidates too).  An
            # entry a dispatcher stopped on for a full structure, or a
            # load waiting on store-address disambiguation, keeps the
            # stepped clock at the next cycle although nothing can free
            # the structure or resolve the address before an event: then
            # the stretch up to the wake-up collapses into the next call.
            nxt = now + 1
            if not self.ready:
                mode = self.mode
                deferred = self.deferred_loads
                if not deferred:
                    best = events[0][0] if events else None
                    if retries:
                        t = retries[0][0]
                        if best is None or t < best:
                            best = t
                    queue = self.decode_queue
                    if queue:
                        t = queue[0][0]
                        if best is None or t < best:
                            best = t
                    fetch = self.fetch
                    if (mode != "rab" and not fetch.halted
                            and not fetch.wait_for_redirect
                            and len(queue) < self.decode_queue_cap):
                        t = fetch.stalled_until
                        if t < nxt:
                            t = nxt
                        if best is None or t < best:
                            best = t
                    if mode == "rab":
                        t = self._rab_start_cycle
                        if t < nxt:
                            t = nxt
                        if best is None or t < best:
                            best = t
                    if mode != "normal":
                        t = self._exit_cycle
                        if best is None or t < best:
                            best = t
                    if best is not None and best > nxt:
                        nxt = best
                if nxt == now + 1 and (deferred
                                       or self._dispatch_stall == now):
                    wake = self._wake_up(now)
                    if nxt < wake < _NEVER:
                        cap = self._wake_cap
                        self._wake = wake if wake < cap else cap

        # Stall/mode accounting covers jumped cycles too: by construction
        # nothing changes during the stretch.
        delta = nxt - now
        mode = self.mode
        if mode == "runahead":
            self.stats.cycles_in_traditional += delta
        elif mode == "rab":
            self.stats.cycles_in_rab += delta
            self.stats.frontend_idle_cycles += delta
        rob = self.rob
        if rob:
            head = rob[0]
            if (not head.completed and head.inst.is_load
                    and head.level == "DRAM"):
                self.stats.memstall_cycles += delta
        self.now = nxt

    def _wake_up(self, now: int) -> int:
        """The earliest cycle after ``now`` at which a step can do
        anything, given that the step at ``now`` left no uop ready to
        issue (``_NEVER`` when nothing is pending at all).  The wake-up
        cycles are: the next completion event or retry; fetch resuming
        when the decode queue has room; a decode-queue or buffer entry
        that is not stalled on a full structure; a completed ROB head;
        the runahead exit cycle and the cycle the buffer starts.  The
        runahead-entry check and the pseudo-retirement poison rule read
        the clock, so the cycle after a stall forms, or after a head load
        issues in runahead mode, is a wake-up too."""
        nxt = now + 1
        mode = self.mode
        rob = self.rob
        if rob:
            head = rob[0]
            if head.completed:
                return nxt   # commit or pseudo-retirement drains it
            if mode == "normal":
                if (not self._ra_mode_off
                        and self._entry_candidate() is not None):
                    return nxt
            elif self._poison_due(head, nxt):
                return nxt
        stalled = self._dispatch_stall == now
        events = self.events
        wake = events[0][0] if events else _NEVER
        retries = self._retries
        if retries and retries[0][0] < wake:
            wake = retries[0][0]
        queue = self.decode_queue
        if queue:
            t = queue[0][0]
            if t < wake and (t > now or not stalled):
                wake = t
        if mode == "normal" or mode == "runahead":
            fetch = self.fetch
            if (not fetch.halted and not fetch.wait_for_redirect
                    and len(queue) < self.decode_queue_cap):
                t = max(fetch.stalled_until, nxt)
                if t < wake:
                    wake = t
        if mode != "normal":
            if self._exit_cycle < wake:
                wake = self._exit_cycle
            if mode == "rab":
                t = self._rab_start_cycle
                if t > now:
                    if t < wake:
                        wake = t
                elif not queue and not stalled:
                    return nxt   # the buffer dispatches
                else:
                    # A member whose chain reaches the buffer later: its
                    # start cycle is a wake-up too.
                    for start, _member in self._rab_pending:
                        if now < start < wake:
                            wake = start
        return wake

    # ------------------------------------------------------------------
    # Writeback / branch resolution
    # ------------------------------------------------------------------

    def _writeback(self, now: int) -> None:
        """Complete every uop whose result is due by ``now``: write its
        destination register, wake its waiters, release loads deferred
        behind a store, and resolve branches."""
        events = self.events
        heappop = heapq.heappop
        prf = self.prf
        values = prf.value
        ready_bits = prf.ready
        poison = prf.poison
        waiters_of = self.waiters
        ready = self.ready
        tracking = self._tracking
        prf_writes = 0
        completed = 0
        while events and events[0][0] <= now:
            uop = heappop(events)[2]
            if uop.squashed or uop.completed:
                continue
            uop.completed = True
            completed += 1
            dest_phys = uop.dest_phys
            if dest_phys is not None:
                values[dest_phys] = uop.value
                ready_bits[dest_phys] = 1
                poison[dest_phys] = 1 if uop.poisoned else 0
                prf_writes += 1
                waiters = waiters_of.pop(dest_phys, None)
                if waiters:
                    for waiter in waiters:
                        if waiter.squashed:
                            continue
                        waiter.waiting -= 1
                        if waiter.waiting == 0:
                            ready.append(waiter)
            inst = uop.inst
            if inst.is_store and self.deferred_loads:
                # Address now known: deferred loads may proceed.
                ready.extend(u for u in self.deferred_loads
                             if not u.squashed)
                self.deferred_loads.clear()
            if tracking:
                self.tracker.note_exec(
                    uop.seq, uop.pc, uop.producer_seqs,
                    inst.is_load and uop.level == "DRAM",
                    uop.runahead,
                )
            if inst.is_branch:
                self._resolve_branch(uop, now)
        self._ev_prf_write += prf_writes
        self._ev_rs_wakeup += completed

    def _resolve_branch(self, uop: InFlightUop, now: int) -> None:
        inst = uop.inst
        if uop.poisoned:
            # Sources poisoned during runahead: trust the prediction.
            self.stats.inv_ops += 1
            return
        if inst.is_conditional_branch:
            self.stats.cond_branches += 1
        mispredicted = uop.actual_next_pc != uop.predicted_next_pc
        self.predictor.update(
            uop.pc, inst, uop.taken, uop.actual_next_pc, mispredicted,
            ghr=uop.snapshot.ghr if uop.snapshot is not None else None,
        )
        if not mispredicted:
            return
        if uop.predicted_next_pc == -1:
            # Indirect target unknown at fetch: not a squash, fetch simply
            # waited for the resolve.
            self.fetch.redirect(uop.actual_next_pc, now + 1)
            return
        if uop.snapshot is not None:
            self.predictor.repair(uop.pc, inst, uop.taken, uop.snapshot)
        self._squash_younger(uop.seq)
        self.decode_queue.clear()
        self.fetch.redirect(uop.actual_next_pc, now + self._redirect_penalty)

    def _squash_younger(self, boundary_seq: int) -> None:
        rob = self.rob
        rat = self.rename.rat
        free = self.rename.free_list
        squashed = 0
        while rob and rob[-1].seq > boundary_seq:
            uop = rob.pop()
            uop.squashed = True
            squashed += 1
            if uop.dest_phys is not None:
                rat[uop.dest_arch] = uop.old_phys
                free.append(uop.dest_phys)
            if not uop.issued:
                self.rs_used -= 1
            if uop.inst.is_load:
                self.load_queue_used -= 1
        self.store_queue.squash_younger(boundary_seq)
        if self.deferred_loads:
            self.deferred_loads = [
                u for u in self.deferred_loads if not u.squashed
            ]
        self.stats.squashed_uops += squashed

    # ------------------------------------------------------------------
    # Commit (normal) and pseudo-retire (runahead)
    # ------------------------------------------------------------------

    def _commit(self, now: int) -> None:
        rob = self.rob
        rename = self.rename
        commit_rat = rename.commit_rat
        free_list = rename.free_list
        for _ in range(self.width):
            if not rob:
                break
            uop = rob[0]
            if not uop.completed:
                break
            rob.popleft()
            if uop.dest_phys is not None:
                if uop.old_phys is not None:
                    free_list.append(uop.old_phys)
                commit_rat[uop.dest_arch] = uop.dest_phys
            inst = uop.inst
            if inst.is_store:
                assert uop.mem_addr is not None
                self.memory.store(uop.mem_addr, uop.store_data)
                self.hierarchy.store_commit(uop.mem_addr, now)
                self.store_queue.pop_oldest(uop)
            elif inst.is_load:
                self.load_queue_used -= 1
            self._ev_rob_read += 1
            self.committed += 1
            self._last_progress = now
            if self.commit_hook is not None:
                self.commit_hook(uop, now)
            if inst.is_halt:
                self.halted = True
                break

    def _pseudo_retire(self, now: int) -> None:
        """Runahead retirement: drain the ROB without architectural effect;
        stores feed the runahead cache."""
        rob = self.rob
        rename = self.rename
        for _ in range(self.width):
            if not rob:
                break
            uop = rob[0]
            if not uop.completed:
                if self._poison_due(uop, now):
                    self._poison_head(uop)
                    self.stats.inv_ops += 1
                else:
                    break
            rob.popleft()
            if uop.dest_phys is not None and uop.old_phys is not None:
                rename.free(uop.old_phys)
            inst = uop.inst
            if inst.is_store:
                if (not uop.poisoned and uop.addr_known
                        and self._ra_cache_enabled):
                    assert uop.mem_addr is not None
                    self.runahead_cache.write(uop.mem_addr, uop.store_data)
                    self._ev_runahead_cache += 1
                self.store_queue.pop_oldest(uop)
            elif inst.is_load:
                self.load_queue_used -= 1
            self.stats.runahead_pseudo_retired += 1
            self._interval_pseudo_retired += 1
            if not uop.from_rab:
                self._interval_pseudo_retired_arch += 1
            self._last_progress = now

    # ------------------------------------------------------------------
    # Runahead entry / exit
    # ------------------------------------------------------------------

    def _poison_due(self, uop: InFlightUop, now: int) -> bool:
        """Runahead semantics: an incomplete ROB-head load waiting on
        far-away data (a DRAM miss or a merge with an in-flight fill)
        becomes INV — pseudo-retirement poisons its destination and
        retires it; its prefetch is already in flight."""
        return (uop.issued and uop.inst.is_load
                and uop.done_cycle - now > self._poison_latency)

    def _entry_candidate(self) -> Optional[InFlightUop]:
        """The ROB head when the runahead-entry check has a decision to
        make for it — the window is stalled behind a DRAM miss that is
        neither merged into an in-flight fill (the line is already on
        its way, e.g. a prefetch: not worth an interval) nor already
        declined — else ``None``.  Side-effect free."""
        rob = self.rob
        if not rob:
            return None
        # Cheapest checks first; the order is free to differ from the
        # logical entry conditions.
        head = rob[0]
        if head.completed or not head.inst.is_load or head.level != "DRAM":
            return None
        if head.merged or head.seq == self._entry_declined_seq:
            return None
        # The window cannot grow further: the ROB is full, or a secondary
        # structure (RS/LSQ) has filled behind the blocking miss.
        if (len(rob) >= self._rob_size or self.rs_used >= self._rs_size
                or self.store_queue.full()
                or self.load_queue_used >= self._lq_size):
            return head
        return None

    def _maybe_enter_runahead(self, head: InFlightUop, now: int) -> None:
        """Enter a runahead mode for ``head`` (an :meth:`_entry_candidate`)
        or decline it once.

        Each member's entry policy decides, the lead's first.  A rider
        whose decision takes another path than the lead's detaches: from
        here on its run is not this trajectory.  Members that loop the
        same chain may differ only in when it reaches the buffer (a
        chain-cache hit skips Algorithm 1): the buffer starts at the
        earliest of their start cycles and :meth:`_dispatch_from_buffer`
        settles the others."""
        if head.done_cycle - now < self._min_interval:
            self._entry_declined_seq = head.seq
            return
        self._chain_result = None
        members = self.members
        lead = members[0].decide(self, head)
        decisions = [lead]
        if len(members) > 1:
            live = members[:1]
            for rider in members[1:]:
                decision = rider.decide(self, head)
                if same_path(decision, lead):
                    live.append(rider)
                    decisions.append(decision)
            self.members = members = live
        if lead is None:
            self._entry_declined_seq = head.seq
            return
        if lead is TRADITIONAL:
            self._enter_traditional(head, now)
        else:
            gen_cycles = min(d.gen_cycles for d in decisions)
            self._enter_rab(head, lead.chain, gen_cycles, now)
            if len(decisions) > 1:
                self._rab_pending = [
                    (now + d.gen_cycles, member)
                    for member, d in zip(members, decisions)
                    if d.gen_cycles > gen_cycles]
        for member, decision in zip(members, decisions):
            member.enter(decision, now)

    def _algorithm1(self, head: InFlightUop) -> ChainGenResult:
        """Algorithm 1 against the stalled ROB, run at most once per
        decision point: every member that generates a chain, or checks a
        chain-cache hit, at this point reads the same result."""
        result = self._chain_result
        if result is None:
            ra = self.config.runahead
            result = self._chain_result = generate_chain(
                self.rob, head, self.store_queue,
                max_length=ra.max_chain_length,
                reg_searches_per_cycle=ra.reg_searches_per_cycle,
                readout_width=ra.chain_readout_width,
            )
        return result

    def _generate_chain(self, head: InFlightUop) -> ChainGenResult:
        """A chain generation for an entry decision; the calling policy
        accounts its cycles and energy.  Kept as a separate method so the
        observability layer (:mod:`repro.obs`) can shadow it per instance
        to record chain-extraction events; a chain-cache hit's accuracy
        check reads :meth:`_algorithm1` and records none."""
        return self._algorithm1(head)

    def _take_checkpoint(self, head: InFlightUop, now: int) -> None:
        self._checkpoint = self.rename.arch_values()
        self._predictor_checkpoint = self.predictor.checkpoint_full()
        self._blocking_pc = head.pc
        self._exit_cycle = head.done_cycle
        self._interval_pseudo_retired = 0
        self._interval_pseudo_retired_arch = 0
        self._committed_at_entry = self.committed
        self.runahead_cache.clear()

    def _poison_head(self, head: InFlightUop) -> None:
        """Mark the blocking load INV: complete it with a poisoned dest so
        pseudo-retirement can drain past it."""
        head.poisoned = True
        head.completed = True
        if head.dest_phys is not None:
            self.prf.write(head.dest_phys, 0, poisoned=True)
            waiters = self.waiters.pop(head.dest_phys, None)
            if waiters:
                for waiter in waiters:
                    if waiter.squashed:
                        continue
                    waiter.waiting -= 1
                    if waiter.waiting == 0:
                        self.ready.append(waiter)

    def _enter_traditional(self, head: InFlightUop, now: int) -> None:
        self._take_checkpoint(head, now)
        self._poison_head(head)
        self.mode = "runahead"
        self._in_ra = True
        self.stats.traditional_intervals += 1
        if self.tracker is not None:
            self.tracker.begin_interval()

    def _enter_rab(self, head: InFlightUop, chain: tuple[ChainUop, ...],
                   gen_cycles: int, now: int) -> None:
        """Enter runahead-buffer mode (§4.3); ``chain`` reaches the buffer
        ``gen_cycles`` from ``now``.

        Like traditional runahead, the in-flight window keeps executing
        and pseudo-retires — only the *supply* of new uops changes: the
        front-end is clock-gated and, once the decode pipe drains, rename
        pulls decoded uops from the runahead buffer.  Chain live-ins thus
        rename to the youngest in-flight producers, so the looped chain
        continues from the furthest point the window reached."""
        self._take_checkpoint(head, now)
        self._poison_head(head)
        self.fetch.wait_for_redirect = True   # clock-gate the front-end
        self.rab.load_chain(chain)
        self._rab_start_cycle = now + gen_cycles
        self.mode = "rab"
        self._in_ra = True
        self.stats.rab_intervals += 1

    def _flush_pipeline(self) -> None:
        for uop in self.rob:
            uop.squashed = True
        self.stats.squashed_uops += len(self.rob)
        self.rob.clear()
        self.store_queue.clear()
        self.load_queue_used = 0
        self.rs_used = 0
        self.ready.clear()
        self.deferred_loads.clear()
        self._retries.clear()
        self.waiters.clear()
        self.decode_queue.clear()
        self.fetch.flush()

    def _finish_interval(self) -> None:
        for member in self.members:
            member.state.end_interval(
                self.now, self._committed_at_entry,
                self._interval_pseudo_retired,
                program_distance=self._interval_pseudo_retired_arch,
            )

    def _exit_runahead(self, now: int) -> None:
        was_rab = self.mode == "rab"
        if self.tracker is not None and not was_rab:
            self.tracker.end_interval()
        self._finish_interval()
        self._flush_pipeline()
        assert self._checkpoint is not None
        self.rename.reset_to_values(self._checkpoint)
        if self._predictor_checkpoint is not None:
            self.predictor.restore_full(self._predictor_checkpoint)
        self.rab.deactivate()
        self._rab_pending = ()
        self.mode = "normal"
        self._in_ra = False
        self.fetch.redirect(self._blocking_pc, now + 1)
        self._checkpoint = None
        self._exit_cycle = -1
        self._last_progress = now

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------

    def _issue(self, now: int) -> None:
        ready = self.ready
        if not ready:
            return
        budget = self.width
        # Per-port budgets, indexed by the statically decoded port class.
        ports = list(self._port_limits)
        skipped: Optional[list[InFlightUop]] = None
        issued = 0
        while ready and budget > 0:
            uop = ready.popleft()
            if uop.squashed:
                continue
            if uop.issued:
                if (uop.inst.is_store and uop.addr_known
                        and not uop.data_known and not uop.completed):
                    # STD: the store's data operand has arrived.
                    data, data_poison = self._read_operand(uop.src2_phys)
                    uop.store_data = data
                    uop.data_known = True
                    if data_poison and self._in_ra:
                        uop.poisoned = True
                    heapq.heappush(self.events, (now + 1, uop.seq, uop))
                continue
            port_cls = uop.inst.port_class
            if ports[port_cls] <= 0:
                if skipped is None:
                    skipped = [uop]
                else:
                    skipped.append(uop)
                continue
            ports[port_cls] -= 1
            budget -= 1
            if self._execute(uop, now):
                uop.issued = True
                issued += 1
        if issued:
            self.rs_used -= issued
            self._ev_issue += issued
        if skipped is not None:
            for uop in reversed(skipped):
                ready.appendleft(uop)

    def _read_operand(self, phys: Optional[int]) -> tuple[int, bool]:
        if phys is None:
            return 0, False
        prf = self.prf
        return prf.value[phys], bool(prf.poison[phys])

    def _execute(self, uop: InFlightUop, now: int) -> bool:
        """Functionally execute and schedule completion.  Returns False if
        the uop must be re-tried later (memory disambiguation wait)."""
        inst = uop.inst
        cls = inst.cls_idx
        prf = self.prf
        value = prf.value
        poison = prf.poison
        s1 = uop.src1_phys
        s2 = uop.src2_phys
        if s1 is not None:
            a = value[s1]
            a_poison = poison[s1]
            nsrc = 1
        else:
            a = 0
            a_poison = 0
            nsrc = 0
        if s2 is not None:
            b = value[s2]
            b_poison = poison[s2]
            nsrc += 1
        else:
            b = 0
            b_poison = 0
        in_runahead = self._in_ra
        poisoned = bool(a_poison or b_poison) and in_runahead

        if cls == CLS_LOAD:
            if poisoned:
                # INV load: no memory access (address is garbage).
                uop.poisoned = True
                uop.value = 0
                self.stats.inv_ops += 1
                done = now + self._lat_agu + 1
            else:
                done = self._execute_load(uop, a, now)
                if done < 0:
                    return False
            self._ev_agu += 1
        elif cls == CLS_STORE:
            self._ev_agu += 1
            if a_poison and in_runahead:
                # INV store: the address is garbage, drop it.
                uop.poisoned = True
                self.stats.inv_ops += 1
                done = now + self._lat_agu
            else:
                uop.mem_addr = (a + inst.imm) & MASK64
                uop.addr_known = True
                if self.deferred_loads:
                    # Disambiguation: blocked loads may re-try now.
                    self.ready.extend(
                        u for u in self.deferred_loads if not u.squashed
                    )
                    self.deferred_loads.clear()
                if s2 is None or prf.ready[s2]:
                    uop.store_data = b
                    uop.data_known = True
                    if b_poison and in_runahead:
                        uop.poisoned = True
                    done = now + self._lat_agu
                else:
                    # STA done; STD waits for the data operand.
                    uop.waiting = 1
                    self.waiters.setdefault(s2, []).append(uop)
                    uop.done_cycle = 0
                    return True
        elif cls == CLS_BRANCH:
            uop.poisoned = poisoned
            if inst.is_conditional_branch:
                uop.taken = taken = (False if poisoned
                                     else inst.taken_fn(inst, a, b))
            else:
                uop.taken = taken = True
            if inst.is_call:
                uop.value = uop.pc + 1
            if not poisoned:
                # Inline branch_target: indirect targets come from rs1,
                # taken branches from the static target, else fall through.
                if inst.is_indirect:
                    uop.actual_next_pc = a & MASK64
                elif taken:
                    uop.actual_next_pc = inst.target
                else:
                    uop.actual_next_pc = uop.pc + 1
            done = now + self._lat_branch
            self._ev_alu += 1
        elif cls >= CLS_NOP:       # NOP and the dispatch-only CLS_HALT
            done = now + 1
        else:
            uop.poisoned = poisoned
            uop.value = 0 if poisoned else inst.alu_fn(inst, a, b)
            done = now + self._lat_by_cls[cls]
            self._ev_fu[cls] += 1

        if nsrc:
            self._ev_prf_read += nsrc
        uop.done_cycle = done
        heapq.heappush(self.events, (done, uop.seq, uop))
        return True

    def _execute_load(self, uop: InFlightUop, base: int, now: int) -> int:
        """Returns the completion cycle, or -1 to defer (disambiguation)."""
        addr = (base + uop.inst.imm) & MASK64
        uop.mem_addr = addr
        uop.addr_known = True
        result, store = self.store_queue.search(addr >> 3, uop.seq)
        if result is ForwardResult.WAIT:
            self.deferred_loads.append(uop)
            return -1
        t_access = now + self._lat_agu
        in_runahead = self._in_ra
        if result is ForwardResult.FORWARD:
            assert store is not None
            uop.value = store.store_data
            uop.poisoned = store.poisoned and in_runahead
            return t_access + self._l1d_latency
        if in_runahead and self._ra_cache_enabled:
            cached = self.runahead_cache.read(addr)
            self._ev_runahead_cache += 1
            if cached is not None:
                uop.value = cached
                return t_access + self._l1d_latency
        kind = "runahead" if in_runahead else "demand"
        access = self.hierarchy.load(addr, t_access, kind=kind)
        if access.level == "RETRY":
            # All LLC MSHRs busy: re-issue when one frees.  This is the
            # backpressure that bounds runahead's miss generation.
            heapq.heappush(self._retries,
                           (access.done_cycle + 1, uop.seq, uop))
            return -1
        uop.level = access.level
        uop.merged = access.merged
        uop.value = self.memory.load(addr)
        if access.level == "DRAM" and not access.merged:
            uop.miss_issue_retired = self.committed
        if in_runahead:
            if access.done_cycle - t_access > self._poison_latency:
                # The data cannot return within a useful horizon (a fresh
                # miss, or a merge with an in-flight fill): mark INV and
                # move on — the prefetch effect is already in flight.
                uop.poisoned = True
                self.stats.inv_ops += 1
                if access.level == "DRAM" and not access.merged:
                    self.stats.runahead_misses_generated += 1
                    for member in self.members:
                        record = member.state.current
                        if record is not None:
                            record.misses_generated += 1
                    if self.mode == "rab":
                        self.stats.runahead_misses_rab += 1
                    else:
                        self.stats.runahead_misses_traditional += 1
                return t_access + self._l1d_latency + 1
        elif (self._tracking and access.level == "DRAM"
                and not access.merged):
            self.tracker.classify_demand_miss(uop.seq, uop.producer_seqs)
        return access.done_cycle

    # ------------------------------------------------------------------
    # Rename / dispatch
    # ------------------------------------------------------------------

    def _dispatch_from_decode(self, now: int) -> None:
        self._dispatch(now, False)

    def _dispatch_from_buffer(self, now: int) -> None:
        if self.rab.active:
            seq = self.seq
            self._dispatch(now, True)
            if self._rab_pending and self.seq != seq:
                self._settle_buffer_start(now)

    def _settle_buffer_start(self, now: int) -> None:
        """The buffer issued at ``now``.  A member whose chain is still on
        its way would not have, so it detaches; every other member
        dispatches alike from here on."""
        late = [member for start, member in self._rab_pending if start > now]
        self.members = [m for m in self.members if m not in late]
        self._rab_pending = ()

    def _dispatch(self, now: int, from_rab: bool) -> None:
        """Rename and dispatch up to ``width`` uops in order, from the
        decode queue or (runahead-buffer mode) from the buffer's chain
        loop.  Stops at the first uop a full ROB, RS, free list, load or
        store queue blocks, and records the cycle in ``_dispatch_stall``:
        the clock reads it to tell a stalled entry from a dispatchable
        one.

        Renaming is classic merged-file: RAT lookup per source, free-list
        allocation per destination, ``old_phys`` kept for rollback."""
        queue = self.decode_queue
        rab = self.rab
        rob = self.rob
        rob_size = self._rob_size
        rs_size = self._rs_size
        lq_size = self._lq_size
        rs_used = self.rs_used
        lq_used = self.load_queue_used
        store_queue = self.store_queue
        rename = self.rename
        free_list = rename.free_list
        rat = rename.rat
        prf = self.prf
        ready_bits = prf.ready
        poison = prf.poison
        producer_seq = prf.producer_seq
        waiters = self.waiters
        ready = self.ready
        tracking = self._tracking
        in_ra = self._in_ra
        seq = start_seq = self.seq
        fetched = None
        for _ in range(self.width):
            if from_rab:
                source = rab.peek()
            else:
                if not queue:
                    break
                entry = queue[0]
                if entry[0] > now:
                    break
                fetched = source = entry[1]
            inst = source.inst
            dest = inst.dest_reg
            is_load = inst.is_load
            is_store = inst.is_store
            if (len(rob) >= rob_size or rs_used >= rs_size
                    or (dest is not None and not free_list)
                    or (is_load and lq_used >= lq_size)
                    or (is_store and store_queue.full())):
                self._dispatch_stall = now
                break
            if from_rab:
                rab.take()
            else:
                queue.popleft()

            uop = InFlightUop(seq, source.pc, inst)
            if in_ra:
                uop.runahead = True
                uop.from_rab = from_rab
            src1 = inst.src1
            src2 = inst.src2
            waiting = 0
            if tracking:
                producers = []
            if src1 is not None:
                phys = rat[src1]
                uop.src1_phys = phys
                if tracking:
                    producers.append(producer_seq[phys])
                if not ready_bits[phys]:
                    waiting = 1
                    waiters.setdefault(phys, []).append(uop)
            if src2 is not None:
                phys = rat[src2]
                uop.src2_phys = phys
                if tracking:
                    producers.append(producer_seq[phys])
                # STA/STD split: a store's data operand does not gate
                # issue — the address computes as soon as rs1 is ready;
                # the data is picked up when it arrives (see _issue /
                # _execute).
                if not ready_bits[phys] and not is_store:
                    waiting += 1
                    waiters.setdefault(phys, []).append(uop)
            if tracking:
                uop.producer_seqs = tuple(producers)
            if dest is not None:
                new_phys = free_list.pop()
                uop.dest_arch = dest
                uop.dest_phys = new_phys
                uop.old_phys = rat[dest]
                rat[dest] = new_phys
                # The new register is pending: not ready, not poisoned,
                # produced by this uop.
                ready_bits[new_phys] = 0
                poison[new_phys] = 0
                producer_seq[new_phys] = seq
            if fetched is not None:
                uop.predicted_next_pc = fetched.predicted_next_pc
                uop.snapshot = fetched.snapshot
            rob.append(uop)
            if is_load:
                lq_used += 1
            elif is_store:
                store_queue.push(uop)
            if waiting:
                uop.waiting = waiting
            else:
                ready.append(uop)
            rs_used += 1
            seq += 1
        dispatched = seq - start_seq
        if dispatched:
            self.seq = seq
            self.rs_used = rs_used
            self.load_queue_used = lq_used
            # One counter stands in for every always-equal per-dispatch
            # count (rename, rs_dispatch, rob_write, dispatched_uops/
            # total); they are fanned back out in _finalize_stats.
            self._ev_rename += dispatched
            if from_rab:
                self._ev_rab_read += dispatched

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetch_into_decode(self, now: int) -> None:
        space = self.decode_queue_cap - len(self.decode_queue)
        if space <= 0:
            return
        width = self.width
        group = self.fetch.fetch_cycle(now, width if space > width else space)
        if not group:
            if self.mode == "normal":
                self.stats.frontend_idle_cycles += 1
            return
        ready_at = now + self._fetch_to_rename
        n = len(group)
        self._ev_fetch += n
        self._ev_decode += n
        append = self.decode_queue.append
        for fetched in group:
            append((ready_at, fetched))

    # ------------------------------------------------------------------
    # Final statistics
    # ------------------------------------------------------------------

    def _finalize_stats(self) -> SimStats:
        """Fill ``self.stats`` in for the lead member: the trajectory's
        fields plus those the lead's entry policy owns."""
        s = self.stats
        s.cycles = self.now
        s.committed_insts = self.committed
        s.config_name = s.config_name or self.members[0].mode.value
        # Branch predictor.
        s.cond_mispredicts = self.predictor.stats.cond_mispredicts
        if not s.cond_branches:
            s.cond_branches = self.predictor.stats.cond_predictions
        # Caches.
        h = self.hierarchy
        s.l1d_accesses = h.l1d.stats.accesses
        s.l1d_misses = h.l1d.stats.misses
        s.l1i_accesses = h.l1i.stats.accesses
        if h.is_shared:
            # Shared LLC/DRAM complex: the Cache/Dram stats objects mix
            # every connected core, so this core's SimStats read its
            # CoreAccount slice instead.  Row-buffer behaviour is a
            # property of the shared banks, not of one core — those
            # fields stay 0 here and are reported at the System level.
            a = h._acct
            s.llc_accesses = a.accesses
            s.llc_hits = a.hits
            s.llc_demand_misses = h.demand_llc_misses()
            s.llc_misses_by_kind = dict(h.llc_misses)
            s.dram_reads = a.dram_reads
            s.dram_writes = a.dram_writes
            s.dram_by_kind = dict(a.dram_by_kind)
            if h.prefetcher is not None:
                s.prefetches_issued = a.prefetches_issued
        else:
            s.llc_accesses = h.llc.stats.accesses
            s.llc_hits = h.llc.stats.hits
            s.llc_demand_misses = h.demand_llc_misses()
            s.llc_misses_by_kind = dict(h.llc_misses)
            # DRAM.
            d = h.controller.stats
            s.dram_reads = d.reads
            s.dram_writes = d.writes
            s.dram_row_hits = d.row_hits
            s.dram_row_conflicts = d.row_conflicts
            s.dram_activates = d.activates
            s.dram_by_kind = dict(d.by_kind)
            # Prefetcher.
            if h.prefetcher is not None:
                s.prefetches_issued = h.prefetcher.stats.issued
                s.prefetches_useful = h.prefetcher.stats.useful
        s.rab_iterations = self.rab.iterations_started
        # These stats are always-equal mirrors of the folded counters.
        s.dispatched_uops = self._ev_rename
        self.dispatched_total = self._ev_rename
        s.issued_uops = self._ev_issue
        s.fetched_uops = self._ev_fetch
        return self._member_fields(s, self.members[0])

    def attached(self) -> list[bool]:
        """Whether each configuration this core serves, in construction
        order (``config``'s, then ``riders``'), still rides its
        trajectory.  The lead always does; a rider stops at the decision
        where it detaches."""
        members = self.members
        return [member in members for member in self._policies]

    def member_stats(self) -> list[Optional[SimStats]]:
        """The last run's stats for each configuration this core serves,
        in construction order (``config``'s, then ``riders``'), or
        ``None`` for a member that detached.  The lead's entry is
        ``self.stats``; a rider's is a copy of it with the fields its own
        entry policy owns."""
        out: list[Optional[SimStats]] = []
        for member in self._policies:
            if member is self.members[0]:
                out.append(self.stats)
            elif member in self.members:
                s = replace(self.stats, config_name=member.mode.value,
                            llc_misses_by_kind=dict(
                                self.stats.llc_misses_by_kind),
                            dram_by_kind=dict(self.stats.dram_by_kind),
                            energy_report={}, chains=ChainAnalysis())
                out.append(self._member_fields(s, member))
            else:
                out.append(None)
        return out

    def _member_fields(self, s: SimStats, member: EntryPolicy) -> SimStats:
        """Set the fields ``member``'s entry policy owns on ``s``: its
        filter, chain-cache and chain-generation counters, its energy
        events, and ``chains`` if it collects chain statistics."""
        policy = member.state
        s.runahead_intervals = policy.interval_count()
        s.entries_blocked_enh = (
            policy.entries_blocked_short + policy.entries_blocked_overlap
        )
        s.entries_blocked_no_chain = policy.entries_blocked_no_chain
        cache = member.chain_cache
        s.chain_cache_hits = cache.hits if cache is not None else 0
        s.chain_cache_misses = cache.misses if cache is not None else 0
        s.chain_cache_checked_hits = policy.cc_hits_checked
        s.chain_cache_exact_hits = policy.cc_hits_exact
        s.chain_generations = member.chain_generations
        s.chain_gen_cycles = member.chain_gen_cycles
        if self.tracker is not None:
            s.chains = (self.tracker.analysis
                        if member.config.collect_chain_stats
                        else ChainAnalysis())
        # Energy events: the policy's cold-path events plus the core's
        # hot counters (folded into int attributes during simulation)
        # and the memory-side structures.  All are cumulative, so
        # repeated run() calls stay correct.
        events = dict(member.ev)
        fu = self._ev_fu
        dispatch_n = self._ev_rename
        for key, count in (
            ("prf_write", self._ev_prf_write),
            ("rs_wakeup", self._ev_rs_wakeup),
            ("rob_read", self._ev_rob_read),
            ("issue", self._ev_issue),
            ("agu", self._ev_agu),
            ("alu", self._ev_alu + fu[CLS_IALU]),
            ("mul", fu[CLS_IMUL]),
            ("div", fu[CLS_IDIV]),
            ("fpu", fu[CLS_FADD] + fu[CLS_FMUL] + fu[CLS_FDIV]),
            ("prf_read", self._ev_prf_read),
            ("rename", dispatch_n),
            ("rs_dispatch", dispatch_n),
            ("rob_write", dispatch_n),
            ("rab_read", self._ev_rab_read),
            ("fetch", self._ev_fetch),
            ("decode", self._ev_decode),
            ("runahead_cache", self._ev_runahead_cache),
        ):
            if count:
                events[key] = events.get(key, 0) + count
        events["l1d_access"] = s.l1d_accesses
        events["l1i_access"] = s.l1i_accesses
        h = self.hierarchy
        fill_hits = (h._acct.fill_hits if h.is_shared
                     else h.llc.stats.fill_hits)
        events["llc_access"] = s.llc_accesses + fill_hits
        events["dram_access"] = s.dram_reads + s.dram_writes
        events["dram_activate"] = s.dram_activates
        s.energy_events = events
        return s
