"""Event tracer: attaches the observability layer to a live processor.

The tracer follows the zero-cost hook pattern established by
``Processor.set_cycle_hook``: every instrumentation point is an
*instance-attribute shadow* of a method that the simulator calls through
``self`` (or through a sub-component reference).  A processor without a
tracer attached carries none of these attributes, so the flattened hot
path never consults any observability code — and a traced run executes
the exact same model code in the exact same order, making it
cycle-identical to an untraced run (enforced by
``tests/test_obs.py``).

Instrumented seams (all off the per-cycle hot path):

=================  ========================================================
event kind         shadowed method
=================  ========================================================
fetch_redirect     ``FetchUnit.redirect``
runahead_enter     ``Processor._enter_traditional`` / ``_enter_rab``
runahead_exit      ``Processor._exit_runahead``
chain_extract      ``Processor._generate_chain``
chain_cache        ``ChainCache.lookup``
dram               ``MemoryController.request``
prefetch_issue     ``MemoryHierarchy._issue_prefetches``
prefetch_resolve   ``StreamPrefetcher.record_useful`` /
                   ``record_unused_eviction``
fdp_window         ``StreamPrefetcher._feedback``
ff.block_translate ``Processor._ff_translate_hook`` (plain attribute: the
                   jit fast-forward lane looks it up with ``getattr``
                   and passes it to the translator)
=================  ========================================================

Occupancy sampling additionally installs a cycle hook via
``Processor.set_cycle_hook`` (mutually exclusive with the invariant
checker of :mod:`repro.verify`, which uses the same hook).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .events import EVENT_KINDS, EventTrace
from .sampler import OccupancySampler


class Tracer:
    """Records typed events (and optional occupancy samples) from one
    :class:`~repro.core.Processor`."""

    def __init__(
        self,
        kinds: Optional[Iterable[str]] = None,
        capacity: int = 65536,
        sampler: Optional[OccupancySampler] = None,
    ) -> None:
        selected = set(EVENT_KINDS) if kinds is None else set(kinds)
        unknown = selected - set(EVENT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown event kind(s) {sorted(unknown)}; "
                f"choose from {list(EVENT_KINDS)}"
            )
        self.kinds = selected
        self.trace = EventTrace(capacity)
        self.sampler = sampler
        self.proc = None
        self._shadowed: list[tuple[object, str]] = []

    # -- lifecycle -------------------------------------------------------------

    def attach(self, proc) -> None:
        """Install the instance-method shadows on ``proc``.

        Attach *after* warm-up: functional warm-up replays redirects and
        cache fills that are not part of the timed run.
        """
        if self.proc is not None:
            raise RuntimeError("tracer is already attached")
        self.proc = proc
        kinds = self.kinds
        emit = self.trace.emit

        if "fetch_redirect" in kinds:
            fetch = proc.fetch
            orig_redirect = fetch.redirect

            def redirect(pc: int, at_cycle: int) -> None:
                orig_redirect(pc, at_cycle)
                emit("fetch_redirect", proc.now,
                     target_pc=pc, resume_cycle=at_cycle)

            self._shadow(fetch, "redirect", redirect)

        if "runahead_enter" in kinds:
            orig_trad = proc._enter_traditional
            orig_rab = proc._enter_rab

            def enter_traditional(head, now: int) -> None:
                orig_trad(head, now)
                emit("runahead_enter", now,
                     mode="traditional", blocking_pc=head.pc)

            def enter_rab(head, chain, gen_cycles: int, used_cc: bool,
                          now: int) -> None:
                orig_rab(head, chain, gen_cycles, used_cc, now)
                emit("runahead_enter", now,
                     mode="buffer", blocking_pc=head.pc)

            self._shadow(proc, "_enter_traditional", enter_traditional)
            self._shadow(proc, "_enter_rab", enter_rab)

        if "runahead_exit" in kinds:
            orig_exit = proc._exit_runahead

            def exit_runahead(now: int) -> None:
                mode = "buffer" if proc.mode == "rab" else "traditional"
                blocking_pc = proc._blocking_pc
                orig_exit(now)
                record = proc.ra_policy.last_interval
                assert record is not None
                emit("runahead_exit", now, mode=mode,
                     blocking_pc=blocking_pc,
                     entry_cycle=record.entry_cycle,
                     misses_generated=record.misses_generated,
                     pseudo_retired=record.uops_executed,
                     used_chain_cache=record.used_chain_cache)

            self._shadow(proc, "_exit_runahead", exit_runahead)

        if "chain_extract" in kinds:
            orig_generate = proc._generate_chain

            def generate(head):
                result = orig_generate(head)
                emit("chain_extract", proc.now, pc=head.pc,
                     length=len(result.chain), hit_cap=result.hit_cap,
                     found_pc=result.found_pc, usable=result.usable,
                     gen_cycles=result.cycles)
                return result

            self._shadow(proc, "_generate_chain", generate)

        if "chain_cache" in kinds and proc.chain_cache is not None:
            chain_cache = proc.chain_cache
            orig_lookup = chain_cache.lookup

            def lookup(pc: int):
                cached = orig_lookup(pc)
                emit("chain_cache", proc.now, pc=pc,
                     hit=cached is not None,
                     length=len(cached) if cached is not None else 0)
                return cached

            self._shadow(chain_cache, "lookup", lookup)

        if "dram" in kinds:
            controller = proc.hierarchy.controller
            dram = controller.dram
            orig_request = controller.request

            def request(line_addr: int, now: int, is_write: bool = False,
                        kind: str = "demand") -> int:
                # occupancy() drains exactly the completed entries the
                # request itself would drain, so timing is unchanged.
                queue = controller.occupancy(now)
                done = orig_request(line_addr, now, is_write=is_write,
                                    kind=kind)
                channel, bank, row = dram.map_address(line_addr)
                emit("dram", now, line=line_addr, kind=kind, write=is_write,
                     done_cycle=done, channel=channel, bank=bank, row=row,
                     queue=queue)
                return done

            self._shadow(controller, "request", request)

        prefetcher = proc.hierarchy.prefetcher
        if prefetcher is not None:
            if "prefetch_issue" in kinds:
                hierarchy = proc.hierarchy
                orig_issue = hierarchy._issue_prefetches

                def issue_prefetches(lines: list[int], now: int) -> None:
                    orig_issue(lines, now)
                    for line in lines:
                        emit("prefetch_issue", now, line=line)

                self._shadow(hierarchy, "_issue_prefetches",
                             issue_prefetches)

            if "prefetch_resolve" in kinds:
                orig_useful = prefetcher.record_useful
                orig_unused = prefetcher.record_unused_eviction

                def record_useful(late: bool = False) -> None:
                    orig_useful(late=late)
                    emit("prefetch_resolve", proc.now,
                         useful=True, late=late)

                def record_unused_eviction() -> None:
                    orig_unused()
                    emit("prefetch_resolve", proc.now,
                         useful=False, late=False)

                self._shadow(prefetcher, "record_useful", record_useful)
                self._shadow(prefetcher, "record_unused_eviction",
                             record_unused_eviction)

            if "fdp_window" in kinds:
                orig_feedback = prefetcher._feedback

                def feedback() -> None:
                    issued, useful, unused = prefetcher.interval_snapshot()
                    level_before = prefetcher._level
                    orig_feedback()
                    resolved = useful + unused
                    if prefetcher.interval_snapshot()[0] != 0:
                        action = "hold"   # too few resolved: window open
                    elif prefetcher._level > level_before:
                        action = "up"
                    elif prefetcher._level < level_before:
                        action = "down"
                    else:
                        action = "steady"
                    emit("fdp_window", proc.now,
                         accuracy=useful / resolved if resolved else 0.0,
                         issued=issued, resolved=resolved, action=action,
                         level=prefetcher._level)

                self._shadow(prefetcher, "_feedback", feedback)

        if "ff.block_translate" in kinds:
            # Not a method shadow: fast_forward fetches this attribute
            # with getattr(..., None) each gap and hands it to the jit
            # translator, which fires it once per newly compiled region.
            # Absent attribute == tracing off == zero cost.
            def block_translate(pc: int, length: int, loop: bool) -> None:
                emit("ff.block_translate", proc.now,
                     pc=pc, length=length, loop=loop)

            self._shadow(proc, "_ff_translate_hook", block_translate)

        if self.sampler is not None:
            proc.set_cycle_hook(self.sampler.on_cycle)
            self._shadowed.append((proc, "_step"))

    def detach(self) -> None:
        """Remove every shadow, restoring the untraced processor."""
        for obj, name in reversed(self._shadowed):
            delattr(obj, name)
        self._shadowed.clear()
        self.proc = None

    def _shadow(self, obj, name: str, wrapper) -> None:
        setattr(obj, name, wrapper)
        self._shadowed.append((obj, name))
