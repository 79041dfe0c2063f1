"""The detailed core's timed loop stays lean (docs/simulator.md, "The
flattened hot path"): it raises no exception, and it builds no class
instance per uop.

The timed run of each runahead mode runs under ``sys.setprofile``, which
sees every Python-level call, and ``sys.settrace``, which sees every
exception raised in Python code.  A constructor is a call to a class's
``__init__``, ``__post_init__`` or ``__new__``, or to the generated
``__new__`` of a named tuple.  ``InFlightUop`` (one per uop by design)
and ``CacheLine`` (one per cache fill) are the two classes allowed more
than once per 100 dispatched uops.  A record built as a plain tuple, or
as a named tuple through ``tuple.__new__``, runs no Python-level
constructor and is not counted.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.config import RunaheadMode, make_config
from repro.core.processor import Processor
from repro.workloads import build_workload

ALLOWED = frozenset({"InFlightUop", "CacheLine"})
WARMUP = 1_500
INSTRUCTIONS = 2_000


def _constructed(frame) -> type | None:
    """The class whose instance the call in ``frame`` constructs, or
    ``None`` when the call is not a constructor."""
    code = frame.f_code
    name = code.co_name
    if name in ("__init__", "__post_init__"):
        return type(frame.f_locals[code.co_varnames[0]])
    if (name == "__new__"
            or frame.f_globals.get("__name__", "").startswith("namedtuple_")):
        return frame.f_locals[code.co_varnames[0]]
    return None


def _timed_run(mode: RunaheadMode):
    """The timed run of mcf with chain statistics on (the dataflow
    tracker rides it), watched: returns the run's stats, the constructor
    calls per class and the exceptions raised."""
    config = make_config(mode)
    config.runahead.collect_chain_stats = True
    built = build_workload("mcf")
    processor = Processor(built.program, config, memory=built.memory,
                          init_regs=built.init_regs)
    processor.warm_up(WARMUP)
    constructed: Counter = Counter()
    raised: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            cls = _constructed(frame)
            if cls is not None:
                constructed[cls.__qualname__] += 1

    def trace(frame, event, arg):
        frame.f_trace_lines = False
        if event == "exception":
            raised.append(f"{arg[0].__name__} in {frame.f_code.co_qualname}")
        return trace

    old_profile, old_trace = sys.getprofile(), sys.gettrace()
    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        stats = processor.run(INSTRUCTIONS)
    finally:
        sys.settrace(old_trace)
        sys.setprofile(old_profile)
    return stats, constructed, raised


@pytest.mark.parametrize("mode", list(RunaheadMode), ids=lambda m: m.value)
def test_timed_loop_builds_no_per_uop_objects(mode):
    stats, constructed, raised = _timed_run(mode)
    assert stats.committed_insts >= INSTRUCTIONS
    assert not raised, f"exceptions in the timed loop: {raised[:5]}"
    limit = stats.dispatched_uops / 100
    per_uop = {name: count for name, count in constructed.items()
               if name not in ALLOWED and count > limit}
    assert not per_uop, (
        f"more than one instance per 100 dispatched uops "
        f"({stats.dispatched_uops} dispatched): {per_uop}")
    # The guard sees constructors: the uop record is built per uop.
    assert constructed["InFlightUop"] >= stats.dispatched_uops
