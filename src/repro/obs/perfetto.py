"""Chrome trace-event / Perfetto export of an :class:`EventTrace`.

Produces the JSON object format consumed by ``ui.perfetto.dev`` and
``chrome://tracing``: one process ("repro-sim") with one thread track
per pipeline structure —

* **front-end** — fetch redirects, chain extractions, chain-cache probes;
* **runahead** — one slice per interval (``traditional`` / ``buffer``)
  plus entry instants;
* **prefetcher** — stream-prefetch issues, accuracy resolutions, FDP
  window closes;
* **dram c{channel}b{bank}** — one track per DRAM bank, one slice per
  line transfer from issue to data return;

plus an ``occupancy`` counter track fed by the
:class:`~repro.obs.sampler.OccupancySampler` (ROB/RS/LSQ/MSHR fill
levels render as stacked series).

Timestamps are simulated cycles, exported 1 cycle = 1 us (the trace
format's native unit); durations likewise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Optional

from .events import EventTrace, TraceEvent, validate_event
from .sampler import OccupancySample

PID = 1
TID_FRONTEND = 1
TID_RUNAHEAD = 2
TID_PREFETCH = 3
TID_SHARED = 4              # mc.* interference events (multicore export)
_TID_DRAM_BASE = 10
_DRAM_CHANNEL_STRIDE = 64   # banks per channel never approaches this

#: Process id of the shared-memory track group in a multicore export
#: (cores are pids 1..N).
_PID_SHARED = 1000

_THREAD_NAMES = {
    TID_FRONTEND: "front-end",
    TID_RUNAHEAD: "runahead",
    TID_PREFETCH: "prefetcher",
    TID_SHARED: "interference",
}


def _dram_tid(channel: int, bank: int) -> int:
    return _TID_DRAM_BASE + channel * _DRAM_CHANNEL_STRIDE + bank


def _meta(name: str, args: dict[str, Any], tid: int = 0) -> dict[str, Any]:
    return {"ph": "M", "pid": PID, "tid": tid, "name": name, "args": args}


def _instant(tid: int, name: str, ts: int,
             args: dict[str, Any]) -> dict[str, Any]:
    return {"ph": "i", "pid": PID, "tid": tid, "name": name, "ts": ts,
            "s": "t", "args": args}


def _slice(tid: int, name: str, ts: int, dur: int,
           args: dict[str, Any]) -> dict[str, Any]:
    return {"ph": "X", "pid": PID, "tid": tid, "name": name, "ts": ts,
            "dur": dur, "args": args}


def _convert(event: TraceEvent) -> Optional[dict[str, Any]]:
    kind, cycle, data = event.kind, event.cycle, dict(event.data)
    if kind == "fetch_redirect":
        return _instant(TID_FRONTEND, "redirect", cycle, data)
    if kind == "chain_extract":
        return _slice(TID_FRONTEND, "chain_extract", cycle,
                      data.pop("gen_cycles"), data)
    if kind == "chain_cache":
        name = "chain_cache_hit" if data["hit"] else "chain_cache_miss"
        return _instant(TID_FRONTEND, name, cycle, data)
    if kind == "runahead_enter":
        return _instant(TID_RUNAHEAD, f"enter:{data['mode']}", cycle, data)
    if kind == "runahead_exit":
        entry = data.pop("entry_cycle")
        return _slice(TID_RUNAHEAD, data.pop("mode"), entry,
                      cycle - entry, data)
    if kind == "dram":
        tid = _dram_tid(data["channel"], data["bank"])
        return _slice(tid, data.pop("kind"), cycle,
                      data.pop("done_cycle") - cycle, data)
    if kind == "prefetch_issue":
        return _instant(TID_PREFETCH, "issue", cycle, data)
    if kind == "prefetch_resolve":
        name = "useful" if data["useful"] else "unused"
        return _instant(TID_PREFETCH, name, cycle, data)
    if kind == "fdp_window":
        return _instant(TID_PREFETCH, f"fdp:{data['action']}", cycle, data)
    if kind == "ff.block_translate":
        # Translation costs host time, not simulated cycles, so it
        # renders as an instant at the gap's cycle position.
        return _instant(TID_FRONTEND, "ff_translate", cycle, data)
    if kind == "mc.cross_evict":
        name = ("pollution_evict" if data["kind"] == "prefetch"
                else "cross_evict")
        return _instant(TID_SHARED, name, cycle, data)
    if kind == "mc.mshr_reject":
        name = ("mshr_reject_contended" if data["contended"]
                else "mshr_reject")
        return _instant(TID_SHARED, name, cycle, data)
    return None  # unknown kinds are skipped, not fatal


def export_perfetto(
    trace: EventTrace,
    samples: Iterable[OccupancySample] = (),
    metadata: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Render the trace (+ occupancy samples) as a trace-event document.

    Every event is schema-checked first (``validate_event``): a payload
    that drifted from :data:`~repro.obs.events.EVENT_SCHEMAS` fails the
    export instead of producing a silently malformed trace.
    """
    events: list[dict[str, Any]] = [
        _meta("process_name", {"name": "repro-sim"}),
    ]
    used_tids: set[int] = set()
    body: list[dict[str, Any]] = []
    for event in trace:
        validate_event(event)
        converted = _convert(event)
        if converted is not None:
            body.append(converted)
            used_tids.add(converted["tid"])
    for tid in sorted(used_tids):
        name = _THREAD_NAMES.get(tid)
        if name is None:
            channel, bank = divmod(tid - _TID_DRAM_BASE,
                                   _DRAM_CHANNEL_STRIDE)
            name = f"dram c{channel}b{bank}"
        events.append(_meta("thread_name", {"name": name}, tid=tid))
    events.extend(body)
    for sample in samples:
        events.append({
            "ph": "C", "pid": PID, "tid": 0, "name": "occupancy",
            "ts": sample.cycle,
            "args": {"rob": sample.rob, "rs": sample.rs,
                     "load_queue": sample.load_queue,
                     "store_queue": sample.store_queue,
                     "mshr": sample.mshr},
        })
    doc: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs",
                      "clock": "1 trace us = 1 core cycle"},
    }
    if metadata:
        doc["otherData"].update(metadata)
    return doc


def write_perfetto(
    path: str | Path,
    trace: EventTrace,
    samples: Iterable[OccupancySample] = (),
    metadata: Optional[dict[str, Any]] = None,
) -> Path:
    """Write the trace-event JSON; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = export_perfetto(trace, samples, metadata)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return out


def export_perfetto_multicore(
    core_traces: list[EventTrace],
    shared_trace: EventTrace,
    path: str | Path,
    metadata: Optional[dict[str, Any]] = None,
) -> Path:
    """Multi-core trace-event export: one process group per core
    (``core0`` … ``coreN``, pids 1..N, each with the usual per-core
    thread tracks) plus a ``shared-memory`` process carrying the DRAM
    bank tracks and the ``mc.*`` interference instants.  Written to
    ``path``; returns it.
    """
    events: list[dict[str, Any]] = []
    body: list[dict[str, Any]] = []

    def add_trace(trace: EventTrace, pid: int, process: str) -> None:
        events.append({**_meta("process_name", {"name": process}),
                       "pid": pid})
        used_tids: set[int] = set()
        for event in trace:
            validate_event(event)
            converted = _convert(event)
            if converted is not None:
                converted["pid"] = pid
                body.append(converted)
                used_tids.add(converted["tid"])
        for tid in sorted(used_tids):
            name = _THREAD_NAMES.get(tid)
            if name is None:
                channel, bank = divmod(tid - _TID_DRAM_BASE,
                                       _DRAM_CHANNEL_STRIDE)
                name = f"dram c{channel}b{bank}"
            events.append({**_meta("thread_name", {"name": name}, tid=tid),
                           "pid": pid})

    for core, trace in enumerate(core_traces):
        add_trace(trace, core + 1, f"core{core}")
    add_trace(shared_trace, _PID_SHARED, "shared-memory")
    events.extend(body)

    doc: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs",
                      "clock": "1 trace us = 1 core cycle"},
    }
    if metadata:
        doc["otherData"].update(metadata)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return out
