"""Typed simulation events and the ring-buffered event trace.

The observability layer records *semantic* events — mode transitions,
chain extractions, DRAM requests — rather than raw per-cycle state.
Every event is a :class:`TraceEvent` whose payload is validated against
the per-kind schema in :data:`EVENT_SCHEMAS`, so exporters (Perfetto,
JSON) and tests can rely on field names and types being stable.

The :class:`EventTrace` is a bounded ring buffer: when full, the oldest
events are dropped (and counted), so tracing a long run keeps the most
recent window instead of exhausting memory.  Per-kind counts cover the
whole run, including dropped events.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

# Per-kind payload schemas: field name -> allowed type(s).  These are the
# contract between the tracer (producer) and the exporters/tests
# (consumers); ``validate_event`` enforces them.
EVENT_SCHEMAS: dict[str, dict[str, tuple[type, ...]]] = {
    # Front-end.
    "fetch_redirect": {
        "target_pc": (int,),        # new fetch PC
        "resume_cycle": (int,),     # first cycle fetch may proceed
    },
    # Runahead interval lifecycle.
    "runahead_enter": {
        "mode": (str,),             # "traditional" | "buffer"
        "blocking_pc": (int,),      # PC of the load blocking the ROB
    },
    "runahead_exit": {
        "mode": (str,),
        "blocking_pc": (int,),
        "entry_cycle": (int,),
        "misses_generated": (int,),
        "pseudo_retired": (int,),
        "used_chain_cache": (bool,),
    },
    # Algorithm 1 chain extraction from the ROB.
    "chain_extract": {
        "pc": (int,),               # blocking PC the chain targets
        "length": (int,),           # uops in the generated chain
        "hit_cap": (bool,),         # dropped a uop at max_length
        "found_pc": (bool,),        # walk reached the blocking PC again
        "usable": (bool,),
        "gen_cycles": (int,),       # modelled generation latency
    },
    # Chain-cache consultation (§4.4).
    "chain_cache": {
        "pc": (int,),
        "hit": (bool,),
        "length": (int,),           # cached chain length (0 on miss)
    },
    # One DRAM line transfer, issue through data return.
    "dram": {
        "line": (int,),             # line address
        "kind": (str,),             # demand/store/runahead/prefetch/...
        "write": (bool,),
        "done_cycle": (int,),       # data-return cycle
        "channel": (int,),
        "bank": (int,),
        "row": (int,),
        "queue": (int,),            # memory-queue occupancy at issue
    },
    # Stream-prefetcher activity.
    "prefetch_issue": {
        "line": (int,),
    },
    "prefetch_resolve": {
        "useful": (bool,),          # demand-hit before eviction
        "late": (bool,),            # demand arrived while fill in flight
    },
    # Feedback-directed prefetching window close (HPCA'07 throttle).
    "fdp_window": {
        "accuracy": (float,),
        "issued": (int,),
        "resolved": (int,),
        "action": (str,),           # "up" | "down" | "steady" | "hold"
        "level": (int,),            # aggressiveness-ladder index after
    },
    # One fast-forward region translation (jit lane, once per region).
    "ff.block_translate": {
        "pc": (int,),               # region entry PC
        "length": (int,),           # instructions covered by the region
        "loop": (bool,),            # region closes a back edge
    },
}

EVENT_KINDS: tuple[str, ...] = tuple(sorted(EVENT_SCHEMAS))

@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded simulation event."""

    kind: str
    cycle: int
    data: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "cycle": self.cycle, **self.data}


def validate_event(event: TraceEvent) -> None:
    """Raise ``ValueError`` unless ``event`` matches its kind's schema."""
    schema = EVENT_SCHEMAS.get(event.kind)
    if schema is None:
        raise ValueError(f"unknown event kind {event.kind!r}")
    if not isinstance(event.cycle, int) or event.cycle < 0:
        raise ValueError(f"{event.kind}: bad cycle {event.cycle!r}")
    missing = schema.keys() - event.data.keys()
    extra = event.data.keys() - schema.keys()
    if missing or extra:
        raise ValueError(
            f"{event.kind}: payload fields mismatch "
            f"(missing={sorted(missing)}, extra={sorted(extra)})"
        )
    for field_name, types in schema.items():
        value = event.data[field_name]
        # bool is an int subclass; require exact-type matches so an int
        # never slips into a bool field or vice versa.
        if type(value) not in types:
            raise ValueError(
                f"{event.kind}.{field_name}: expected "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__} ({value!r})"
            )


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` with per-kind counts."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.counts: Counter[str] = Counter()
        self.total_emitted = 0

    # -- producer side --------------------------------------------------------

    # kind/cycle are positional-only: payload fields may legitimately be
    # named "kind" (e.g. the dram event's request kind).
    def emit(self, kind: str, cycle: int, /, **data: Any) -> None:
        self._events.append(TraceEvent(kind, cycle, data))
        self.counts[kind] += 1
        self.total_emitted += 1

    # -- consumer side --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self.total_emitted - len(self._events)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def validate(self) -> None:
        """Schema-check every buffered event (tests / exporters)."""
        for event in self._events:
            validate_event(event)

    def summary(self) -> str:
        lines = [f"{self.total_emitted} events "
                 f"({len(self)} buffered, {self.dropped} dropped)"]
        for kind in sorted(self.counts):
            lines.append(f"  {kind:18s} {self.counts[kind]}")
        return "\n".join(lines)
