"""Structured observability: event tracing, Perfetto export, occupancy
sampling, and the metrics registry.

Everything here is opt-in and zero-cost when unused: a processor only
pays for tracing after :meth:`Tracer.attach` installs its
instance-method shadows (see :mod:`repro.obs.tracer`), and a traced run
is cycle-identical to an untraced one.

Quick start::

    from repro.obs import run_traced
    run = run_traced("mcf", "hybrid", max_instructions=5_000)
    print(run.tracer.trace.summary())
    run.write_perfetto("mcf_hybrid.perfetto.json")
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .events import EVENT_KINDS, EVENT_SCHEMAS, EventTrace, TraceEvent, \
    validate_event
from .metrics import Metric, MetricsRegistry, default_registry
from .perfetto import (export_perfetto, export_perfetto_multicore,
                       write_perfetto)
from .sampler import OccupancySample, OccupancySampler
from .tracer import Tracer

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMAS",
    "EventTrace",
    "Metric",
    "MetricsRegistry",
    "OccupancySample",
    "OccupancySampler",
    "TraceEvent",
    "TracedRun",
    "Tracer",
    "default_registry",
    "export_perfetto",
    "export_perfetto_multicore",
    "run_traced",
    "validate_event",
    "write_perfetto",
]


@dataclass
class TracedRun:
    """A simulation result bundled with its trace."""

    result: object          # repro.core.SimulationResult
    tracer: Tracer

    @property
    def stats(self):
        return self.result.stats

    @property
    def trace(self) -> EventTrace:
        return self.tracer.trace

    @property
    def samples(self) -> list[OccupancySample]:
        sampler = self.tracer.sampler
        return sampler.samples if sampler is not None else []

    def write_perfetto(self, path: str | Path) -> Path:
        return write_perfetto(
            path, self.trace, self.samples,
            metadata={"workload": self.stats.workload,
                      "config": self.stats.config_name},
        )

    def write_occupancy(self, path: str | Path) -> Path:
        sampler = self.tracer.sampler
        if sampler is None:
            raise ValueError("run was traced without an occupancy sampler")
        sampler.write_csv(path)
        return Path(path)

    def write_metrics(self, path: str | Path) -> Path:
        return default_registry().write_json(self.stats, path)


def run_traced(
    workload,
    config=None,
    max_instructions: int = 20_000,
    warmup_instructions: int = 12_000,
    kinds: Optional[Iterable[str]] = None,
    capacity: int = 65536,
    occupancy_stride: Optional[int] = None,
    config_name: str = "",
) -> TracedRun:
    """Simulate one workload with a tracer attached (after warm-up).

    ``config`` may be a :class:`~repro.config.SystemConfig` or a named
    configuration string; ``kinds`` selects the event kinds to record
    (default: all); ``occupancy_stride`` additionally samples structure
    occupancy every N cycles.
    """
    from ..config import build_named_config
    from ..core import simulate

    if isinstance(config, str):
        config_name = config_name or config
        config = build_named_config(config)
    sampler = (OccupancySampler(occupancy_stride)
               if occupancy_stride is not None else None)
    tracer = Tracer(kinds=kinds, capacity=capacity, sampler=sampler)
    result = simulate(
        workload, config,
        max_instructions=max_instructions,
        warmup_instructions=warmup_instructions,
        config_name=config_name,
        attach=tracer.attach,
    )
    return TracedRun(result=result, tracer=tracer)
