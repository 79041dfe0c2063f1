"""Metrics registry: the named, documented face of ``SimStats``.

``SimStats`` accumulated ad-hoc counters figure by figure; downstream
consumers (figures, benchmarks, dashboards) each hard-coded the subset
they read.  The registry gives every exported number a stable dotted
name, a one-line description and a unit, and renders any ``SimStats``
to JSON/CSV without the consumer knowing the dataclass layout.

Usage::

    from repro.obs import default_registry
    registry = default_registry()
    values = registry.collect(result.stats)       # {"core.ipc": ..., ...}
    registry.write_json(result.stats, "metrics.json")

``SimStats.metrics()`` is a shorthand for
``default_registry().collect(stats)``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, IO, Iterable


@dataclass(frozen=True)
class Metric:
    """One named, documented simulation metric."""

    name: str                      # dotted path, e.g. "core.ipc"
    description: str
    unit: str                      # "count" | "cycles" | "ratio" | ...
    extract: Callable[[Any], Any]  # SimStats -> value


class MetricsRegistry:
    """Ordered collection of :class:`Metric` with exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- registration ---------------------------------------------------------

    def register(self, name: str, description: str, unit: str,
                 extract: Callable[[Any], Any]) -> Metric:
        if name in self._metrics:
            raise ValueError(f"metric {name!r} already registered")
        metric = Metric(name, description, unit, extract)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, attr: str, description: str,
                unit: str = "count") -> Metric:
        """Register a metric that reads one ``SimStats`` attribute."""
        return self.register(name, description, unit,
                             lambda stats, _a=attr: getattr(stats, _a))

    # -- access ----------------------------------------------------------------

    def names(self) -> list[str]:
        return list(self._metrics)

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; see registry.describe()"
            ) from None

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def describe(self) -> str:
        """Human-readable metric catalogue."""
        width = max(len(n) for n in self._metrics) if self._metrics else 0
        lines = []
        for metric in self._metrics.values():
            lines.append(f"{metric.name:{width}s}  [{metric.unit}] "
                         f"{metric.description}")
        return "\n".join(lines)

    # -- collection / export ---------------------------------------------------

    def collect(self, stats, names: Iterable[str] | None = None
                ) -> dict[str, Any]:
        selected = self.names() if names is None else list(names)
        return {name: self.get(name).extract(stats) for name in selected}

    def write_json(self, stats, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": stats.workload,
            "config": stats.config_name,
            "metrics": self.collect(stats),
            "units": {m.name: m.unit for m in self._metrics.values()},
        }
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return out

    def write_csv(self, stats_list: Iterable[Any],
                  target: str | Path | IO[str]) -> None:
        """One row per ``SimStats`` (workload/config prefix the metrics)."""
        if hasattr(target, "write"):
            self._write_csv(stats_list, target)
            return
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            self._write_csv(stats_list, handle)

    def _write_csv(self, stats_list: Iterable[Any], handle: IO[str]) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["workload", "config"] + self.names())
        for stats in stats_list:
            values = self.collect(stats)
            writer.writerow([stats.workload, stats.config_name]
                            + [values[n] for n in self.names()])


def default_registry() -> MetricsRegistry:
    """The standard catalogue covering every ``SimStats`` counter the
    paper's figures consume, plus the derived ratios."""
    r = MetricsRegistry()
    c = r.counter
    # Core progress.
    c("core.cycles", "cycles", "simulated cycles", unit="cycles")
    c("core.committed_insts", "committed_insts",
      "architecturally committed instructions")
    c("core.fetched_uops", "fetched_uops", "uops fetched")
    c("core.dispatched_uops", "dispatched_uops", "uops renamed/dispatched")
    c("core.issued_uops", "issued_uops", "uops issued to execution")
    c("core.squashed_uops", "squashed_uops",
      "uops squashed (mispredict/flush)")
    r.register("core.ipc", "committed instructions per cycle", "ratio",
               lambda s: s.ipc)
    # Stall / mode accounting.
    c("stall.memstall_cycles", "memstall_cycles",
      "cycles the ROB head waited on DRAM", unit="cycles")
    r.register("stall.memstall_fraction",
               "fraction of cycles stalled on memory (Fig. 1)", "ratio",
               lambda s: s.memstall_fraction)
    c("stall.frontend_idle_cycles", "frontend_idle_cycles",
      "cycles the front-end fetched nothing (incl. clock-gated RAB mode)",
      unit="cycles")
    # Branches.
    c("branch.cond_branches", "cond_branches",
      "conditional branches resolved")
    c("branch.cond_mispredicts", "cond_mispredicts",
      "conditional branches mispredicted")
    r.register("branch.accuracy", "conditional-branch prediction accuracy",
               "ratio", lambda s: s.branch_accuracy)
    # Caches.
    c("cache.l1d_accesses", "l1d_accesses", "L1D lookups")
    c("cache.l1d_misses", "l1d_misses", "L1D misses")
    c("cache.llc_accesses", "llc_accesses", "LLC lookups")
    c("cache.llc_hits", "llc_hits", "LLC hits")
    c("cache.llc_demand_misses", "llc_demand_misses",
      "LLC misses on the demand path (MPKI numerator)")
    r.register("cache.mpki", "LLC demand misses per kilo-instruction",
               "ratio", lambda s: s.mpki)
    # DRAM.
    c("dram.reads", "dram_reads", "DRAM line reads")
    c("dram.writes", "dram_writes", "DRAM line writes (writebacks)")
    r.register("dram.requests", "total DRAM line transfers (Fig. 16)",
               "count", lambda s: s.dram_requests)
    c("dram.row_hits", "dram_row_hits", "row-buffer hits")
    c("dram.row_conflicts", "dram_row_conflicts", "row-buffer conflicts")
    c("dram.activates", "dram_activates", "row activates (energy)")
    # Prefetcher.
    c("prefetch.issued", "prefetches_issued", "stream prefetches issued")
    c("prefetch.useful", "prefetches_useful",
      "prefetched lines later hit by demand")
    # Runahead.
    c("runahead.intervals", "runahead_intervals",
      "runahead intervals entered (all modes)")
    c("runahead.rab_intervals", "rab_intervals", "buffer-mode intervals")
    c("runahead.traditional_intervals", "traditional_intervals",
      "traditional-mode intervals")
    c("runahead.cycles_traditional", "cycles_in_traditional",
      "cycles in traditional runahead", unit="cycles")
    c("runahead.cycles_rab", "cycles_in_rab",
      "cycles in runahead-buffer mode (Fig. 11)", unit="cycles")
    c("runahead.pseudo_retired", "runahead_pseudo_retired",
      "uops pseudo-retired during runahead")
    c("runahead.misses_generated", "runahead_misses_generated",
      "DRAM misses prefetched by runahead (MLP, Fig. 10)")
    r.register("runahead.misses_per_interval",
               "misses generated per interval (Fig. 10)", "ratio",
               lambda s: s.misses_per_interval)
    c("runahead.inv_ops", "inv_ops", "poisoned (INV) uops during runahead")
    c("runahead.chain_generations", "chain_generations",
      "Algorithm 1 chain extractions")
    c("runahead.chain_gen_cycles", "chain_gen_cycles",
      "cycles spent generating chains", unit="cycles")
    c("runahead.chain_cache_hits", "chain_cache_hits",
      "chain-cache hits (Fig. 12)")
    c("runahead.chain_cache_misses", "chain_cache_misses",
      "chain-cache misses (Fig. 12)")
    r.register("runahead.hybrid_rab_share",
               "fraction of runahead cycles in buffer mode (Fig. 14)",
               "ratio", lambda s: s.hybrid_rab_share)
    # Energy.
    r.register("energy.total_j", "total energy (core + DRAM)", "joules",
               lambda s: s.total_energy_j)
    r.register("energy.frontend_j", "front-end dynamic energy", "joules",
               lambda s: s.energy_report.get("frontend_dynamic", 0.0))
    return r
