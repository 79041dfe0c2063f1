"""Experiment matrix: the shared (workload x configuration) result store.

Every figure and table of the paper is derived from simulations of the
same named configurations (``repro.config.CONFIG_BUILDERS``) over the
SPEC06-like suite.  :class:`ExperimentMatrix` runs each cell once, keeps
results in memory, and persists them as JSON so repeated benchmark runs
(or partial reruns) do not repeat simulations.

Cache invalidation follows two rules:

* ``MODEL_VERSION`` is a model salt — bump it whenever simulator
  behaviour changes so stale results are discarded wholesale.
* ``KEY_SCHEMA`` versions the cell-key format.  Keys embed every input
  that affects a cell's stats (workload, config, chain-stats variant,
  instruction budget, warmup budget, and — for sampled runs — the
  execution tier and its ramp/window/stride plan), so changing any
  budget addresses different cells rather than silently reusing stale
  ones.  Fully detailed cells keep the bare schema-2 key shape; only
  non-default tiers append a tier suffix.

Instruction budgets default to quick-but-meaningful runs for a
Python-hosted cycle-level simulator; override with the environment
variables ``REPRO_BENCH_INSTS`` / ``REPRO_BENCH_WARMUP`` for longer,
higher-fidelity sweeps.  Missing cells can be populated cores-wide with
:meth:`ExperimentMatrix.prefetch` (see :mod:`repro.analysis.parallel`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from ..config import CONFIG_BUILDERS, SamplingConfig, build_named_config
from . import parallel

MODEL_VERSION = 4
KEY_SCHEMA = 3

DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTS", "5000"))
DEFAULT_WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", "12000"))

# A cell address: (workload, config_name, chain_stats).
Cell = tuple[str, str, bool]


class Prefetched(NamedTuple):
    """What :meth:`ExperimentMatrix.prefetch` simulated: the missing
    cells, and the detailed runs that served them (cells whose configs
    differ only in their runahead entry policy share runs; see
    :func:`repro.core.simulate_cohort`)."""

    cells: int
    runs: int


def tier_suffix(tier: str, ramp: int, window: int, stride: int) -> str:
    """Key suffix for non-default execution tiers; empty for fully
    detailed cells so schema-2-shaped keys stay addressable."""
    if not tier or tier == "detailed":
        return ""
    return f"/{tier}.r{ramp}.w{window}.s{stride}"


def cell_key(workload: str, config_name: str, chain_stats: bool,
             instructions: int, warmup: int, suffix: str = "") -> str:
    """The KEY_SCHEMA=3 cell key: every input that affects a cell's
    stats."""
    variant = "+chains" if chain_stats else ""
    return (f"{workload}/{config_name}{variant}"
            f"/{instructions}/w{warmup}{suffix}")


class ExperimentMatrix:
    """Lazily-populated result matrix with a JSON disk cache."""

    def __init__(
        self,
        instructions: int = DEFAULT_INSTRUCTIONS,
        warmup: int = DEFAULT_WARMUP,
        cache_path: Optional[str | Path] = "results/experiments.json",
        sampling: Optional[SamplingConfig] = None,
    ) -> None:
        self.instructions = instructions
        self.warmup = warmup
        self.sampling = sampling
        if sampling is not None:
            sampling.validate()
        self.cache_path = Path(cache_path) if cache_path else None
        self._results: dict[str, dict[str, Any]] = {}
        self._dirty = False
        if self.cache_path is not None:
            self._results = dict(self._disk_cells())

    # -- keys ------------------------------------------------------------------

    @property
    def _tier_suffix(self) -> str:
        s = self.sampling
        if s is None or not s.is_sampled:
            return ""
        return tier_suffix(s.tier, s.ramp_instructions,
                           s.window_instructions, s.stride_instructions)

    def _key(self, workload: str, config_name: str, chain_stats: bool) -> str:
        return cell_key(workload, config_name, chain_stats,
                        self.instructions, self.warmup, self._tier_suffix)

    def _spec(self, workload: str, config_name: str,
              chain_stats: bool) -> parallel.CellSpec:
        """The simulation that fills one cell at this matrix's budgets
        and tier."""
        config = build_named_config(config_name)
        if chain_stats:
            config.runahead.collect_chain_stats = True
        s = self.sampling
        sampling = s if s is not None and s.is_sampled else None
        return parallel.CellSpec(workload, config_name, config,
                                 self.instructions, self.warmup, sampling)

    def _lookup(self, workload: str, config_name: str,
                chain_stats: bool) -> Optional[dict[str, Any]]:
        """Cached stats for a cell, falling back to the ``+chains``
        variant for plain requests (a strict superset with identical
        timing behaviour, so no need to simulate the cell twice)."""
        cached = self._results.get(self._key(workload, config_name,
                                             chain_stats))
        if cached is None and not chain_stats:
            cached = self._results.get(self._key(workload, config_name, True))
        return cached

    def is_cached(self, workload: str, config_name: str,
                  chain_stats: bool = False) -> bool:
        return self._lookup(workload, config_name, chain_stats) is not None

    # -- access ------------------------------------------------------------------

    def get(self, workload: str, config_name: str,
            chain_stats: bool = False) -> dict[str, Any]:
        """Stats dict for one cell, simulating on first use."""
        if config_name not in CONFIG_BUILDERS:
            raise ValueError(f"unknown config {config_name!r}")
        cached = self._lookup(workload, config_name, chain_stats)
        if cached is not None:
            return cached
        stats = parallel.simulate_cell(
            self._spec(workload, config_name, chain_stats))
        self.store(workload, config_name, chain_stats, stats)
        return stats

    def store(self, workload: str, config_name: str, chain_stats: bool,
              stats: dict[str, Any]) -> None:
        """Record a completed cell (e.g. merged back from a worker)."""
        self._results[self._key(workload, config_name, chain_stats)] = stats
        self._dirty = True

    def ipc(self, workload: str, config_name: str) -> float:
        return self.get(workload, config_name)["ipc"]

    # -- bulk helpers ---------------------------------------------------------------

    def missing_cells(self, cells: Sequence[Cell]) -> list[Cell]:
        """The subset of ``cells`` that would need a simulation.

        Deduplicates, drops cells already cached, and drops a plain cell
        whenever its ``+chains`` superset is also requested (the superset
        satisfies both).
        """
        wanted: dict[tuple[str, str], bool] = {}
        for workload, config_name, chain_stats in cells:
            pair = (workload, config_name)
            wanted[pair] = wanted.get(pair, False) or bool(chain_stats)
        missing = []
        for (workload, config_name), chain_stats in wanted.items():
            if not self.is_cached(workload, config_name, chain_stats):
                missing.append((workload, config_name, chain_stats))
        return missing

    def prefetch(self, cells: Sequence[Cell],
                 jobs: Optional[int] = None,
                 progress: Optional[Callable[[parallel.CellSpec, int, int],
                                             None]] = None,
                 ) -> Prefetched:
        """Simulate every missing cell, fanning out across processes.

        Results are merged back and flushed to disk in one atomic save;
        every cell is stored under its own key, also when it shared a run.
        Returns how many cells were simulated and in how many runs.
        Parallel runs produce byte-identical stats to serial ones —
        workers execute the exact same deterministic simulation, and the
        dicts round-trip through pickle unchanged.
        """
        missing = self.missing_cells(cells)
        if not missing:
            return Prefetched(0, 0)
        specs = [self._spec(*cell) for cell in missing]
        batch = parallel.simulate_cells(specs, jobs=jobs, progress=progress)
        for (workload, config_name, chain_stats), stats in zip(missing,
                                                               batch.stats):
            self.store(workload, config_name, chain_stats, stats)
        self.save()
        return Prefetched(len(missing), batch.runs)

    # -- persistence -------------------------------------------------------------------

    def _disk_cells(self) -> dict[str, dict[str, Any]]:
        """The on-disk result cells, or ``{}`` when the file is absent,
        unreadable, or addressed by a stale model version / key schema
        (stale cells are discarded wholesale — the current schema wins)."""
        try:
            payload = json.loads(self.cache_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        if (not isinstance(payload, dict)
                or payload.get("model_version") != MODEL_VERSION
                or payload.get("key_schema") != KEY_SCHEMA):
            return {}
        results = payload.get("results", {})
        return results if isinstance(results, dict) else {}

    def save(self) -> None:
        if self.cache_path is None or not self._dirty:
            return
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        # Concurrent-writer merge: another process sharing this
        # cache_path may have flushed cells since our load — writing the
        # whole file from our stale in-memory view would silently drop
        # them (last-writer-wins).  Re-read the on-disk payload under
        # the temp-file dance and fold its cells in; our own cells win
        # per key (equal keys address equal deterministic results, and
        # stale-schema payloads are dropped wholesale by _disk_cells).
        # A racing writer can still land between this read and the
        # replace below, but the exposure shrinks from the whole matrix
        # run to the serialization itself — and every writer merges, so
        # a lost cell costs one re-simulation, never a wrong result.
        merged = self._disk_cells()
        merged.update(self._results)
        self._results = merged
        payload = {
            "model_version": MODEL_VERSION,
            "key_schema": KEY_SCHEMA,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "results": self._results,
        }
        text = json.dumps(payload)
        # Write-then-rename so an interrupt mid-write can never leave a
        # truncated cache behind; the pid suffix keeps concurrent savers
        # (parallel suite runs sharing one path) off each other's temp.
        tmp = self.cache_path.with_name(
            f"{self.cache_path.name}.tmp.{os.getpid()}")
        try:
            tmp.write_text(text)
            os.replace(tmp, self.cache_path)
        finally:
            tmp.unlink(missing_ok=True)
        self._dirty = False

