"""Per-layer host-time attribution, measured from outside the simulator.

A traced rep wraps each layer's boundary functions at class or module
attribute level -- the shadowing pattern ``repro.obs.Tracer`` uses per
instance -- from the benchmark's own files, so the simulator's source is
never edited to be measured.  Every wrapped call is a span.  A span stack
attributes *self* time (inclusive time minus the inclusive time of the
child spans it encloses), and spans are aggregated in memory per
(function, parent function) edge: call count, inclusive seconds, self
seconds.  Nothing is written until the rep ends.

A boundary that no longer exists in the source (a later change deleted or
renamed it) is reported in ``missing_boundaries`` and reads 0 calls; it
never stops the rep.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import sys
import time
from typing import Any, Callable, Optional

# layer -> boundary functions, as "module:Class.method" or "module:function"
# (the function part may be a glob over the module's own functions).
LAYERS: dict[str, tuple[str, ...]] = {
    "core": (
        "repro.core.processor:Processor.run",
    ),
    "backend": (
        "repro.core.processor:Processor._issue",
        "repro.core.processor:Processor._writeback",
        "repro.core.processor:Processor._commit",
        "repro.core.processor:Processor._dispatch_from_decode",
        "repro.backend.lsq:StoreQueue.search",
        "repro.backend.lsq:StoreQueue.push",
        "repro.backend.lsq:StoreQueue.pop_oldest",
    ),
    "frontend": (
        "repro.core.processor:Processor._fetch_into_decode",
        "repro.frontend.fetch:FetchUnit.fetch_cycle",
        "repro.frontend.fetch:FetchUnit.redirect",
        "repro.frontend.branch_predictor:BranchPredictor.predict",
        "repro.frontend.branch_predictor:BranchPredictor.update",
    ),
    "runahead": (
        "repro.core.processor:Processor._maybe_enter_runahead",
        "repro.core.processor:Processor._generate_chain",
        "repro.core.processor:Processor._enter_traditional",
        "repro.core.processor:Processor._enter_rab",
        "repro.core.processor:Processor._exit_runahead",
        "repro.core.processor:Processor._pseudo_retire",
        "repro.core.processor:Processor._dispatch_from_buffer",
        "repro.runahead.chain_cache:ChainCache.lookup",
        "repro.runahead.chain_cache:ChainCache.insert",
        "repro.runahead.runahead_cache:RunaheadCache.read",
        "repro.runahead.runahead_cache:RunaheadCache.write",
    ),
    "memory": (
        "repro.memory.hierarchy:MemoryHierarchy.load",
        "repro.memory.hierarchy:MemoryHierarchy.store_commit",
        "repro.memory.hierarchy:MemoryHierarchy.ifetch",
    ),
    "memory.shared": (
        "repro.memory.shared:SharedLLC.accept_at",
        "repro.memory.shared:SharedLLC.serve",
        "repro.memory.controller:MemoryController.request",
        "repro.memory.dram:Dram.access",
    ),
    "prefetch": (
        "repro.prefetch.stream:StreamPrefetcher.on_demand_access",
        "repro.memory.shared:SharedLLC.issue_prefetches",
    ),
    "energy": (
        "repro.energy.model:EnergyModel.compute",
    ),
    "fastpath": (
        "repro.core.processor:Processor.fast_forward",
        "repro.fastpath.engine:run_two_tier",
        "repro.fastpath.blockjit:JitProgram.entry_at",
    ),
    "isa": (
        "repro.isa.interpreter:Interpreter.run_warm",
        "repro.isa.interpreter:Interpreter.run_warm_jit",
    ),
    "verify": (
        "repro.verify.differential:oracle_stream",
        "repro.verify.differential:processor_stream",
        "repro.verify.differential:diff_streams",
        "repro.verify.fuzz:build_fuzz_program",
    ),
    "multicore": (
        "repro.multicore:System.warm_up",
        "repro.multicore:System.run",
    ),
    "analysis": (
        "repro.analysis.experiments:ExperimentMatrix.prefetch",
        "repro.analysis.experiments:ExperimentMatrix.save",
        "repro.analysis.parallel:simulate_cell",
        "repro.analysis.figures:fig[0-9]*",
        "repro.analysis.figures:table[0-9]*",
        "repro.analysis.figures:headline_summary",
        "repro.analysis.report:write_report",
    ),
}

# Boundaries that also feed the work counters (SpanTracer.work).
_DETAILED = ("repro.core.processor:Processor.run", "repro.multicore:System.run")
_FAST_FORWARD = "repro.core.processor:Processor.fast_forward"
_TWO_TIER = "repro.fastpath.engine:run_two_tier"
_LOAD = "repro.memory.hierarchy:MemoryHierarchy.load"
_TRANSLATE = "repro.fastpath.blockjit:JitProgram.entry_at"

_ABSENT = object()


def _committed(obj) -> int:
    """Committed instructions of a Processor, or of every core of a System."""
    cores = getattr(obj, "cores", None)
    if cores is not None:
        return sum(core.committed for core in cores)
    return obj.committed


class SpanTracer:
    """Installs boundary wrappers, aggregates spans, and puts the original
    functions back on :meth:`uninstall`."""

    def __init__(self, layers: Optional[dict[str, tuple[str, ...]]] = None
                 ) -> None:
        self.layers = LAYERS if layers is None else layers
        self.layer_of: dict[str, str] = {}
        self.missing: list[str] = []
        # (name, parent name or None) -> [calls, inclusive s, self s]
        self.edges: dict[tuple[str, Optional[str]], list] = {}
        # committed: instructions committed by the detailed core(s);
        # ff_insts: fast-forwarded (warm-up and sampling gaps);
        # ff_in_two_tier: the sampling-gap part of ff_insts.
        self.work = {"committed": 0, "ff_insts": 0, "ff_in_two_tier": 0,
                     "load_retries": 0}
        self._stack: list[list] = []   # [span name, child seconds]
        self._restore: list[tuple[Any, str, Any]] = []

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        for layer, specs in self.layers.items():
            for spec in specs:
                targets = self._resolve(spec)
                if not targets:
                    self.missing.append(spec)
                for name, owner, attr, fn in targets:
                    self.layer_of[name] = layer
                    wrapper = self._wrap(name, fn)
                    if isinstance(owner, type):
                        self._set(owner, attr, wrapper)
                    else:
                        self._rebind(fn, wrapper)

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._restore):
            if isinstance(obj, dict):
                obj[attr] = old
            elif old is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._restore.clear()

    def _set(self, obj, attr: str, value) -> None:
        if isinstance(obj, dict):
            self._restore.append((obj, attr, obj[attr]))
            obj[attr] = value
        else:
            self._restore.append((obj, attr, vars(obj).get(attr, _ABSENT)))
            setattr(obj, attr, value)

    def _resolve(self, spec: str) -> list[tuple[str, Any, str, Callable]]:
        """(span name, owner, attribute, function) for each function the
        spec names; empty when the module, class or function is gone."""
        module_name, _, path = spec.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return []
        if "." in path:
            cls_name, attr = path.split(".", 1)
            cls = getattr(module, cls_name, None)
            fn = getattr(cls, attr, None) if isinstance(cls, type) else None
            if not callable(fn):
                return []
            return [(spec, cls, attr, fn)]
        return [(f"{module_name}:{attr}", module, attr, fn)
                for attr, fn in sorted(vars(module).items())
                if fnmatch.fnmatchcase(attr, path) and callable(fn)
                and getattr(fn, "__module__", None) == module_name]

    def _rebind(self, fn, wrapper) -> None:
        """Point every reference a loaded ``repro`` module holds to ``fn``
        -- a module attribute, or a value (or tuple entry) of a
        module-level dict such as the CLI's figure table -- at
        ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is fn:
                            self._set(value, key, wrapper)
                        elif isinstance(entry, tuple) and any(
                                e is fn for e in entry):
                            self._set(value, key, tuple(
                                wrapper if e is fn else e for e in entry))

    # -- the span wrapper --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        edges = self.edges
        perf = time.perf_counter
        pre, post = self._probe(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            token = pre(args) if pre is not None else None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((name, parent))
                if edge is None:
                    edge = edges[(name, parent)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            if post is not None:
                post(args, result, token)
            return result

        return span

    def _probe(self, name: str) -> tuple[Optional[Callable], Optional[Callable]]:
        """(before, after) hooks for the few boundaries that feed a work
        counter; (None, None) for every other boundary."""
        work = self.work
        stack = self._stack
        if name in _DETAILED:
            def after_detailed(args, result, before):
                work["committed"] += _committed(args[0]) - before
            return (lambda args: _committed(args[0])), after_detailed
        if name == _FAST_FORWARD:
            def after_fast_forward(args, result, _token):
                work["ff_insts"] += result
                if any(frame[0] == _TWO_TIER for frame in stack):
                    work["ff_in_two_tier"] += result
            return None, after_fast_forward
        if name == _LOAD:
            def after_load(args, result, _token):
                if getattr(result, "level", None) == "RETRY":
                    work["load_retries"] += 1
            return None, after_load
        return None, None

    # -- results -----------------------------------------------------------------

    def inclusive(self, name: str) -> float:
        return sum(edge[1] for (n, _p), edge in self.edges.items()
                   if n == name)

    def summary(self, wall_s: float) -> dict[str, Any]:
        """Per-layer self time, share and calls per kinst, plus the span
        edges -- the content of ``spans.json``.

        The kinst base is committed instructions plus the instructions a
        two-tier run fast-forwarded between its detailed windows.
        """
        work = self.work
        kinst = (work["committed"] + work["ff_in_two_tier"]) / 1e3
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in self.layers}
        spans = []
        for (name, parent), (calls, incl, self_s) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][2]):
            layer = self.layer_of[name]
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += calls
            spans.append({"name": name, "layer": layer, "parent": parent,
                          "calls": calls, "incl_s": incl, "self_s": self_s})
        for entry in layers.values():
            entry["self_share"] = entry["self_s"] / wall_s if wall_s else 0.0
            entry["calls_per_kinst"] = entry["calls"] / kinst if kinst else 0.0
        attributed = sum(entry["self_s"] for entry in layers.values())
        detailed_s = sum(self.inclusive(name) for name in _DETAILED)
        ff_s = self.inclusive(_FAST_FORWARD)
        return {
            "wall_s": wall_s,
            "kinst": kinst,
            "work": dict(work),
            "attributed_s": attributed,
            "unattributed_s": wall_s - attributed,
            "detailed_kips": (work["committed"] / 1e3 / detailed_s
                              if detailed_s else 0.0),
            "ff_kips": work["ff_insts"] / 1e3 / ff_s if ff_s else 0.0,
            "translate_s": self.inclusive(_TRANSLATE),
            "layers": layers,
            "missing_boundaries": list(self.missing),
            "spans": spans,
        }
