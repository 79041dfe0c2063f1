"""Error bounds for the sampled (two-level) tier.

Sampling is only useful under a stated accuracy contract.  The contract
lives here, in one place shared by the test suite, docs and any future
CI gate: a two-level run at the default plan must reproduce the full
detailed run's headline metrics within these tolerances:

* ``ipc_rel`` — relative IPC error;
* ``mpki_abs`` — absolute LLC-MPKI error (absolute, because MPKI spans
  zero for cache-resident workloads where a relative bound is vacuous);
* ``runahead_share_abs`` — absolute error in the fraction of cycles
  spent in any runahead mode (traditional + buffer).

The bounds were calibrated over mcf, milc, libquantum and lbm x
{baseline, rab, rab_cc} at 200k and 300k instruction budgets, default
plan (ramp 500 / window 1500 / stride 40000, a 5% detailed share):
worst observed errors were IPC 8.3% relative, MPKI 4.2 absolute,
runahead share 0.087 absolute.  Each gate is asserted to bite by
tests/test_fastpath.py.  EXPERIMENTS.md states which work may rely on
sampling under this contract (speed benchmarks, soak runs, exploratory
sweeps) and which must stay fully detailed (all committed paper
figures).

The module also holds the equality checks the identity gates use:
:func:`stats_fingerprint` for run payloads and :func:`snapshot_bytes`
for warm-state snapshots.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Any, Mapping, Optional

#: Documented accuracy contract of tier="two-level" at the default plan.
SAMPLING_TOLERANCES: dict[str, float] = {
    "ipc_rel": 0.12,
    "mpki_abs": 6.0,
    "runahead_share_abs": 0.10,
}


def runahead_share(stats: Mapping[str, Any]) -> float:
    """Fraction of cycles spent in any runahead mode (traditional or
    buffer — ``runahead_cycle_fraction`` already combines both).

    Accepts either a ``SimStats.to_dict()`` payload or a two-tier
    ``estimates`` dict (pre-combined share).
    """
    if "runahead_share" in stats:
        return stats["runahead_share"]
    return stats.get("runahead_cycle_fraction", 0.0)


def scrub_host_keys(value: Any) -> Any:
    """``value`` minus every host-environment key, recursively: the
    ``*seconds*`` timings and the fast-forward lane tag.  Neither
    affects simulated state and both vary run to run, so cached
    sampling metadata and :func:`stats_fingerprint` drop them.
    Mappings become dicts and lists/tuples become lists, the shapes a
    JSON round trip gives back."""
    if isinstance(value, Mapping):
        return {k: scrub_host_keys(v) for k, v in value.items()
                if "seconds" not in k and k != "ff_lane"}
    if isinstance(value, (list, tuple)):
        return [scrub_host_keys(v) for v in value]
    return value


def stats_fingerprint(stats: Mapping[str, Any],
                      sampling: Optional[Mapping[str, Any]] = None) -> str:
    """Canonical JSON blob of a run's deterministic payload.

    Strips every host-environment key (:func:`scrub_host_keys`), then
    serializes with sorted keys — so two runs that simulated the same
    thing produce equal fingerprints regardless of wall-clock or lane.
    The lane-identity tests and the multi-core determinism gate compare
    these.
    """
    payload: dict[str, Any] = {"stats": scrub_host_keys(stats)}
    if sampling is not None:
        payload["sampling"] = scrub_host_keys(sampling)
    return json.dumps(payload, sort_keys=True)


# Fixed serialization order of the hierarchy snapshot dict.
_HIERARCHY_KEYS = (
    "l1i", "l1d", "llc", "llc_misses", "llc_accesses",
    "ifetch_llc_misses", "fills", "mshr_rejections", "controller",
    "prefetcher",
)


def snapshot_bytes(snap: dict) -> bytes:
    """Canonical serialization of a ``Processor.snapshot()``.

    Containers whose iteration order is semantic (cache sets in LRU
    order, stream tables, the MSHR heap) keep their order; containers
    whose order is an execution artifact (the memory word dict) are
    sorted.  Equal warm states therefore serialize to equal bytes
    whichever fast-forward lane built them — the lane-equivalence gate
    in tests/test_warmup_parity.py compares these.
    """
    canon = (
        snap["pc"], snap["regs"],
        tuple(sorted(snap["memory"].items())),
        snap["memory_fill"], snap["now"], snap["seq"], snap["committed"],
        snap["halted"], snap["ff_instructions"],
        tuple((key, snap["hierarchy"][key]) for key in _HIERARCHY_KEYS),
        snap["predictor"],
    )
    return pickle.dumps(canon, protocol=4)


def snapshot_digest(snap: dict) -> str:
    """SHA-256 of the canonical snapshot serialization."""
    return hashlib.sha256(snapshot_bytes(snap)).hexdigest()


def check_sampling_error(
    detailed: Mapping[str, Any],
    sampled: Mapping[str, Any],
    tolerances: Optional[Mapping[str, float]] = None,
) -> list[str]:
    """Compare a sampled run against the detailed reference.

    ``detailed`` is a ``SimStats.to_dict()`` payload; ``sampled`` is the
    two-tier engine's ``estimates`` dict (or another stats payload).
    Returns human-readable failures (empty when every metric is within
    tolerance).
    """
    tol = dict(SAMPLING_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    failures = []

    ref_ipc = detailed["ipc"]
    got_ipc = sampled["ipc"]
    if ref_ipc > 0:
        err = abs(got_ipc - ref_ipc) / ref_ipc
        if err > tol["ipc_rel"]:
            failures.append(
                f"ipc: sampled {got_ipc:.4f} vs detailed {ref_ipc:.4f} "
                f"({100 * err:.1f}% > {100 * tol['ipc_rel']:.0f}%)")

    err = abs(sampled["mpki"] - detailed["mpki"])
    if err > tol["mpki_abs"]:
        failures.append(
            f"mpki: sampled {sampled['mpki']:.2f} vs detailed "
            f"{detailed['mpki']:.2f} (|delta| {err:.2f} > "
            f"{tol['mpki_abs']:.2f})")

    ref_share = runahead_share(detailed)
    got_share = runahead_share(sampled)
    err = abs(got_share - ref_share)
    if err > tol["runahead_share_abs"]:
        failures.append(
            f"runahead share: sampled {got_share:.3f} vs detailed "
            f"{ref_share:.3f} (|delta| {err:.3f} > "
            f"{tol['runahead_share_abs']:.3f})")
    return failures
