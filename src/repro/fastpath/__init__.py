"""Two-tier simulation: functional fast-forward + sampled detailed windows.

``engine`` drives the alternation (detailed window -> architectural
handoff -> batched functional gap); ``blockjit`` is the compiled
fast-forward lane; ``validate`` states and checks the sampled tier's
accuracy contract and holds the identity checks (stats fingerprints,
canonical warm-state snapshot bytes) the lane gates compare.  See
docs/simulator.md, "Two-tier simulation".
"""

from .engine import run_two_tier
from .validate import (
    SAMPLING_TOLERANCES,
    check_sampling_error,
    runahead_share,
    scrub_host_keys,
    snapshot_bytes,
    snapshot_digest,
    stats_fingerprint,
)

__all__ = [
    "SAMPLING_TOLERANCES",
    "check_sampling_error",
    "run_two_tier",
    "runahead_share",
    "scrub_host_keys",
    "snapshot_bytes",
    "snapshot_digest",
    "stats_fingerprint",
]
