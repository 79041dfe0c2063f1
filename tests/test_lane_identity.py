"""Lane-identity gate: sampled runs must not care which fast-forward
lane warmed the gaps.

The block-jit lane and the reference interpreter lane
(``Processor.fast_forward(..., lane="interp")``) must hand the detailed
bursts exactly the same warmed state, so ``SimStats`` — every counter,
the estimates, the energy report — comes out byte-identical.  This is
the CI gate for the lane contract; the instruction-level differential
lives in ``test_warmup_parity.py``.
"""

from __future__ import annotations

import json
from functools import partialmethod

import pytest

from repro.config import SamplingConfig, build_named_config
from repro.core.processor import Processor
from repro.core.sim import simulate

# A plan with several fast-forward gaps inside the budget, so lane
# divergence anywhere (caches, predictor, memory, architectural state)
# would desynchronize a later burst and show up in the stats.
PLAN = SamplingConfig(tier="two-level", ramp_instructions=300,
                      window_instructions=900, stride_instructions=6_000)

CELLS = [
    ("mcf", "baseline"),
    ("mcf", "rab_cc"),
    ("milc", "baseline"),
    ("milc", "rab_cc"),
    ("libquantum", "baseline"),
    ("lbm", "rab_cc"),
]


def _run(workload, config_name):
    """The run's payload minus host timings, and its translation time."""
    result = simulate(workload, build_named_config(config_name),
                      max_instructions=30_000, warmup_instructions=8_000,
                      sampling=PLAN)
    # Wall-clock fields are the only legitimately lane-dependent part of
    # the run; everything else must match to the byte.
    sampling = {k: v for k, v in result.sampling.items()
                if "seconds" not in k}
    blob = json.dumps({"stats": result.stats.to_dict(),
                       "sampling": sampling},
                      sort_keys=True)
    return blob, result.sampling["translate_seconds"]


@pytest.mark.parametrize("workload,config_name", CELLS,
                         ids=[f"{w}-{c}" for w, c in CELLS])
def test_sampled_stats_identical_across_lanes(workload, config_name,
                                              monkeypatch):
    jit, jit_translate = _run(workload, config_name)
    monkeypatch.setattr(Processor, "fast_forward",
                        partialmethod(Processor.fast_forward, lane="interp"))
    interp, interp_translate = _run(workload, config_name)
    assert jit_translate > 0 and interp_translate == 0  # both lanes ran
    assert interp == jit
