"""Ablation: chain cache size and chain-generation search bandwidth.

The paper argues the chain cache must stay *small* so stale chains age
out (§4.4), and models 2 destination-register CAM searches per cycle
(§5).  These sweeps quantify both choices.
"""

import pytest

from repro.analysis import Table
from repro.analysis.sweeps import chain_cache_sweep, search_bandwidth_sweep

BENCHES = ("mcf", "milc", "soplex")


def _gmean_speedups(sweep, values):
    points = sweep(values, benches=BENCHES, instructions=3000, warmup=12_000)
    return {point.value: point.speedup_pct for point in points}


@pytest.fixture(scope="module")
def cache_sweep():
    return _gmean_speedups(chain_cache_sweep, (1, 2, 4, 8))


def test_chain_cache_size_sweep(cache_sweep, publish):
    table = Table("Ablation: chain cache entries (gmean % IPC vs baseline)",
                  ["entries", "speedup_pct"])
    for n, v in cache_sweep.items():
        table.add(n, v)
    publish(table, "ablation_chain_cache.txt")

    # The tiny cache already captures the benefit (stable blocking PCs);
    # growing it further changes little.
    assert all(v > 0 for v in cache_sweep.values())
    assert abs(cache_sweep[8] - cache_sweep[2]) < max(
        10.0, 0.5 * abs(cache_sweep[2]))


@pytest.fixture(scope="module")
def search_sweep():
    return _gmean_speedups(search_bandwidth_sweep, (1, 2, 4))


def test_search_bandwidth_sweep(search_sweep, publish):
    table = Table(
        "Ablation: dest-reg CAM searches/cycle (gmean % IPC vs baseline)",
        ["searches_per_cycle", "speedup_pct"])
    for n, v in search_sweep.items():
        table.add(n, v)
    publish(table, "ablation_search_bandwidth.txt")

    # Chain generation latency is tiny relative to an interval, and the
    # chain cache removes most generations: bandwidth barely matters.
    values = list(search_sweep.values())
    assert max(values) - min(values) < max(10.0, 0.5 * abs(values[-1]))
