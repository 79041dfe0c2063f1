"""Host-speed probe: puts a job's wall time on a fixed host-speed scale.

The benchmark shares its machine with other tenants, and the speed of one
core drifts by 10-15% over tens of seconds: back-to-back reps of the same
job differ that much, whether each runs in a fresh process or all in one.
While a job runs, a SIGALRM every 50 ms runs a fixed ~0.5 ms piece of
pure-Python work and records how long it took.  The work mixes dict and
slot-attribute updates with a pointer walk in random order over 2**18
list entries, a working set larger than the reference host's 2 MB
per-core L2, as the simulator's own heap is.

``job_s = (wall - probe time) * REFERENCE_S / mean probe time`` is then
the job's time at a fixed probe speed.  Over six back-to-back reps of
`multicore` and of `verify` it spread 0.9% where the wall time spread
4.2% and 3.6%.

The probe allocates no container objects, so it cannot start the garbage
collector inside the job, and it shares no state with the job.
"""

from __future__ import annotations

import os
import random
import signal
import time

INTERVAL_S = 0.05
# The probe's typical mean time on the reference host (README.md), so
# that job_s reads close to the wall time there.
REFERENCE_S = 500e-6
_WALK = 1 << 18


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, x: int) -> int:
        self.hits += 1
        self.value = (self.value + x) & 0xFFFF
        return self.value


def _cycle(n: int) -> list[int]:
    """chain[i] is the entry after i on one cycle through all n entries,
    in random order."""
    order = list(range(n))
    random.Random(1).shuffle(order)
    chain = [0] * n
    for here, there in zip(order, order[1:] + order[:1]):
        chain[here] = there
    return chain


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class HostProbe:
    """Samples the host's speed between ``start()`` and ``stop()``."""

    def __init__(self) -> None:
        before = _rss_mb()
        self.table = {i: 7 * i for i in range(64)}
        self.cells = [_Cell() for _ in range(16)]
        self.chain = _cycle(_WALK)
        self.pos = 0
        self.samples: list[float] = []
        # Resident memory the probe itself holds during the job.
        self.rss_mb = _rss_mb() - before
        self._previous = None

    def _work(self) -> int:
        table, cells, chain = self.table, self.cells, self.chain
        acc = 0
        pos = self.pos
        for i in range(800):
            k = i & 63
            acc = (acc + table[k]) & 0xFFFFF
            table[k] = cells[i & 15].bump(acc) ^ k
            pos = chain[pos]
            acc ^= pos
        self.pos = pos
        return acc

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def job_s(self, wall_s: float) -> float:
        """``wall_s`` minus the probe's own time, at the reference probe
        speed; the plain wall time for a job shorter than one interval."""
        if not self.samples:
            return wall_s
        return (wall_s - sum(self.samples)) * REFERENCE_S / self.mean_s
