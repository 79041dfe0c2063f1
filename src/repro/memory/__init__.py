"""Memory substrate: caches, MSHR-style fill merging, DDR3 DRAM, controller.

Each core's :class:`MemoryHierarchy` (L1s) calls its :class:`SharedLLC`
(LLC + MSHRs + controller + prefetcher) directly, and one
``(done_cycle, level, merged)`` shape carries a load's outcome from L1 to
DRAM: an :class:`AccessResult`, or a plain tuple for an L1 hit.  A
hierarchy built standalone owns a private complex; ``repro.multicore``
connects N hierarchies to one.
"""

from .cache import Cache, CacheLine, CacheStats
from .controller import MemoryController
from .dram import Dram, DramChannel, DramStats
from .hierarchy import MemoryHierarchy
from .shared import (AccessResult, CoreAccount, SharedHierarchyError,
                     SharedLLC, SharedStats)

__all__ = [
    "AccessResult",
    "Cache",
    "CacheLine",
    "CacheStats",
    "CoreAccount",
    "Dram",
    "DramChannel",
    "DramStats",
    "MemoryController",
    "MemoryHierarchy",
    "SharedHierarchyError",
    "SharedLLC",
    "SharedStats",
]
