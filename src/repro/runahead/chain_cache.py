"""Dependence-chain cache (§4.4): two 32-uop entries, indexed by the PC of
the operation blocking the ROB.

Checked before starting a new chain generation; a hit means runahead can
begin without the pseudo-wakeup walk.  Path associativity is disallowed
(one chain per PC), and the cache is deliberately tiny so stale chains
age out quickly — dynamic instances of a static load can change their
dependence chain over time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .chain import ChainUop


class ChainCache:
    """Fully-associative, LRU, one chain per PC."""

    def __init__(self, entries: int = 2) -> None:
        if entries < 1:
            raise ValueError("chain cache needs at least one entry")
        self.capacity = entries
        self._entries: OrderedDict[int, tuple[ChainUop, ...]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0

    def lookup(self, pc: int) -> Optional[tuple[ChainUop, ...]]:
        chain = self._entries.get(pc)
        if chain is None:
            self.misses += 1
            return None
        self._entries.move_to_end(pc)
        self.hits += 1
        return chain

    def insert(self, pc: int, chain: tuple[ChainUop, ...]) -> None:
        if pc in self._entries:
            self._entries.move_to_end(pc)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[pc] = chain
        self.insertions += 1

    def __len__(self) -> int:
        return len(self._entries)
