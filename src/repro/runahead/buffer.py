"""The runahead buffer (§4.3).

A small structure in the rename stage holding one decoded dependence
chain (up to 32 uops, 8 bytes each).  While the core is in runahead-buffer
mode, rename pulls uops from here instead of the (clock-gated) front-end,
treating the chain as an infinite loop: after the last uop, issue restarts
from the first.  Because each iteration is renamed onto fresh physical
registers, iteration *k+1*'s address computations consume iteration *k*'s
results — a looped induction-variable chain strides ahead of the stalled
program and uncovers future cache misses.
"""

from __future__ import annotations

from .chain import ChainUop


class RunaheadBuffer:
    """Holds the active dependence chain and its loop-issue cursor."""

    def __init__(self, capacity_uops: int = 32) -> None:
        self.capacity = capacity_uops
        self._chain: tuple[ChainUop, ...] = ()
        self._cursor = 0
        self.iterations_started = 0

    def load_chain(self, chain: tuple[ChainUop, ...]) -> None:
        if len(chain) > self.capacity:
            raise ValueError(
                f"chain of {len(chain)} uops exceeds buffer capacity "
                f"{self.capacity}"
            )
        if not chain:
            raise ValueError("cannot load an empty chain")
        self._chain = chain
        self._cursor = 0

    @property
    def active(self) -> bool:
        return bool(self._chain)

    @property
    def chain(self) -> tuple[ChainUop, ...]:
        return self._chain

    def peek(self) -> ChainUop:
        """The next uop the buffer will issue (without advancing)."""
        if not self._chain:
            raise RuntimeError("runahead buffer is empty")
        return self._chain[self._cursor]

    def take(self) -> ChainUop:
        """One uop, advancing the loop cursor; after the last uop of the
        chain the loop restarts from the first."""
        chain = self._chain
        if not chain:
            raise RuntimeError("runahead buffer is empty")
        cursor = self._cursor
        if cursor == 0:
            self.iterations_started += 1
        uop = chain[cursor]
        cursor += 1
        self._cursor = 0 if cursor == len(chain) else cursor
        return uop

    def deactivate(self) -> None:
        self._chain = ()
        self._cursor = 0
