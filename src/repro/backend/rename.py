"""Register renaming: physical register file (with poison bits) and RAT.

The physical register file carries, per register: the 64-bit value, a
ready bit, a *poison* bit (the runahead mechanism of Mutlu et al. — any
consumer of a poisoned source produces a poisoned destination), and the
sequence number of the producing uop (used by the dataflow tracker and by
dependence-chain generation).
"""

from __future__ import annotations

from ..isa import NUM_ARCH_REGS


class PhysicalRegisterFile:
    """Flat arrays indexed by physical register id."""

    def __init__(self, num_regs: int) -> None:
        if num_regs < NUM_ARCH_REGS + 1:
            raise ValueError("need more physical than architectural registers")
        self.num_regs = num_regs
        self.value = [0] * num_regs
        self.ready = bytearray(num_regs)
        self.poison = bytearray(num_regs)
        self.producer_seq = [-1] * num_regs

    def write(self, phys: int, value: int, poisoned: bool = False) -> None:
        self.value[phys] = value
        self.ready[phys] = 1
        self.poison[phys] = 1 if poisoned else 0


class RenameState:
    """RAT + free list over a :class:`PhysicalRegisterFile`.

    ``rat`` is the speculative (front-end) mapping; ``commit_rat`` is the
    retirement-time mapping, which defines architectural state (used to
    take the runahead checkpoint).
    """

    def __init__(self, prf: PhysicalRegisterFile) -> None:
        self.prf = prf
        self.rat = list(range(NUM_ARCH_REGS))
        self.commit_rat = list(range(NUM_ARCH_REGS))
        self.free_list = list(range(NUM_ARCH_REGS, prf.num_regs))
        for phys in range(NUM_ARCH_REGS):
            prf.write(phys, 0)

    def free_count(self) -> int:
        return len(self.free_list)

    def free(self, phys: int) -> None:
        self.free_list.append(phys)

    def arch_values(self) -> list[int]:
        """Committed architectural register values (the runahead checkpoint)."""
        value = self.prf.value
        return [value[self.commit_rat[arch]] for arch in range(NUM_ARCH_REGS)]

    def reset_to_values(self, values: list[int]) -> None:
        """Rebuild the mapping from scratch with the given architectural
        values — used on runahead exit to restore the checkpoint."""
        prf = self.prf
        self.rat = list(range(NUM_ARCH_REGS))
        self.commit_rat = list(range(NUM_ARCH_REGS))
        self.free_list = list(range(NUM_ARCH_REGS, prf.num_regs))
        for arch in range(NUM_ARCH_REGS):
            prf.write(arch, values[arch])
            prf.producer_seq[arch] = -1
