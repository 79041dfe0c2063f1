"""Runahead execution: traditional runahead support structures plus the
paper's contribution — dependence-chain generation, the runahead buffer,
the chain cache, and the per-configuration entry policy with its Policy
1/2 filters.  The runahead intervals themselves are facts of the
simulated trajectory, held by :class:`~repro.core.Processor`."""

from .buffer import RunaheadBuffer
from .chain import ChainGenResult, ChainUop, chain_signature, generate_chain
from .chain_cache import ChainCache
from .policy import TRADITIONAL, EntryPolicy, same_path
from .runahead_cache import RunaheadCache

__all__ = [
    "ChainCache",
    "ChainGenResult",
    "ChainUop",
    "EntryPolicy",
    "RunaheadBuffer",
    "RunaheadCache",
    "TRADITIONAL",
    "chain_signature",
    "generate_chain",
    "same_path",
]
