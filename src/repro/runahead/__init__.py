"""Runahead execution: traditional runahead support structures plus the
paper's contribution — dependence-chain generation, the runahead buffer,
the chain cache, the hybrid policy state, and the per-configuration entry
policy."""

from .buffer import RunaheadBuffer
from .chain import ChainGenResult, ChainUop, chain_signature, generate_chain
from .chain_cache import ChainCache
from .policy import TRADITIONAL, EntryPolicy, same_path
from .runahead_cache import RunaheadCache
from .state import IntervalRecord, RunaheadPolicyState

__all__ = [
    "ChainCache",
    "ChainGenResult",
    "ChainUop",
    "EntryPolicy",
    "IntervalRecord",
    "RunaheadBuffer",
    "RunaheadCache",
    "RunaheadPolicyState",
    "TRADITIONAL",
    "chain_signature",
    "generate_chain",
    "same_path",
]
