"""repro — reproduction of "Filtered Runahead Execution with a Runahead
Buffer" (Hashemi & Patt, MICRO-48, 2015).

A cycle-level, execution-driven out-of-order processor simulator with
traditional runahead execution, the paper's runahead buffer (dependence
chain extraction + chain cache + hybrid policy), a stream prefetcher, a
DDR3 memory model, an event-based energy model, and a synthetic SPEC
CPU2006-like workload suite.

Quickstart::

    from repro import simulate, make_config, RunaheadMode

    base = simulate("mcf", make_config())
    rab = simulate("mcf", make_config(RunaheadMode.BUFFER_CHAIN_CACHE))
    print(f"speedup: {rab.stats.ipc / base.stats.ipc:.2f}x")
"""

from .config import (
    CONFIG_BUILDERS,
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    DramConfig,
    EnergyConfig,
    PrefetcherConfig,
    RunaheadConfig,
    RunaheadMode,
    SystemConfig,
    build_named_config,
    default_system,
    make_config,
)
from .core import Processor, SimStats, SimulationResult, simulate
from .energy import EnergyModel, EnergyReport
from .multicore import CoreSpec, MulticoreResult, System, simulate_multicore
from .isa import DataMemory, Instruction, Interpreter, Opcode, Program, \
    ProgramBuilder
from .workloads import (
    Workload,
    build_workload,
    medium_high_names,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "CONFIG_BUILDERS",
    "BranchPredictorConfig",
    "CacheConfig",
    "CoreConfig",
    "CoreSpec",
    "DataMemory",
    "DramConfig",
    "EnergyConfig",
    "EnergyModel",
    "EnergyReport",
    "Instruction",
    "Interpreter",
    "MulticoreResult",
    "Opcode",
    "PrefetcherConfig",
    "Processor",
    "Program",
    "ProgramBuilder",
    "RunaheadConfig",
    "RunaheadMode",
    "SimStats",
    "SimulationResult",
    "System",
    "SystemConfig",
    "Workload",
    "build_named_config",
    "build_workload",
    "default_system",
    "make_config",
    "medium_high_names",
    "simulate",
    "simulate_multicore",
    "workload_names",
    "__version__",
]
