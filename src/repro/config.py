"""System configuration (Table 1 of the paper).

Every microarchitectural parameter lives in a frozen-by-convention
dataclass here; :func:`default_system` reproduces Table 1:

    Core       : 4-wide issue, 192-entry ROB, 92-entry RS, hybrid branch
                 predictor, 3.2 GHz
    RA buffer  : 32 uops (8 B each, 256 B total)
    RA cache   : 512 B, 4-way, 8 B lines
    Chain cache: 2 entries, fully associative (512 B)
    L1         : 32 KB I + 32 KB D, 64 B lines, 2 ports, 3-cycle, 8-way
    LLC        : 1 MB, 8-way, 64 B lines, 18-cycle, inclusive
    Mem ctrl   : 64-entry memory queue
    Prefetcher : stream, 32 streams, distance 32, degree 2, into LLC, FDP
    DRAM       : DDR3, 2 channels, 8 banks/channel, 8 KB rows, CAS 13.75 ns,
                 800 MHz bus, bank conflicts & queuing modelled
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class RunaheadMode(enum.Enum):
    """Which runahead scheme the core uses when the ROB stalls on a miss."""

    NONE = "none"                    # plain out-of-order baseline
    TRADITIONAL = "traditional"      # Mutlu et al. HPCA'03 runahead
    BUFFER = "buffer"                # runahead buffer, no chain cache
    BUFFER_CHAIN_CACHE = "buffer_cc" # runahead buffer + chain cache
    HYBRID = "hybrid"                # Fig. 8 policy


@dataclass
class CoreConfig:
    """Superscalar out-of-order core parameters."""

    width: int = 4                  # fetch/decode/rename/issue/commit width
    rob_size: int = 192
    rs_size: int = 92
    load_queue_size: int = 64
    store_queue_size: int = 48
    num_phys_regs: int = 320        # 192 ROB + 32 arch + headroom
    clock_ghz: float = 3.2
    fetch_to_rename_cycles: int = 4  # front-end pipe depth (fetch+decode)
    branch_mispredict_redirect: int = 6  # extra redirect cycles past resolve
    int_alu_units: int = 4
    mem_ports: int = 2              # L1D ports
    fp_units: int = 2
    mul_div_units: int = 1
    # Execution latencies per uop class (cycles, excluding memory).
    latency_ialu: int = 1
    latency_imul: int = 4
    latency_idiv: int = 20
    latency_fadd: int = 3
    latency_fmul: int = 5
    latency_fdiv: int = 24
    latency_branch: int = 1
    latency_agu: int = 1            # address generation before cache access


@dataclass
class BranchPredictorConfig:
    """Hybrid (gshare + bimodal + chooser) predictor with BTB and RAS."""

    gshare_bits: int = 14
    bimodal_bits: int = 14
    chooser_bits: int = 14
    history_bits: int = 12
    btb_entries: int = 4096
    ras_entries: int = 16


@dataclass
class CacheConfig:
    """A single set-associative write-back cache."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 3
    mshrs: int = 32


@dataclass
class DramConfig:
    """DDR3 timing in core cycles (3.2 GHz core, CAS 13.75 ns = 44 cycles)."""

    channels: int = 2
    banks_per_channel: int = 8
    row_bytes: int = 8192
    t_cas: int = 44                 # column access (row-buffer hit)
    t_rcd: int = 44                 # row activate
    t_rp: int = 44                  # precharge (row conflict adds rp+rcd)
    t_burst: int = 16               # 64 B on an 800 MHz DDR3 bus @ 3.2 GHz core
    queue_entries: int = 64         # memory controller queue
    controller_latency: int = 90    # on-chip interconnect + controller
    row_timeout: int = 96           # idle cycles before a row auto-closes
                                    # (adaptive page policy + refresh)


@dataclass
class PrefetcherConfig:
    """POWER4-style stream prefetcher with FDP throttling (Table 1)."""

    enabled: bool = False
    num_streams: int = 32
    distance: int = 32
    degree: int = 2
    train_threshold: int = 2        # accesses to confirm a stream direction
    fdp_enabled: bool = True
    fdp_interval: int = 512         # prefetches per feedback interval
    fdp_high_accuracy: float = 0.75
    fdp_low_accuracy: float = 0.40


@dataclass
class RunaheadConfig:
    """Runahead policy and runahead-buffer structure sizes (§4, §5)."""

    mode: RunaheadMode = RunaheadMode.NONE
    enhancements: bool = False      # Mutlu ISCA'05 short/overlap filters (§4.6)
    enhancement_distance: int = 250 # policy 1 threshold (instructions)
    buffer_uops: int = 32           # runahead buffer capacity (32 x 8 B)
    chain_cache_entries: int = 2    # 2 x 32-uop chains = 512 B
    max_chain_length: int = 32      # Algorithm 1 MAXLENGTH
    reg_searches_per_cycle: int = 2 # dest-reg CAM bandwidth (§5)
    chain_readout_width: int = 4    # uops/cycle read from ROB into the buffer
    # Runahead cache for store->load forwarding during runahead (Table 1).
    runahead_cache_enabled: bool = True
    runahead_cache_bytes: int = 512
    runahead_cache_assoc: int = 4
    runahead_cache_line: int = 8
    min_interval_cycles: int = 60   # do not enter if the miss is nearly back
    collect_chain_stats: bool = False  # dataflow tracker for Figs 2-5, 13


@dataclass
class EnergyConfig:
    """Event-energy model (pJ per event) and static power (W).

    Calibrated so that on the no-prefetch baseline the front-end
    (fetch + decode + predictor + L1I) consumes ~40% of core dynamic
    power, the paper's own calibration point [Tegra 4 whitepaper].
    """

    # Front-end events (~160+110+120/4 = 300 pJ per uop: 40% of the
    # ~0.75 nJ/uop core total, the Tegra-4 calibration point).
    fetch_pj: float = 160.0         # per fetched uop (incl. predictor lookup)
    l1i_access_pj: float = 110.0    # per I-cache line read (16 uops/line)
    decode_pj: float = 120.0        # per decoded uop
    # Back-end events.
    rename_pj: float = 55.0
    rs_dispatch_pj: float = 45.0
    rs_wakeup_pj: float = 35.0      # per completing uop broadcast
    issue_pj: float = 25.0
    prf_read_pj: float = 18.0       # per source operand
    prf_write_pj: float = 27.0
    alu_pj: float = 70.0
    mul_pj: float = 210.0
    div_pj: float = 350.0
    fpu_pj: float = 250.0
    agu_pj: float = 35.0
    rob_write_pj: float = 36.0
    rob_read_pj: float = 27.0       # commit / chain readout
    # Memory events.
    l1d_access_pj: float = 180.0
    llc_access_pj: float = 1100.0
    dram_access_pj: float = 15000.0  # per 64 B line transfer (row hit)
    dram_activate_pj: float = 7000.0 # extra for row activate/precharge
    # Runahead-buffer specific events (§5 methodology).
    pc_cam_pj: float = 320.0        # ROB-wide PC CAM search
    destreg_cam_pj: float = 270.0   # ROB-wide dest-reg CAM, per searched reg
    sq_cam_pj: float = 90.0         # store-queue search per chain load
    chain_cache_read_pj: float = 70.0
    chain_cache_write_pj: float = 90.0
    rab_read_pj: float = 18.0       # per uop issued from the runahead buffer
    checkpoint_pj: float = 3600.0   # RAT + PRF reads + checkpoint RF write
    runahead_cache_pj: float = 35.0
    # Static power.
    core_leakage_w: float = 1.5
    frontend_leakage_w: float = 0.55   # included in core leakage split
    dram_background_w: float = 1.8


@dataclass
class SystemConfig:
    """Everything Table 1 specifies, in one object."""

    core: CoreConfig = field(default_factory=CoreConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * 1024, 8, 64, 3)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8, 64, 3)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 1024 * 1024, 8, 64, 18)
    )
    dram: DramConfig = field(default_factory=DramConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    runahead: RunaheadConfig = field(default_factory=RunaheadConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    def validate(self) -> None:
        """Sanity-check structural parameters; raises ``ValueError``."""
        if self.core.width < 1:
            raise ValueError("core width must be >= 1")
        if self.core.rob_size < self.core.width:
            raise ValueError("ROB must hold at least one fetch group")
        if self.core.num_phys_regs < self.core.rob_size + 32:
            raise ValueError("need at least rob_size + 32 physical registers")
        for cache in (self.l1i, self.l1d, self.llc):
            if cache.size_bytes % (cache.assoc * cache.line_bytes):
                raise ValueError(f"{cache.name}: size not divisible into sets")
        if self.runahead.buffer_uops < 1:
            raise ValueError("runahead buffer must hold at least one uop")
        if self.runahead.max_chain_length > self.runahead.buffer_uops:
            raise ValueError("chain length cap cannot exceed buffer capacity")


def cohort_key(config: SystemConfig) -> str | None:
    """What a configuration shares with others that can ride one
    simulated trajectory (:func:`repro.core.simulate_cohort`): everything
    but the entry policy, i.e. ``runahead.mode``, ``.enhancements`` and
    ``.collect_chain_stats``.  ``None`` for runahead off: such a core
    never makes an entry decision, so it runs alone."""
    if config.runahead.mode is RunaheadMode.NONE:
        return None
    return repr(replace(config, runahead=replace(
        config.runahead, mode=RunaheadMode.TRADITIONAL, enhancements=False,
        collect_chain_stats=False)))


SAMPLING_TIERS = ("detailed", "two-level")


@dataclass
class SamplingConfig:
    """Two-tier execution plan (docs/simulator.md, "Two-tier simulation").

    ``tier="detailed"`` runs the cycle model for the whole instruction
    budget — the exact, golden-grid-pinned mode every paper figure uses.
    ``tier="two-level"`` runs the cycle model only inside fixed-stride
    detailed bursts: each ``stride_instructions``-long segment starts
    with ``ramp_instructions`` of detailed ramp-up (pipeline refill and
    prefetcher/runahead re-training, excluded from the rate estimates)
    followed by a ``window_instructions`` measured window, and the
    remainder is fast-forwarded through the functional interpreter
    (which still warms caches and the branch predictor).  Stats then
    describe the detailed bursts only, trading exactness for a large
    simulation-rate win; ``repro.fastpath.validate`` states the
    calibrated error bounds of the defaults.
    """

    tier: str = "detailed"
    ramp_instructions: int = 500
    window_instructions: int = 1_500
    stride_instructions: int = 40_000

    @property
    def is_sampled(self) -> bool:
        return self.tier == "two-level"

    @property
    def detailed_share(self) -> float:
        """Fraction of instructions the detailed core executes."""
        if not self.is_sampled:
            return 1.0
        return ((self.ramp_instructions + self.window_instructions)
                / self.stride_instructions)

    def validate(self) -> None:
        if self.tier not in SAMPLING_TIERS:
            raise ValueError(
                f"unknown tier {self.tier!r}; choose from {SAMPLING_TIERS}")
        if self.is_sampled:
            if self.window_instructions < 1:
                raise ValueError("window_instructions must be >= 1")
            if self.ramp_instructions < 0:
                raise ValueError("ramp_instructions must be >= 0")
            detailed = self.ramp_instructions + self.window_instructions
            if self.stride_instructions <= detailed:
                raise ValueError(
                    "stride_instructions must exceed ramp + window "
                    "(the stride includes the detailed burst)")


def default_system() -> SystemConfig:
    """The Table 1 configuration: no prefetching, no runahead."""
    return SystemConfig()


def make_config(
    runahead_mode: RunaheadMode = RunaheadMode.NONE,
    prefetcher: bool = False,
    enhancements: bool = False,
    collect_chain_stats: bool = False,
    **runahead_overrides,
) -> SystemConfig:
    """Convenience constructor for the evaluation configurations (§6).

    ``runahead_overrides`` are applied to the :class:`RunaheadConfig`
    (e.g. ``buffer_uops=16`` for the ablation sweeps).
    """
    cfg = default_system()
    cfg.prefetcher = replace(cfg.prefetcher, enabled=prefetcher)
    cfg.runahead = replace(
        cfg.runahead,
        mode=runahead_mode,
        enhancements=enhancements,
        collect_chain_stats=collect_chain_stats,
        **runahead_overrides,
    )
    cfg.validate()
    return cfg


# Named evaluation configurations used throughout benchmarks/ (§6).
CONFIG_BUILDERS = {
    "baseline": lambda: make_config(),
    "runahead": lambda: make_config(RunaheadMode.TRADITIONAL),
    "runahead_enh": lambda: make_config(
        RunaheadMode.TRADITIONAL, enhancements=True
    ),
    "rab": lambda: make_config(RunaheadMode.BUFFER),
    "rab_cc": lambda: make_config(RunaheadMode.BUFFER_CHAIN_CACHE),
    "hybrid": lambda: make_config(RunaheadMode.HYBRID),
    "pf": lambda: make_config(prefetcher=True),
    "runahead_pf": lambda: make_config(RunaheadMode.TRADITIONAL, prefetcher=True),
    "runahead_enh_pf": lambda: make_config(
        RunaheadMode.TRADITIONAL, prefetcher=True, enhancements=True
    ),
    "rab_pf": lambda: make_config(RunaheadMode.BUFFER, prefetcher=True),
    "rab_cc_pf": lambda: make_config(
        RunaheadMode.BUFFER_CHAIN_CACHE, prefetcher=True
    ),
    "hybrid_pf": lambda: make_config(RunaheadMode.HYBRID, prefetcher=True),
}


def build_named_config(name: str) -> SystemConfig:
    """Instantiate one of the named evaluation configurations."""
    try:
        builder = CONFIG_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown config {name!r}; choose from {sorted(CONFIG_BUILDERS)}"
        ) from None
    return builder()


# -- multi-core sharing (repro.multicore) ------------------------------------

def assert_shared_geometry(configs: list[SystemConfig]) -> None:
    """Mixed-workload cores may differ in core/runahead configuration,
    but everything they *share* must be geometrically identical — one
    LLC array cannot be 1 MB for core 0 and 2 MB for core 1."""
    if not configs:
        raise ValueError("at least one core config required")
    first = configs[0]
    for i, cfg in enumerate(configs[1:], start=1):
        if cfg.dram != first.dram:
            raise ValueError(
                f"core {i} DRAM config differs from core 0; shared "
                f"memory requires identical DRAM geometry")
        if cfg.llc != first.llc:
            raise ValueError(
                f"core {i} LLC config differs from core 0; a shared "
                f"LLC requires identical LLC geometry")
        if cfg.prefetcher != first.prefetcher:
            raise ValueError(
                f"core {i} prefetcher config differs from core 0; "
                f"the prefetcher lives in the shared LLC")
