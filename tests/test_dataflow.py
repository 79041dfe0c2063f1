"""Dataflow tracker unit tests (the analytics behind Figs 2-5)."""

import pytest

from repro.config import build_named_config
from repro.core import simulate
from repro.core.dataflow import DataflowTracker
from repro.core.stats import ChainAnalysis


def note(tracker, seq, pc, producers=(), miss=False, runahead=False):
    tracker.note_exec(seq, pc, tuple(producers), miss, runahead)


class TestFig2Classification:
    def test_independent_miss_is_onchip(self):
        t = DataflowTracker()
        note(t, 0, 10)            # an ALU producer
        note(t, 1, 11, producers=[0], miss=True)
        assert t.classify_demand_miss(1, (0,))
        assert t.analysis.misses_source_onchip == 1

    def test_miss_dependent_miss_is_offchip(self):
        t = DataflowTracker()
        note(t, 0, 10, miss=True)          # a missing load
        note(t, 1, 11, producers=[0])      # address math from its data
        assert not t.classify_demand_miss(2, (1,))
        assert t.analysis.misses_source_offchip == 1

    def test_deep_slice_traversal(self):
        t = DataflowTracker()
        note(t, 0, 1, miss=True)
        for seq in range(1, 10):
            note(t, seq, seq + 1, producers=[seq - 1])
        assert not t.classify_demand_miss(10, (9,))

    def test_unknown_producers_ignored(self):
        t = DataflowTracker()
        assert t.classify_demand_miss(5, (-1, 999))


class TestIntervalChains:
    def _interval_with_two_misses(self):
        t = DataflowTracker()
        t.begin_interval()
        # Iteration 1: induction (pc 0) -> load (pc 1, miss).
        note(t, 0, 0, runahead=True)
        note(t, 1, 1, producers=[0], miss=True, runahead=True)
        # Filler not on any chain.
        note(t, 2, 5, runahead=True)
        # Iteration 2: same static chain.
        note(t, 3, 0, producers=[0], runahead=True)
        note(t, 4, 1, producers=[3], miss=True, runahead=True)
        t.end_interval()
        return t.analysis

    def test_repeated_chain_detected(self):
        analysis = self._interval_with_two_misses()
        assert analysis.unique_chains == 1
        assert analysis.repeated_chains == 1
        assert analysis.repeated_fraction == 0.5

    def test_chain_length_is_one_loop_body(self):
        analysis = self._interval_with_two_misses()
        assert analysis.mean_chain_length == 2.0

    def test_ops_on_chain_fraction(self):
        analysis = self._interval_with_two_misses()
        # 4 of 5 executed ops are on some chain (the filler is not).
        assert analysis.runahead_ops_executed == 5
        assert analysis.runahead_ops_on_chains == 4
        assert abs(analysis.chain_op_fraction - 0.8) < 1e-9

    def test_slice_stops_at_repeated_static_pc(self):
        t = DataflowTracker()
        t.begin_interval()
        # A long induction history: pc 0 executed 10 times.
        note(t, 0, 0, runahead=True)
        for seq in range(1, 10):
            note(t, seq, 0, producers=[seq - 1], runahead=True)
        note(t, 10, 1, producers=[9], miss=True, runahead=True)
        t.end_interval()
        # Chain = miss + ONE induction instance, not all ten.
        assert t.analysis.mean_chain_length == 2.0

    def test_non_runahead_ops_excluded(self):
        t = DataflowTracker()
        t.begin_interval()
        note(t, 0, 0, runahead=False)   # normal-mode op
        note(t, 1, 1, miss=True, runahead=True)
        t.end_interval()
        assert t.analysis.runahead_ops_executed == 1

    def test_end_without_begin_is_noop(self):
        t = DataflowTracker()
        t.end_interval()
        assert t.analysis.chain_count == 0

    def test_window_bounded(self):
        t = DataflowTracker()
        for seq in range(10_000):
            note(t, seq, seq % 7)
        assert len(t._records) <= 8192

    def test_window_holds_the_last_executed_uops(self):
        """The window is the last 8192 uops in execution order, not the
        8192 highest seqs: a slice sees a producer only while it is one
        of them."""
        t = DataflowTracker()
        note(t, 9000, 1, miss=True)    # executes first: the one evicted
        note(t, 0, 2, miss=True)       # the oldest execution still held
        for seq in range(1, 8192):
            note(t, seq, 3)
        # Held: a slice through seq 0 finds its miss.
        assert not t.classify_demand_miss(10_000, (0,))
        # Evicted although its seq is the highest of all.
        assert t.classify_demand_miss(10_001, (9000,))
        # One more execution evicts seq 0.
        note(t, 8192, 4)
        assert t.classify_demand_miss(10_002, (0,))


# SimStats.chains of +chains cells at the golden grid's budget (2k timed
# after 1.5k of warm-up; the two mcf cells at 8k wrap the tracker's
# window several times), in ChainAnalysis field order.  The grid's named
# configs collect no chain statistics, so this pins the Figs. 2-5
# numbers in tier-1.
_CHAIN_FIELDS = (
    "misses_source_onchip", "misses_source_offchip",
    "runahead_ops_executed", "runahead_ops_on_chains",
    "unique_chains", "repeated_chains", "chain_length_sum", "chain_count",
)
_PINNED_CHAINS = {
    ("mcf", "baseline", 2000): (145, 18, 0, 0, 0, 0, 0, 0),
    ("mcf", "runahead", 2000): (77, 0, 3183, 374, 17, 60, 374, 77),
    ("mcf", "rab_cc", 2000): (64, 0, 0, 0, 0, 0, 0, 0),
    ("omnetpp", "baseline", 2000): (51, 0, 0, 0, 0, 0, 0, 0),
    ("omnetpp", "runahead", 2000): (6, 0, 1986, 1586, 6, 36, 1586, 42),
    ("omnetpp", "rab_cc", 2000): (17, 0, 0, 0, 0, 0, 0, 0),
    ("soplex", "baseline", 2000): (141, 17, 0, 0, 0, 0, 0, 0),
    ("soplex", "runahead", 2000): (90, 1, 2499, 370, 16, 57, 370, 73),
    ("soplex", "rab_cc", 2000): (66, 0, 0, 0, 0, 0, 0, 0),
    ("libquantum", "baseline", 2000): (39, 0, 0, 0, 0, 0, 0, 0),
    ("libquantum", "runahead", 2000): (17, 0, 1193, 42, 4, 17, 42, 21),
    ("libquantum", "rab_cc", 2000): (11, 0, 0, 0, 0, 0, 0, 0),
    ("milc", "baseline", 2000): (141, 17, 0, 0, 0, 0, 0, 0),
    ("milc", "runahead", 2000): (72, 0, 2142, 394, 14, 63, 394, 77),
    ("milc", "rab_cc", 2000): (70, 0, 0, 0, 0, 0, 0, 0),
    ("GemsFDTD", "baseline", 2000): (52, 0, 0, 0, 0, 0, 0, 0),
    ("GemsFDTD", "runahead", 2000): (20, 0, 1020, 80, 20, 20, 80, 40),
    ("GemsFDTD", "rab_cc", 2000): (16, 0, 0, 0, 0, 0, 0, 0),
    ("mcf", "baseline", 8000): (545, 68, 0, 0, 0, 0, 0, 0),
    ("mcf", "runahead", 8000): (273, 0, 10715, 1308, 59, 207, 1308, 266),
}


@pytest.mark.parametrize("workload,config_name,instructions",
                         sorted(_PINNED_CHAINS))
def test_chain_stats_pinned(workload, config_name, instructions):
    config = build_named_config(config_name)
    config.runahead.collect_chain_stats = True
    chains = simulate(workload, config, max_instructions=instructions,
                      warmup_instructions=1500).stats.chains
    assert tuple(getattr(chains, f) for f in _CHAIN_FIELDS) == \
        _PINNED_CHAINS[workload, config_name, instructions]


class TestChainAnalysisDerived:
    def test_empty_defaults(self):
        a = ChainAnalysis()
        assert a.source_onchip_fraction == 1.0
        assert a.chain_op_fraction == 0.0
        assert a.repeated_fraction == 0.0
        assert a.mean_chain_length == 0.0

    def test_to_dict(self):
        a = ChainAnalysis(misses_source_onchip=3, misses_source_offchip=1)
        d = a.to_dict()
        assert d["source_onchip_fraction"] == 0.75
