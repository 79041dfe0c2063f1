"""Analysis harness tests: metrics, matrix caching, figures, rendering."""

import json

import pytest

from repro.analysis import (
    ExperimentMatrix,
    Table,
    figures,
    gmean,
    gmean_percent_delta,
    percent_delta,
    render,
    write_report,
)


class TestMetrics:
    def test_gmean_basic(self):
        assert gmean([2, 8]) == pytest.approx(4.0)
        assert gmean([5]) == pytest.approx(5.0)

    def test_gmean_clamps_zero(self):
        assert gmean([0.0, 1.0]) > 0

    def test_gmean_empty_raises(self):
        with pytest.raises(ValueError):
            gmean([])

    def test_percent_delta(self):
        assert percent_delta(1.5, 1.0) == pytest.approx(50.0)
        assert percent_delta(1.0, 0.0) == 0.0

    def test_gmean_percent_delta(self):
        assert gmean_percent_delta([2, 2], [1, 1]) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            gmean_percent_delta([1], [1, 2])


class TestTableRendering:
    def test_add_and_render(self):
        table = Table("Demo", ["name", "value"])
        table.add("alpha", 1.2345)
        table.notes.append("a note")
        text = render(table)
        assert "Demo" in text
        assert "alpha" in text
        assert "1.23" in text
        assert "a note" in text

    def test_wrong_arity_rejected(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_column_and_row_map(self):
        table = Table("Demo", ["name", "value"])
        table.add("x", 1)
        table.add("y", 2)
        assert table.column("value") == [1, 2]
        assert table.row_map()["y"] == ("y", 2)

    def test_write_report(self, tmp_path):
        table = Table("Demo", ["a"])
        table.add(1)
        out = write_report(table, "demo.txt", directory=tmp_path)
        assert out.read_text().startswith("Demo")


class TestExperimentMatrix:
    def test_memoizes_in_memory(self, tmp_path):
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=tmp_path / "cache.json")
        first = matrix.get("calculix", "baseline")
        second = matrix.get("calculix", "baseline")
        assert first is second

    def test_disk_cache_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        m1 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        stats = m1.get("calculix", "baseline")
        m1.save()
        assert path.exists()
        m2 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        assert m2.get("calculix", "baseline") == stats

    def test_stale_model_version_discarded(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"model_version": -1, "results":
                                    {"bogus": {}}}))
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=path)
        assert matrix._results == {}

    def test_unknown_config_rejected(self, tmp_path):
        matrix = ExperimentMatrix(cache_path=tmp_path / "c.json")
        with pytest.raises(ValueError):
            matrix.get("mcf", "not_a_config")

    def test_speedup_helper(self, tmp_path):
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=None)
        delta = matrix.speedup_pct("calculix", "baseline")
        assert delta == pytest.approx(0.0)

    def test_chain_stats_cells_distinct(self, tmp_path):
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=None)
        plain = matrix.get("calculix", "baseline")
        chains = matrix.get("calculix", "baseline", chain_stats=True)
        assert plain is not chains

    def test_key_includes_budgets(self):
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=None)
        key = matrix._key("mcf", "baseline", False)
        assert "400" in key and "w500" in key
        matrix.warmup = 600
        assert matrix._key("mcf", "baseline", False) != key

    def test_multicore_cells_cached_and_disk_roundtripped(self, tmp_path):
        path = tmp_path / "cache.json"
        m1 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        first = m1.get_multicore(["calculix", "calculix"], "baseline")
        assert first is m1.get_multicore(["calculix", "calculix"],
                                         "baseline")
        assert len(first["per_core"]) == 2
        assert "contention" in first["shared"]
        m1.save()
        m2 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        assert m2.get_multicore(["calculix", "calculix"],
                                "baseline") == first
        # Distinct from the single-core cell of the same workload/config.
        assert not m2.is_cached("calculix", "baseline")

    def test_multicore_rejected_on_sampled_matrices(self, tmp_path):
        from repro.config import SamplingConfig
        plan = SamplingConfig(tier="two-level", ramp_instructions=100,
                              window_instructions=200,
                              stride_instructions=1000)
        matrix = ExperimentMatrix(instructions=5000, warmup=500,
                                  cache_path=None, sampling=plan)
        with pytest.raises(ValueError, match="detailed"):
            matrix.get_multicore(["mcf", "lbm"], "baseline")
        plain = ExperimentMatrix(instructions=400, warmup=500,
                                 cache_path=None)
        with pytest.raises(ValueError):
            plain.get_multicore(["mcf"], "baseline")  # N=1 → get()
        with pytest.raises(ValueError):
            plain.get_multicore(["mcf", "lbm"], "not_a_config")

    def test_changed_warmup_invalidates_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        m1 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        m1.get("calculix", "baseline")
        m1.save()
        from repro.core import simulate
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return simulate(*args, **kwargs)

        monkeypatch.setattr("repro.analysis.experiments.simulate", spy)
        m2 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        m2.get("calculix", "baseline")
        assert not calls  # same warmup: served from cache
        m3 = ExperimentMatrix(instructions=400, warmup=700, cache_path=path)
        m3.get("calculix", "baseline")
        assert len(calls) == 1  # warmup changed: cell re-simulated
        assert calls[0]["warmup_instructions"] == 700

    def test_payload_persists_budgets_and_schema(self, tmp_path):
        from repro.analysis import KEY_SCHEMA, MODEL_VERSION
        path = tmp_path / "cache.json"
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=path)
        matrix.get("calculix", "baseline")
        matrix.save()
        payload = json.loads(path.read_text())
        assert payload["warmup"] == 500
        assert payload["instructions"] == 400
        assert payload["model_version"] == MODEL_VERSION
        assert payload["key_schema"] == KEY_SCHEMA

    def test_truncated_cache_recovered(self, tmp_path):
        path = tmp_path / "cache.json"
        m1 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        stats = m1.get("calculix", "baseline")
        m1.save()
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        m2 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        assert m2._results == {}
        assert m2.get("calculix", "baseline") == stats

    def test_save_is_atomic_on_failure(self, tmp_path):
        path = tmp_path / "cache.json"
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=path)
        matrix.get("calculix", "baseline")
        matrix.save()
        good = path.read_text()
        matrix.store("calculix", "baseline", True, {"bad": object()})
        with pytest.raises(TypeError):
            matrix.save()
        assert path.read_text() == good  # old cache untouched
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_plain_get_falls_back_to_chains_superset(self, monkeypatch):
        matrix = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=None)
        chains = matrix.get("calculix", "baseline", chain_stats=True)

        def boom(*args, **kwargs):
            raise AssertionError("plain cell should reuse +chains result")

        monkeypatch.setattr("repro.analysis.experiments.simulate", boom)
        assert matrix.get("calculix", "baseline") is chains
        assert matrix.is_cached("calculix", "baseline")


@pytest.fixture(scope="module")
def small_matrix():
    return ExperimentMatrix(instructions=800, warmup=1500, cache_path=None)


class TestFigureExtractors:
    def test_table1_matches_paper_column(self):
        table = figures.table1_configuration()
        for row in table.rows:
            assert row[1] == row[2], f"{row[0]} deviates from Table 1"

    def test_fig09_shape(self, small_matrix):
        table = figures.fig09_performance_nopf(small_matrix)
        assert table.headers[0] == "benchmark"
        assert table.rows[-1][0] == "GMean"
        assert len(table.rows) == 14  # 13 benchmarks + gmean

    def test_fig10_has_average(self, small_matrix):
        table = figures.fig10_mlp(small_matrix)
        assert table.rows[-1][0] == "Average"

    def test_fig16_traffic_nonnegative_for_pf(self, small_matrix):
        table = figures.fig16_memory_traffic(small_matrix)
        pf_col = list(table.headers).index("pf")
        gmean_row = table.rows[-1]
        assert gmean_row[pf_col] > 0  # the prefetcher adds traffic

    def test_headline_summary_renders(self, small_matrix):
        table = figures.headline_summary(small_matrix)
        text = render(table)
        assert "runahead perf %" in text


class TestComparisonExport:
    def test_export_comparison(self, small_matrix, tmp_path):
        out = figures.export_comparison(small_matrix,
                                        path=tmp_path / "cmp.json")
        payload = json.loads(out.read_text())
        assert "runahead perf %" in payload
        for entry in payload.values():
            assert set(entry) == {"measured", "paper", "direction_matches"}

    def test_paper_headline_registry_complete(self):
        table_metrics = set(figures.PAPER_HEADLINES)
        assert "rab_cc energy %" in table_metrics
        assert len(table_metrics) == 11


class TestConcurrentWriters:
    """ExperimentMatrix.save() must merge with cells a concurrent writer
    flushed since this matrix loaded the cache — plain read-once/
    write-whole persistence silently drops the loser's cells."""

    def _pair(self, tmp_path):
        path = tmp_path / "cache.json"
        a = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        b = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        return path, a, b

    def test_two_writers_disjoint_cells_both_survive(self, tmp_path):
        path, a, b = self._pair(tmp_path)
        a.store("calculix", "baseline", False, {"ipc": 1.0})
        b.store("calculix", "runahead", False, {"ipc": 2.0})
        a.save()
        b.save()  # loaded before a.save(): must merge, not overwrite
        merged = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=path)
        assert merged._lookup("calculix", "baseline", False) == {"ipc": 1.0}
        assert merged._lookup("calculix", "runahead", False) == {"ipc": 2.0}

    def test_save_folds_peer_cells_into_memory_too(self, tmp_path):
        path, a, b = self._pair(tmp_path)
        a.store("calculix", "baseline", False, {"ipc": 1.0})
        a.save()
        b.store("calculix", "runahead", False, {"ipc": 2.0})
        b.save()
        # b's in-memory view now includes a's flushed cell as well.
        assert b._lookup("calculix", "baseline", False) == {"ipc": 1.0}

    def test_own_cell_wins_over_disk_on_conflict(self, tmp_path):
        path, a, b = self._pair(tmp_path)
        a.store("calculix", "baseline", False, {"ipc": 1.0})
        a.save()
        b.store("calculix", "baseline", False, {"ipc": 9.0})
        b.save()
        merged = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=path)
        assert merged._lookup("calculix", "baseline", False) == {"ipc": 9.0}

    def test_merge_ignores_stale_schema_payloads(self, tmp_path):
        path = tmp_path / "cache.json"
        a = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        a.store("calculix", "baseline", False, {"ipc": 1.0})
        path.write_text(json.dumps({"model_version": -1,
                                    "results": {"stale": {}}}))
        a.save()
        merged = ExperimentMatrix(instructions=400, warmup=500,
                                  cache_path=path)
        assert "stale" not in merged._results
        assert merged._lookup("calculix", "baseline", False) == {"ipc": 1.0}


class TestHostKeyScrub:
    """REPRO_FF_LANE (and the other host-environment knobs) must never
    leak into cell keys or cached payloads: lanes are byte-identical by
    the lane-identity gate, so cached cells must be lane-agnostic."""

    def _cache_bytes(self, tmp_path, monkeypatch, lane):
        from repro.config import SamplingConfig
        monkeypatch.setenv("REPRO_FF_LANE", lane)
        path = tmp_path / f"{lane}.json"
        plan = SamplingConfig(tier="two-level", ramp_instructions=100,
                              window_instructions=200,
                              stride_instructions=1000)
        matrix = ExperimentMatrix(instructions=3000, warmup=1000,
                                  cache_path=path, sampling=plan)
        matrix.get("calculix", "baseline")
        matrix.save()
        return path.read_bytes()

    def test_ff_lane_env_never_reaches_cache(self, tmp_path, monkeypatch):
        jit = self._cache_bytes(tmp_path, monkeypatch, "jit")
        interp = self._cache_bytes(tmp_path, monkeypatch, "interp")
        assert b"ff_lane" not in jit
        assert b"jit" not in jit.replace(b"calculix", b"")
        assert jit == interp  # byte-identical payload across lanes

    def test_ff_lane_env_never_reaches_cell_keys(self, monkeypatch):
        from repro.config import SamplingConfig
        plan = SamplingConfig(tier="two-level", ramp_instructions=100,
                              window_instructions=200,
                              stride_instructions=1000)
        keys = []
        for lane in ("jit", "interp"):
            monkeypatch.setenv("REPRO_FF_LANE", lane)
            matrix = ExperimentMatrix(instructions=3000, warmup=1000,
                                      cache_path=None, sampling=plan)
            keys.append(matrix._key("calculix", "baseline", False))
        assert keys[0] == keys[1]
        assert "lane" not in keys[0]

    def test_cacheable_sampling_scrubs_host_keys_recursively(self):
        from repro.fastpath import scrub_host_keys
        meta = {
            "windows": 3,
            "ff_lane": "jit",
            "ff_seconds": 1.25,
            "estimates": {"ipc": 0.5, "translate_seconds": 0.1},
        }
        assert scrub_host_keys(meta) == {
            "windows": 3,
            "estimates": {"ipc": 0.5},
        }
        # Lists and tuples are walked too (and come back as lists, the
        # shape a JSON round trip gives).
        nested = {"per_window": ({"ipc": 0.4, "detailed_seconds": 0.2},
                                 [{"ff_lane": "interp", "mpki": 1.0}])}
        assert scrub_host_keys(nested) == {
            "per_window": [{"ipc": 0.4}, [{"mpki": 1.0}]],
        }
