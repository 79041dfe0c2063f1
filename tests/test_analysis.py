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

    def test_changed_warmup_invalidates_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        m1 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        m1.get("calculix", "baseline")
        m1.save()
        from repro.analysis.parallel import simulate_cell
        calls = []

        def spy(spec):
            calls.append(spec)
            return simulate_cell(spec)

        monkeypatch.setattr("repro.analysis.parallel.simulate_cell", spy)
        m2 = ExperimentMatrix(instructions=400, warmup=500, cache_path=path)
        m2.get("calculix", "baseline")
        assert not calls  # same warmup: served from cache
        m3 = ExperimentMatrix(instructions=400, warmup=700, cache_path=path)
        m3.get("calculix", "baseline")
        assert len(calls) == 1  # warmup changed: cell re-simulated
        assert calls[0].warmup == 700

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

        monkeypatch.setattr("repro.analysis.parallel.simulate_cell", boom)
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
    """Host timings vary run to run, so cached payloads must not carry
    them."""

    def test_cached_sampled_payload_holds_no_host_keys(self, tmp_path):
        from repro.config import SamplingConfig
        path = tmp_path / "cache.json"
        plan = SamplingConfig(tier="two-level", ramp_instructions=100,
                              window_instructions=200,
                              stride_instructions=1000)
        matrix = ExperimentMatrix(instructions=3000, warmup=1000,
                                  cache_path=path, sampling=plan)
        matrix.get("calculix", "baseline")
        matrix.save()
        text = path.read_text()
        (cell,) = json.loads(text)["results"].values()
        sampling = cell["sampling"]
        assert sampling["windows"] > 0
        keys = [*sampling, *sampling["estimates"]]
        assert not [k for k in keys if k.endswith("_seconds")]
        assert "lane" not in text and "jit" not in text

    def test_cacheable_sampling_scrubs_host_keys_recursively(self):
        from repro.fastpath import scrub_host_keys
        meta = {
            "windows": 3,
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
                                 [{"wall_seconds": 0.3, "mpki": 1.0}])}
        assert scrub_host_keys(nested) == {
            "per_window": [{"ipc": 0.4}, [{"mpki": 1.0}]],
        }
