"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import FIGURES, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out
    assert "hybrid" in out
    assert "workloads" in out


def test_run(capsys):
    code = main(["run", "calculix", "--instructions", "500",
                 "--warmup", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ipc" in out
    assert "energy" in out


def test_run_with_runahead_config(capsys):
    code = main(["run", "mcf", "--config", "rab_cc",
                 "--instructions", "1500", "--warmup", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "runahead intervals" in out
    assert "chain cache" in out


def test_compare(capsys):
    code = main(["compare", "calculix", "--configs", "baseline", "runahead",
                 "--instructions", "500", "--warmup", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "runahead" in out
    assert "speedup" in out


def test_compare_with_jobs_matches_serial(capsys):
    argv = ["compare", "calculix", "--configs", "baseline", "runahead",
            "--instructions", "500", "--warmup", "500"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("argv", [
    ["run", "nosuch"],
    ["trace", "nosuch"],
    ["compare", "mcf", "--configs", "nosuch"],
    ["run", "mcf,lbm", "--cores", "2", "--config", "nosuch"],
    ["run", "mcf,nosuch", "--cores", "2"],
    ["sweep", "buffer-size", "--benches", "nosuch"],
    ["run", "mcf", "--tier", "two-level", "--stride", "1000"],
    ["run", "mcf", "--instructions", "-5"],
    ["run", "mcf", "--warmup", "-1"],
    ["bench-throughput"],
    ["suite", "--jobs", "0"],
    ["compare", "mcf", "--jobs", "-1"],
    ["sweep", "buffer-size", "--jobs", "0"],
    ["verify", "--invariants", "--invariant-every", "0"],
], ids=lambda argv: "-".join(argv))
def test_bad_input_is_an_error_not_a_traceback(argv, capsys):
    """Bad names, plans and budgets stop at argument parsing: argparse's
    ``error:`` line and exit status 2, before anything is simulated."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_unknown_workload_raises(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "nonexistent", "--instructions", "100"])
    assert exc.value.code == 2
    assert "unknown workload 'nonexistent'" in capsys.readouterr().err


def test_run_multicore(capsys, tmp_path):
    trace = tmp_path / "mc.perfetto.json"
    code = main(["run", "mcf,lbm", "--cores", "2", "--config",
                 "rab_cc,baseline", "--instructions", "1000",
                 "--warmup", "1500", "--perfetto", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "core 0" in out and "core 1" in out
    assert "contention" in out
    assert "fairness" in out
    assert trace.exists()


def test_run_multicore_flag_misuse_rejected(capsys):
    # Comma lists and --perfetto are multicore-only spellings.
    assert main(["run", "mcf,lbm", "--instructions", "500"]) == 2
    capsys.readouterr()
    assert main(["run", "mcf", "--config", "rab_cc,baseline",
                 "--instructions", "500"]) == 2
    capsys.readouterr()
    assert main(["run", "mcf", "--perfetto", "out.json",
                 "--instructions", "500"]) == 2
    capsys.readouterr()
    assert main(["run", "mcf", "--cores", "2", "--tier", "two-level",
                 "--instructions", "500"]) == 2
    capsys.readouterr()
    # The block jit is the only fast-forward lane: no flag selects one.
    with pytest.raises(SystemExit) as exc:
        main(["run", "mcf", "--ff-lane", "interp"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_config_rejected(capsys):
    # --config takes a comma list (for --cores), so it is checked by an
    # argparse type rather than by choices.
    with pytest.raises(SystemExit) as exc:
        main(["run", "mcf", "--config", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown config 'bogus'" in err
    assert "baseline" in err  # the error lists the valid names


def test_figure_table1(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["figure", "table1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert (tmp_path / "results" / "figures"
            / "table1_configuration.txt").exists()


def test_figure_registry_complete():
    # Every evaluation figure and both tables are reachable from the CLI.
    for fig in ("1", "2", "3", "4", "5", "9", "10", "11", "12", "13",
                "14", "15", "16", "17", "18", "table1", "table2",
                "headline"):
        assert fig in FIGURES


def test_figure_with_tiny_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["figure", "table2", "--instructions", "400"])
    assert code == 0
    assert "Table 2" in capsys.readouterr().out


def test_trace_exports(capsys, tmp_path):
    perfetto = tmp_path / "out.perfetto.json"
    occupancy = tmp_path / "occ.csv"
    metrics = tmp_path / "metrics.json"
    code = main(["trace", "mcf", "--config", "hybrid",
                 "--instructions", "1500", "--warmup", "1500",
                 "--perfetto", str(perfetto),
                 "--occupancy", str(occupancy), "--stride", "32",
                 "--metrics", str(metrics)])
    assert code == 0
    out = capsys.readouterr().out
    assert "runahead_enter" in out and "dram" in out
    import json
    doc = json.loads(perfetto.read_text())
    assert doc["otherData"]["workload"] == "mcf"
    assert occupancy.read_text().startswith("cycle,mode,rob")
    assert "core.ipc" in json.loads(metrics.read_text())["metrics"]


def test_trace_event_filter(capsys):
    code = main(["trace", "mcf", "--config", "hybrid",
                 "--instructions", "1000", "--warmup", "1000",
                 "--events", "dram", "runahead_enter"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dram" in out
    assert "chain_extract" not in out


def test_trace_bad_stride_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "mcf", "--stride", "0"])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


def test_trace_unknown_event_kind_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "mcf", "--events", "bogus_kind"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
