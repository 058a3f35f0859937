import csv
import json
import os

import numpy as np
import pytest

import eqgrow.sweep as sweep_mod
from eqgrow.cli import main
from eqgrow.closure import estimate_mu
from eqgrow.engine import ConfigError, dump_rules, load_rules, run_discovery
from eqgrow.ingest import CommitRecord
from eqgrow.report import render_table, svg_line_plot, write_csv
from eqgrow.sweep import (SweepPlan, analyze, long_range_plan,
                          read_sweep_file, run_sweep)
from eqgrow.terms import ARITH
from test_ingest import format_log

SMALL_PLAN = SweepPlan(domains=("bool",), generators=("random",),
                       filters=("any", "novelty"), depths=(2, 3),
                       batch_sizes=(40,), seeds=(0,), epochs=10, workers=1)
SMALL_PLAN_ARGS = ["--domains", "bool", "--generators", "random",
                   "--filters", "any", "novelty", "--depths", "2", "3",
                   "--batch-sizes", "40", "--seeds", "0", "--epochs", "10",
                   "--workers", "1"]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_empty_plan_empty_file(tmp_path):
    plan = SweepPlan(domains=(), workers=1)
    out = tmp_path / "empty.jsonl"
    records = run_sweep(plan, out)
    assert records == []
    assert not out.exists() or out.read_text() == ""


def test_sweep_runs_and_is_idempotent(tmp_path):
    out = tmp_path / "sweep.jsonl"
    first = run_sweep(SMALL_PLAN, out)
    assert len(first) == 4
    before = out.read_text()
    second = run_sweep(SMALL_PLAN, out)
    assert out.read_text() == before
    assert [r["sizes"] for r in first] == [r["sizes"] for r in second]


def test_sweep_resumes_after_partial_run(tmp_path):
    out_full = tmp_path / "full.jsonl"
    run_sweep(SMALL_PLAN, out_full)
    full = {tuple(sorted(r.items(), key=lambda kv: kv[0]))
            for r in map(_strip_sizes, read_sweep_file(out_full))}

    out_resumed = tmp_path / "resumed.jsonl"
    partial = SweepPlan(**{**SMALL_PLAN.__dict__, "depths": (2,)})
    run_sweep(partial, out_resumed)
    run_sweep(SMALL_PLAN, out_resumed)
    resumed = {tuple(sorted(r.items(), key=lambda kv: kv[0]))
               for r in map(_strip_sizes, read_sweep_file(out_resumed))}
    assert resumed == full


def _strip_sizes(record):
    out = dict(record)
    out["sizes"] = tuple(out["sizes"])
    return out


def test_failed_config_records_error(tmp_path, monkeypatch):
    def broken(config):
        raise RuntimeError("boom")
    monkeypatch.setattr(sweep_mod, "run_discovery", broken)
    out = tmp_path / "err.jsonl"
    plan = SweepPlan(domains=("bool",), generators=("random",),
                     filters=("any",), depths=(2,), batch_sizes=(40,),
                     seeds=(0,), epochs=2, workers=1)
    records = run_sweep(plan, out)
    assert len(records) == 1
    assert "boom" in records[0]["error"]
    assert records[0]["domain"] == "bool"


def test_failed_config_reruns(tmp_path, monkeypatch):
    out = tmp_path / "retry.jsonl"
    plan = SweepPlan(**{**SMALL_PLAN.__dict__, "depths": (2,),
                        "filters": ("any",)})
    with monkeypatch.context() as patch:
        def transient(config):
            raise RuntimeError("transient")
        patch.setattr(sweep_mod, "run_discovery", transient)
        assert "transient" in run_sweep(plan, out)[0]["error"]
    calls = _count_discoveries(monkeypatch)
    records = run_sweep(plan, out)
    assert calls == [plan.configs()[0].key()]
    assert records == read_sweep_file(out)[-1:]
    assert records[0]["sizes"] == run_discovery(plan.configs()[0]).trajectory.sizes
    before = out.read_bytes()
    assert run_sweep(plan, out) == records
    assert out.read_bytes() == before and len(calls) == 1


def test_sweep_asks_for_no_more_workers_than_pending_configs(tmp_path,
                                                            monkeypatch):
    asked = []

    class InProcessPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InProcessPool)
    many = SweepPlan(**{**SMALL_PLAN.__dict__, "workers": 5000})
    records = run_sweep(many, tmp_path / "many.jsonl")
    assert asked == [len(many.configs())] == [4]
    assert records == run_sweep(SMALL_PLAN, tmp_path / "one.jsonl")
    single = SweepPlan(**{**many.__dict__, "depths": (2,), "filters": ("any",)})
    run_sweep(single, tmp_path / "single.jsonl")
    assert asked == [4]  # one pending config runs in process


def _count_discoveries(monkeypatch, interrupt_at=None):
    """Route sweep.run_discovery through a wrapper that records each config
    and, at call ``interrupt_at``, raises KeyboardInterrupt as a kill would."""
    real = sweep_mod.run_discovery
    calls = []

    def wrapper(config):
        calls.append(config.key())
        if len(calls) == interrupt_at:
            raise KeyboardInterrupt
        return real(config)
    monkeypatch.setattr(sweep_mod, "run_discovery", wrapper)
    return calls


def test_killed_sweep_resumes_byte_identical(tmp_path, monkeypatch):
    full = tmp_path / "full.jsonl"
    run_sweep(SMALL_PLAN, full)
    out = tmp_path / "killed.jsonl"
    with monkeypatch.context() as patch:
        _count_discoveries(patch, interrupt_at=3)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(SMALL_PLAN, out)
    lines = full.read_bytes().splitlines(keepends=True)
    assert out.read_bytes() == b"".join(lines[:2])
    with open(out, "ab") as fh:
        fh.write(lines[2][:25])
    assert read_sweep_file(out) == read_sweep_file(full)[:2]
    run_sweep(SMALL_PLAN, out)
    assert out.read_bytes() == full.read_bytes()


def test_only_a_torn_last_line_is_forgiven(tmp_path):
    full = tmp_path / "full.jsonl"
    run_sweep(SMALL_PLAN, full)
    lines = full.read_bytes().splitlines(keepends=True)
    middle = tmp_path / "middle.jsonl"
    middle.write_bytes(lines[0] + lines[1][:25] + b"\n" + lines[2])
    with pytest.raises(ValueError, match="line 2"):
        read_sweep_file(middle)
    with pytest.raises(ValueError):
        run_sweep(SMALL_PLAN, middle)
    # A whole last record that lost only its line break is kept.
    unterminated = tmp_path / "unterminated.jsonl"
    unterminated.write_bytes(b"".join(lines[:2]).rstrip(b"\n"))
    assert read_sweep_file(unterminated) == read_sweep_file(full)[:2]
    run_sweep(SMALL_PLAN, unterminated)
    assert unterminated.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("field", ["engine_version", "prng_id"])
def test_resume_refuses_other_engine(tmp_path, capsys, field):
    out = tmp_path / "old.jsonl"
    run_sweep(SweepPlan(**{**SMALL_PLAN.__dict__, "depths": (2,)}), out)
    records = read_sweep_file(out)
    records[0][field] = "other"
    out.write_text("".join(json.dumps(r) + "\n" for r in records))
    before = out.read_bytes()
    with pytest.raises(ValueError, match="other"):
        run_sweep(SMALL_PLAN, out)
    assert main(["sweep", "--out", str(out)] + SMALL_PLAN_ARGS) == 2
    assert out.read_bytes() == before


def test_parallel_matches_serial(tmp_path):
    serial = run_sweep(SweepPlan(**{**SMALL_PLAN.__dict__, "workers": 1}),
                       tmp_path / "serial.jsonl")
    parallel = run_sweep(SweepPlan(**{**SMALL_PLAN.__dict__, "workers": 4}),
                         tmp_path / "parallel.jsonl")
    assert [r["sizes"] for r in serial] == [r["sizes"] for r in parallel]


def test_plan_presets():
    assert len(SweepPlan().configs()) == 3 * 4 * 2 * 3 * 5 * 5
    lr = long_range_plan()
    configs = lr.configs()
    assert len(configs) == 5
    assert {c.epochs for c in configs} == {500}
    assert {(c.domain, c.generator, c.filter, c.depth, c.batch_size)
            for c in configs} == {("list", "compositional", "any", 2, 80)}


def test_plan_axes_are_tuples():
    assert SweepPlan(depths=[2]) == SweepPlan(depths=(2,))
    assert SweepPlan(seeds=range(2)).seeds == (0, 1)


@pytest.mark.parametrize("overrides,field", [
    ({"domains": "bool"}, "domains"),
    ({"generators": 3}, "generators"),
    ({"depths": [2, "3"]}, "depths"),
    ({"batch_sizes": [40.0]}, "batch_sizes"),
    ({"seeds": [True]}, "seeds"),
    ({"epochs": "3"}, "epochs"),
    ({"epochs": -1}, "epochs"),
    ({"workers": 1.5}, "workers"),
])
def test_plan_field_types_checked(overrides, field):
    with pytest.raises(ConfigError, match=field):
        SweepPlan(**overrides)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def test_analyze_perfect_power_law_trajectory():
    record = {"domain": "arith", "generator": "random", "filter": "any",
              "depth": 3, "batch_size": 40, "seed": 0, "epochs": 30,
              "sizes": list(range(1, 31))}
    report = analyze([record], windows=(10, 30), models=("power_law",
                                                         "stretched_exp",
                                                         "saturating_pl"))
    assert report.exponents[0]["b"] == pytest.approx(1.0)
    for window, counts in report.window_winners.items():
        assert counts.most_common(1)[0][0] == "power_law"


def test_analyze_flat_trajectory_flagged():
    record = {"domain": "list", "generator": "random", "filter": "novelty",
              "depth": 2, "batch_size": 40, "seed": 0, "epochs": 30,
              "sizes": [0] * 30}
    report = analyze([record], windows=(30,))
    row = report.exponents[0]
    assert row["b"] == 0.0 and row["degenerate"] == 1
    assert report.domain_table[0]["frac_b_lt_0.1"] == 1.0


def test_analyze_window_schedule_skips_long_windows():
    record = {"domain": "arith", "generator": "random", "filter": "any",
              "depth": 3, "batch_size": 40, "seed": 0, "epochs": 30,
              "sizes": list(range(1, 31))}
    report = analyze([record], windows=(30, 50, 100, 200, 300, 500))
    assert set(report.window_winners) == {30}


@pytest.mark.parametrize("window", [0, -5])
def test_analyze_refuses_windows_below_one(window):
    record = {"domain": "arith", "generator": "random", "filter": "any",
              "depth": 3, "batch_size": 40, "seed": 0, "epochs": 30,
              "sizes": list(range(1, 31))}
    with pytest.raises(ValueError, match=f"window {window} is below 1"):
        analyze([record], windows=(30, window))


def test_pipeline_byte_identical(tmp_path):
    """sweep -> analyze -> csv twice from the same seeds is byte-identical."""
    from eqgrow.report import write_domain_table_csv, write_exponents_csv
    outputs = []
    for tag in ("one", "two"):
        jsonl = tmp_path / f"{tag}.jsonl"
        records = run_sweep(SMALL_PLAN, jsonl)
        report = analyze(records, windows=(10,))
        exp = tmp_path / f"{tag}_exponents.csv"
        table = tmp_path / f"{tag}_table.csv"
        write_exponents_csv(exp, report)
        write_domain_table_csv(table, report)
        outputs.append((jsonl.read_bytes(), exp.read_bytes(), table.read_bytes()))
    assert outputs[0] == outputs[1]


def test_analysis_aggregates_permutation_invariant(tmp_path):
    records = run_sweep(SMALL_PLAN, tmp_path / "s.jsonl")
    forward = analyze(records, windows=(10,))
    backward = analyze(list(reversed(records)), windows=(10,))
    assert forward.domain_table == backward.domain_table
    assert forward.window_winners == backward.window_winners


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def test_write_csv_headers_only_when_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ("a", "b"), [])
    assert path.read_text() == "a,b\n"


def test_csv_byte_stable(tmp_path):
    rows = [[1, 0.1234567890123, "x"], [2, 3.0, "y"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ("i", "v", "s"), rows)
    write_csv(p2, ("i", "v", "s"), rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_two_point_series_single_polyline(tmp_path):
    path = tmp_path / "plot.svg"
    svg_line_plot(path, [("s", [1, 2], [3, 4])])
    text = path.read_text()
    assert text.count("<polyline") == 1
    points = text.split('points="')[1].split('"')[0]
    assert len(points.split()) == 2


def test_render_table_alignment():
    text = render_table(("name", "v"), [["alpha", 1], ["b", 22]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_usage_error_exit_1(capsys):
    assert main(["no-such-command"]) == 1


def test_cli_data_error_exit_2(capsys):
    assert main(["fit", "/nonexistent/series.csv"]) == 2


@pytest.mark.parametrize("command", [
    "fit {missing}", "bootstrap {missing}", "forecast {missing} --split 5",
    "analyze {missing} --out-dir {tmp}/analysis",
    "report {tmp} --format svg --trajectories {missing}",
], ids=["fit", "bootstrap", "forecast", "analyze", "report"])
def test_cli_missing_sweep_file_is_named(tmp_path, capsys, command):
    (tmp_path / "exponents.csv").write_text("domain,b\n")
    missing = tmp_path / "nope.jsonl"
    assert main(command.format(tmp=tmp_path, missing=missing).split()) == 2
    err = capsys.readouterr().err
    assert "No such file" in err and str(missing) in err
    assert not (tmp_path / "analysis").exists()


@pytest.mark.parametrize("text, line, reason", [
    ("t,n\n1,2\n2\n", 3, "missing cell"),
    ("t,n\n1,2,9\n2,3\n", 2, "extra cell"),
    ("t,n\n1,2\n2,abc\n", 3, "'abc'"),
    ("t,n\nx,2\n", 2, "'x'"),
], ids=["missing-cell", "extra-cell", "bad-n", "bad-t"])
def test_cli_fit_bad_series_cell_names_the_line(tmp_path, capsys, text, line,
                                                reason):
    series = tmp_path / "series.csv"
    series.write_text(text)
    assert main(["fit", str(series)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {series}:{line}: ") and reason in err


def test_cli_analyze_error_only_file_is_named(tmp_path, capsys):
    errors = tmp_path / "errors.jsonl"
    errors.write_text(json.dumps({"domain": "bool", "seed": 0,
                                  "error": "RuntimeError: boom"}) + "\n")
    out_dir = tmp_path / "analysis"
    assert main(["analyze", str(errors), "--out-dir", str(out_dir)]) == 2
    assert f"{errors}: no trajectories" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_sweep_non_object_line_is_data_error(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    run_sweep(SweepPlan(**{**SMALL_PLAN.__dict__, "depths": (2,)}), out)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("[1, 2]\n")
    with pytest.raises(ValueError, match="line 3: not a JSON object"):
        read_sweep_file(out)
    assert main(["sweep", "--out", str(out)] + SMALL_PLAN_ARGS) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["exclusions", "domain"])
def test_cli_sweep_unknown_config_key_is_data_error(tmp_path, capsys, key):
    # "exclusions" was a dead plan field; "domain" misspells "domains"
    config = tmp_path / "plan.json"
    config.write_text(json.dumps({key: [["bool", "random", "any", 2, 40, 0]]}))
    out = tmp_path / "t.jsonl"
    argv = ["sweep", "--out", str(out), "--config", str(config)]
    assert main(argv + SMALL_PLAN_ARGS) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("plan,field", [
    ([1, 2], "JSON object"),
    ({"epochs": "3"}, "epochs"),
    ({"domains": "bool"}, "domains"),
    ({"seeds": ["0"]}, "seeds"),
    ({"seeds": [-1]}, "seed"),
])
def test_cli_sweep_config_value_types_are_data_errors(tmp_path, capsys, plan,
                                                      field):
    config = tmp_path / "plan.json"
    config.write_text(json.dumps(plan))
    out = tmp_path / "t.jsonl"
    argv = ["sweep", "--out", str(out), "--config", str(config)]
    assert main(argv + ["--workers", "1"]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_config_and_flags_merge(tmp_path, capsys):
    config = tmp_path / "plan.json"
    config.write_text(json.dumps({"domains": ["bool"], "generators": ["random"],
                                  "seeds": [1], "epochs": 99}))
    out = tmp_path / "t.jsonl"
    argv = ["sweep", "--out", str(out), "--config", str(config),
            "--filters", "any", "--depths", "2", "--batch-sizes", "40",
            "--epochs", "5", "--workers", "1"]
    assert main(argv) == 0
    [record] = read_sweep_file(out)
    assert (record["domain"], record["seed"], record["epochs"]) == ("bool", 1, 5)


def test_cli_sweep_analyze_pipeline(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code = main(["sweep", "--out", str(out), "--domains", "bool",
                 "--generators", "random", "--filters", "any",
                 "--depths", "3", "--batch-sizes", "40", "--seeds", "0",
                 "--epochs", "10", "--workers", "1"])
    assert code == 0
    out_dir = tmp_path / "analysis"
    assert main(["analyze", str(out), "--out-dir", str(out_dir),
                 "--windows", "10"]) == 0
    assert (out_dir / "exponents.csv").exists()
    assert (out_dir / "domain_table.csv").exists()
    assert main(["report", str(out_dir), "--format", "svg",
                 "--trajectories", str(out)]) == 0
    assert (out_dir / "trajectories.svg").exists()


def test_cli_report_svg_without_trajectories_is_data_error(tmp_path, capsys):
    out_dir = tmp_path / "analysis"
    out_dir.mkdir()
    (out_dir / "exponents.csv").write_text("domain,b\n")
    errors = tmp_path / "errors.jsonl"
    errors.write_text(json.dumps({"domain": "bool", "seed": 0,
                                  "error": "RuntimeError: boom"}) + "\n")
    assert main(["report", str(out_dir), "--format", "svg",
                 "--trajectories", str(errors)]) == 2
    assert f"{errors}: no trajectories" in capsys.readouterr().err
    assert not (out_dir / "trajectories.svg").exists()


@pytest.mark.parametrize("window", ["-5", "0"])
def test_cli_analyze_window_below_one_is_data_error(tmp_path, capsys, window):
    out = tmp_path / "t.jsonl"
    run_sweep(SMALL_PLAN, out)
    out_dir = tmp_path / "analysis"
    assert main(["analyze", str(out), "--out-dir", str(out_dir),
                 "--windows", "10", window]) == 2
    assert f"window {window} is below 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_rules_dir_reuses_the_sweep_run(tmp_path, monkeypatch, capsys):
    calls = _count_discoveries(monkeypatch)
    out, rules_dir = tmp_path / "t.jsonl", tmp_path / "rules"
    argv = ["sweep", "--out", str(out), "--rules-dir", str(rules_dir)]
    argv += SMALL_PLAN_ARGS
    configs = SMALL_PLAN.configs()
    assert main(argv) == 0
    assert calls == [c.key() for c in configs]
    names = ["_".join(map(str, c.key())) + ".rules" for c in configs]
    want = tmp_path / "want.rules"
    for config, name in zip(configs, names):
        dump_rules(want, run_discovery(config).rules)
        assert (rules_dir / name).read_bytes() == want.read_bytes()
    before = out.read_bytes()
    calls.clear()
    for name in names[1:3]:
        os.remove(rules_dir / name)
    assert main(argv) == 0
    assert calls == [c.key() for c in configs[1:3]]
    assert sorted(os.listdir(rules_dir)) == sorted(names)
    assert out.read_bytes() == before


def test_cli_fit_bootstrap_forecast(tmp_path, capsys):
    series = tmp_path / "series.csv"
    t = np.arange(1, 61, dtype=float)
    with open(series, "w") as fh:
        fh.write("t,n\n")
        for ti, ni in zip(t, 2.0 * t ** 0.8):
            fh.write(f"{ti},{ni}\n")
    assert main(["fit", str(series), "--models", "power_law", "linear"]) == 0
    assert main(["bootstrap", str(series), "--model", "power_law",
                 "--resamples", "20"]) == 0
    assert main(["forecast", str(series), "--split", "30",
                 "--models", "power_law", "linear"]) == 0
    captured = capsys.readouterr()
    assert "rmse_oos" in captured.out


def test_cli_ingest_and_ode(tmp_path, capsys):
    log = tmp_path / "history.log"
    log.write_text(format_log([
        CommitRecord("2020-01", ["Mathlib/A.lean"]),
        CommitRecord("2020-03", ["Mathlib/B/C.lean", "other.txt"]),
    ]))
    out = tmp_path / "monthly.csv"
    assert main(["ingest", str(log), "--mode", "new_files",
                 "--glob", "Mathlib/**/*.lean", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1:] == ["2020-01,1,1", "2020-02,2,1", "2020-03,3,2"]

    ode_out = tmp_path / "ode.csv"
    assert main(["ode", "--throughput", "2", "--exponent", "0",
                 "--t-end", "10", "--dt", "0.1", "--out", str(ode_out)]) == 0
    assert ode_out.read_text().splitlines()[1] == "1,2"


def test_cli_ode_writes_lf_and_twelve_digits(tmp_path, capsys):
    out = tmp_path / "ode.csv"
    assert main(["ode", "--throughput", "1", "--exponent", "0.5",
                 "--t-end", "3", "--dt", "0.1", "--out", str(out)]) == 0
    assert out.read_bytes() == (b"t,n\n1,0.249806664051\n2,0.9996125859\n"
                                b"3,2.24941874993\n")


def test_cli_ingest_glob_outside_new_files_is_data_error(tmp_path, capsys):
    log = tmp_path / "history.log"
    log.write_text(format_log([CommitRecord("2020-01", ["A.lean"])]))
    out = tmp_path / "monthly.csv"
    assert main(["ingest", str(log), "--glob", "*.lean", "--out", str(out)]) == 2
    assert "a glob applies only in new_files mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--throughput", "-1", "--exponent", "0", "--t-end", "50"],
     "throughput must be non-negative"),
    (["--throughput", "1", "--exponent", "-0.5", "--t-end", "50"],
     "needs n0 > 0"),
    (["--throughput", "1", "--exponent", "1.5", "--n0", "1", "--t-end", "50"],
     "diverged before t = 2.04"),
    (["--throughput", "1", "--exponent", "0", "--t-end", "inf"],
     "t_end must be finite"),
    (["--throughput", "1", "--exponent", "0", "--t-end", "50", "--dt", "nan"],
     "dt must be positive and finite"),
    (["--throughput", "1", "--exponent", "0", "--t-end", "50", "--dt", "0"],
     "dt must be positive and finite"),
    (["--throughput", "nan", "--exponent", "0", "--t-end", "50"],
     "throughput must be finite"),
    (["--throughput", "1", "--exponent", "nan", "--t-end", "50"],
     "exponent must be finite"),
    (["--throughput", "1", "--exponent", "0", "--coverage", "inf",
      "--t-end", "50"], "coverage must be finite"),
    (["--throughput", "1", "--exponent", "0", "--n0", "inf", "--t-end", "50"],
     "n0 must be finite"),
    (["--throughput", "1", "--exponent", "0", "--t-end", "0.5"],
     "t_end must be at least 1"),
    (["--throughput", "1", "--exponent", "0", "--t-end", "-5"],
     "t_end must be at least 1"),
    (["--throughput", "1", "--exponent", "0.5", "--t-end", "1e7",
      "--dt", "1e-6"], "t_end 1e+07 at dt 1e-06 needs 1e+13 steps"),
    (["--throughput", "1", "--exponent", "0", "--t-end", "1e8", "--dt", "10"],
     "t_end 1e+08 at dt 10 needs 1e+08 steps"),
])
def test_cli_ode_bad_input_is_data_error(tmp_path, capsys, argv, message):
    out = tmp_path / "ode.csv"
    assert main(["ode", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_ode_step_cap(tmp_path, capsys, monkeypatch):
    argv = ["ode", "--throughput", "1", "--exponent", "0", "--t-end", "10",
            "--dt", "0.1", "--out", str(tmp_path / "ode.csv")]
    monkeypatch.setattr("eqgrow.closure.STEP_CAP", 100)
    assert main(argv) == 0
    monkeypatch.setattr("eqgrow.closure.STEP_CAP", 99)
    assert main(argv) == 2
    assert "t_end 10 at dt 0.1 needs 100 steps, over 99" in capsys.readouterr().err


def test_cli_ingest_malformed_log_names_the_file(tmp_path, capsys):
    log = tmp_path / "history.log"
    log.write_text("commit a 2021-05-03T00:00:00+00:00\n\ncommit onlyhash\n")
    out = tmp_path / "monthly.csv"
    assert main(["ingest", str(log), "--out", str(out)]) == 2
    assert f"{log}: line 3: malformed commit line" in capsys.readouterr().err
    assert not out.exists()


def test_cli_regression_commands(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    plan = SweepPlan(domains=("arith", "list"), generators=("random",
                                                            "compositional"),
                     filters=("any", "novelty"), depths=(2, 3),
                     batch_sizes=(40, 80), seeds=(0,), epochs=8, workers=2)
    run_sweep(plan, out)
    out_dir = tmp_path / "a"
    assert main(["analyze", str(out), "--out-dir", str(out_dir),
                 "--windows", "8"]) == 0
    exponents = str(out_dir / "exponents.csv")
    assert main(["regress", exponents, "--domains", "arith",
                 "--folds", "4"]) == 0
    assert main(["transfer", exponents, "--train", "arith",
                 "--test", "list"]) == 0
    assert main(["pooled", exponents, "--folds", "4"]) == 0
    captured = capsys.readouterr()
    assert "transfer r2" in captured.out


@pytest.mark.parametrize("resamples", ["0", "-3"])
def test_cli_bootstrap_resamples_below_one_is_data_error(tmp_path, capsys,
                                                          resamples):
    series = tmp_path / "series.csv"
    series.write_text("t,n\n" + "".join(f"{t},{2.0 * t ** 0.8}\n"
                                        for t in range(1, 31)))
    assert main(["bootstrap", str(series), "--model", "power_law",
                 "--resamples", resamples]) == 2
    assert "n_resamples must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["regress", "--domains", "arith"],
                                     ["pooled"]])
@pytest.mark.parametrize("folds", ["1", "0"])
def test_cli_folds_below_two_is_data_error(tmp_path, capsys, command, folds):
    exponents = tmp_path / "exponents.csv"
    exponents.write_text(
        "domain,generator,filter,depth,batch_size,seed,b,degenerate\n"
        + "".join(f"arith,random,any,2,40,{seed},0.{seed + 5},0\n"
                  for seed in range(4)))
    name, *rest = command
    assert main([name, str(exponents), *rest, "--folds", folds]) == 2
    assert "folds must be >= 2" in capsys.readouterr().err


EXPONENT_ROWS = [(domain, seed) for domain in ("arith", "list") for seed in range(4)]


@pytest.mark.parametrize("command", [["regress", "--domains", "arith"],
                                     ["transfer", "--train", "arith",
                                      "--test", "list"],
                                     ["pooled"]])
@pytest.mark.parametrize("table,message", [
    ("domain,generator,filter,batch_size,seed,b\n"
     + "".join(f"{d},random,any,40,{s},0.{s + 5}\n" for d, s in EXPONENT_ROWS),
     "{path}: missing columns depth, degenerate"),
    ("domain,generator,filter,depth,batch_size,seed,b,degenerate\n"
     + "".join(f"{d},random,any,2,40,{s},0.{s + 5},0\n" for d, s in EXPONENT_ROWS)
     + "list,random,any,2,40,9,high,0\n",
     "{path}:10: "),
    ("domain,generator,filter,depth,batch_size,seed,b,degenerate\n"
     + "".join(f"{d},random,any,2,40,{s},0.{s + 5},0\n" for d, s in EXPONENT_ROWS)
     + "list,random,any,2,40,9,0.5,0,7\n",
     "{path}:10: extra cell"),
    ("domain,generator,filter,depth,batch_size,seed,b,degenerate\n"
     + "".join(f"{d},random,any,2,40,{s},0.{s + 5},0\n" for d, s in EXPONENT_ROWS)
     + "list,random,any,2,40,9,0.5\n",
     "{path}:10: missing cell"),
], ids=["missing_columns", "bad_value", "extra_cell", "missing_last_cell"])
def test_cli_malformed_exponent_table_is_data_error(tmp_path, capsys, command,
                                                    table, message):
    exponents = tmp_path / "exponents.csv"
    exponents.write_text(table)
    name, *rest = command
    assert main([name, str(exponents), *rest]) == 2
    assert message.format(path=exponents) in capsys.readouterr().err


@pytest.mark.parametrize("line", ["(+ A q) => A", "(+ A 0 => A", "( => A"])
def test_cli_mu_malformed_rule_file_is_data_error(tmp_path, capsys, line):
    rules = tmp_path / "bad.rules"
    rules.write_text(f"(* A 1) => A\n\n{line}\n")
    assert main(["mu", str(rules), "--domain", "arith"]) == 2
    assert f"{rules}:3: " in capsys.readouterr().err


def test_cli_fit_empty_series_is_data_error(tmp_path, capsys):
    header_only = tmp_path / "empty.csv"
    header_only.write_text("t,n\n")
    zero_epochs = tmp_path / "zero.jsonl"
    run_sweep(SweepPlan(**{**SMALL_PLAN.__dict__, "depths": (2,),
                           "filters": ("any",), "epochs": 0}), zero_epochs)
    for series in (header_only, zero_epochs):
        assert main(["fit", str(series)]) == 2
        assert "empty series" in capsys.readouterr().err


def test_cli_mu_command(tmp_path, capsys):
    rules = tmp_path / "arith.rules"
    rules.write_text("(+ A 0) => A\n(* A 1) => A\n(+ 0 A) => A\n")
    assert main(["mu", str(rules), "--domain", "arith", "--depth", "2",
                 "--out", str(tmp_path / "mu")]) == 0
    assert (tmp_path / "mu_fractions.csv").exists()
    overlap = estimate_mu([r.lhs for r in load_rules(ARITH, rules)],
                          ARITH, 2).overlap
    assert 0 < overlap[0, 2] < 1
    with open(tmp_path / "mu_overlap.csv", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["i", "0", "1", "2"]
    assert [int(row[0]) for row in table[1:]] == [0, 1, 2]
    for row, want in zip(table[1:], overlap, strict=True):
        assert [float(c) for c in row[1:]] == pytest.approx(want.tolist(),
                                                            rel=1e-9)


def test_cli_mu_space_sums_distinct_sorts(tmp_path, capsys):
    rules = tmp_path / "list.rules"
    rules.write_text("(length (append A B)) => (length (append B A))\n"
                     "(reverse (reverse A)) => A\n(+ A 0) => A\n")
    assert main(["mu", str(rules), "--domain", "list", "--depth", "2"]) == 0
    assert "(space 240)" in capsys.readouterr().out   # 171 Int + 69 IntList


MU_RULES = {"arith": "(+ A 0) => A\n(* A (+ B A)) => (+ (* A B) (* A A))\n",
            "bool": "(and A 1) => A\n(or A (not A)) => 1\n",
            "list": "(reverse (reverse C)) => C\n(length (map F C)) => (length C)\n"}


@pytest.mark.parametrize("domain", sorted(MU_RULES))
@pytest.mark.parametrize("depth", [4, 5])
def test_cli_mu_counts_beyond_the_enumeration_cap(tmp_path, capsys, domain, depth):
    rules = tmp_path / f"{domain}.rules"
    rules.write_text(MU_RULES[domain])
    assert main(["mu", str(rules), "--domain", domain, "--depth", str(depth)]) == 0
    assert f"over 2 rules at depth {depth}" in capsys.readouterr().out


def test_cli_mu_refuses_a_count_past_the_bit_cap(tmp_path, capsys):
    rules = tmp_path / "arith.rules"
    rules.write_text(MU_RULES["arith"])
    argv = ["mu", str(rules), "--domain", "arith", "--depth"]
    assert main(argv + ["9"]) == 0   # 932-bit space
    assert "over 2 rules at depth 9" in capsys.readouterr().out
    for depth in ("10", "50", "2000"):
        assert main(argv + [depth]) == 2
        assert f"depth {depth} too large" in capsys.readouterr().err


def test_cli_mu_subterm_positions_past_the_cap_is_data_error(tmp_path, capsys):
    rules = tmp_path / "arith.rules"
    rules.write_text(MU_RULES["arith"])
    argv = ["mu", str(rules), "--domain", "arith", "--depth", "4"]
    assert main(argv + ["--subterm-positions"]) == 2
    assert "enumeration too large" in capsys.readouterr().err
