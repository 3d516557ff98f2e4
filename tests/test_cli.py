"""CLI exit codes: 0 success, 2 invalid input, 3 divergence, 4 verification failure."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from splitcl import cli, harness, joint_ekf, verify
from splitcl.linalg import NumericalError
from splitcl.protocol import EVENT_NUMERIC_S
from splitcl.scenario import MeasurementWindow, Scenario, build_table1_scenario


def test_verify_table1_passes(capsys):
    assert cli.main(["verify", "--scenario", "table1"]) == cli.EXIT_OK
    assert "OK: both checks within 1.0e-08" in capsys.readouterr().out


def test_verify_negative_control_fails(capsys):
    assert cli.main(["verify", "--scenario", "table1", "--corrupt-cross-sign"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL [exact]" in out and "FAIL [dropout]" in out


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "splitcl", "verify", "--scenario", "table1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert "OK: both checks within 1.0e-08" in done.stdout


def test_verify_simulates_the_truth_once(tmp_path, monkeypatch, capsys):
    sc = Scenario(duration_s=10.0, meas_windows=(MeasurementWindow(2.0, 4.0, 1, 2),))
    path = tmp_path / "small.json"
    sc.save(path)
    original = harness.simulate_truth
    calls = []

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(harness, "simulate_truth", counting)
    assert cli.main(["verify", "--scenario", str(path)]) == cli.EXIT_OK
    assert len(calls) == 1
    assert "OK: both checks" in capsys.readouterr().out


def test_verify_logs_a_numerical_error_in_the_joint_filter(monkeypatch, capsys):
    # The first centralized update of the run fails and is skipped, so the
    # exact check fails instead of raising.
    original = joint_ekf.partial_update
    failed = []

    def failing_once(*args, **kwargs):
        if not failed:
            failed.append(True)
            raise NumericalError("innovation covariance is not positive definite")
        return original(*args, **kwargs)

    reports = []
    check = verify.check_exact_equivalence

    def recording_check(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(joint_ekf, "partial_update", failing_once)
    monkeypatch.setattr(verify, "check_exact_equivalence", recording_check)
    assert cli.main(["verify", "--scenario", "table1"]) == cli.EXIT_VERIFY
    assert "FAIL [exact]" in capsys.readouterr().out
    numeric = [ev.detail for ev in reports[0].events if ev.code == EVENT_NUMERIC_S]
    assert len(numeric) == 1 and numeric[0].startswith("estimator=joint_ekf ")


def test_verify_missing_scenario_file_is_invalid_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["verify", "--scenario", str(missing)]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "{dir}", "--out", "{dir}/out"],
    ["verify", "--scenario", "{dir}"],
    ["scenario-gen", "table1", "--out", "{dir}"],
    ["scenario-gen", "table1", "--out", "{file}/x.json"],
    ["run", "--scenario", "table1", "--out", "{file}"],
    ["run", "--scenario", "table1", "--mc", "1", "--estimators", "dr", "--out", "{dir}/busy"],
    ["run", "--scenario", "table1", "--mc", "1", "--estimators", "dr", "--out", "{dir}/busy2"],
], ids=["run-scenario-dir", "verify-scenario-dir", "gen-out-dir", "gen-out-under-file",
        "run-out-file", "run-metrics-file-dir", "run-events-file-dir"])
def test_unusable_path_is_invalid_input(argv, tmp_path, capsys, monkeypatch):
    # A directory where a file belongs, or a file where a directory belongs.
    (tmp_path / "file").write_text("")
    (tmp_path / "busy" / "metrics.csv").mkdir(parents=True)
    (tmp_path / "busy2" / "events.log").mkdir(parents=True)
    # Refused before the run, not after it.
    monkeypatch.setattr(harness, "run_monte_carlo", None)
    argv = [arg.format(dir=tmp_path, file=tmp_path / "file") for arg in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()
    assert [p.name for p in (tmp_path / "busy").iterdir()] == ["metrics.csv"]
    assert [p.name for p in (tmp_path / "busy2").iterdir()] == ["events.log"]


@pytest.mark.parametrize("writer", ["export_metrics", "write_event_log"])
def test_output_write_failure_is_invalid_input(writer, tmp_path, capsys, monkeypatch):
    # An output file that fails to be written after the run, as a full disk
    # would, ends as a one-line error and exit 2, not a traceback.
    def failing(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(harness, writer, failing)
    argv = ["run", "--scenario", "table1", "--mc", "1", "--estimators", "dr",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_a_repeated_estimator_is_run_and_printed_once(tmp_path, capsys):
    argv = ["run", "--scenario", "table1", "--mc", "1", "--estimators", "dr,dr",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "runs: 1, estimators: dr\n" in out
    assert out.count("final RMS [dr]") == 1
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == "time_s,robot,rms_dr"


@pytest.mark.parametrize("text, names", [
    ("dr,bogus", ["dr", "bogus"]),
    (",", []),
], ids=["unknown", "empty"])
def test_bad_estimator_list_is_invalid_input(text, names, tmp_path, capsys):
    # The CLI refuses the list with the library's own check and wording.
    with pytest.raises(ValueError) as refused:
        harness._wanted(names)
    out_dir = tmp_path / "out"
    argv = ["run", "--scenario", "table1", "--estimators", text, "--out", str(out_dir)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert not out_dir.exists()


def test_run_without_monte_carlo_runs_is_invalid_input(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["run", "--scenario", "table1", "--mc", "0", "--out", str(out_dir)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "error: --mc must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_verify_negative_seed_is_invalid_input(capsys):
    assert cli.main(["verify", "--scenario", "table1", "--seed", "-1"]) == cli.EXIT_USAGE
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err


def test_run_negative_seed_is_invalid_input(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["run", "--scenario", "table1", "--seed", "-1", "--out", str(out_dir)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["scenario-gen", "random", "--seed", "-1", "--out", "out/x.json"],
     "seed must be non-negative, got -1"),
    (["scenario-gen", "random", "--robots", "100000000", "--out", "out/x.json"],
     "n_robots must be at most 1024, got 100000000"),
    (["verify", "--scenario", "table1", "--tol", "nan"], "--tol must be finite and positive"),
    (["verify", "--scenario", "table1", "--tol", "-1"], "--tol must be finite and positive"),
    (["run", "--scenario", "table1", "--jobs", "0", "--out", "out"],
     "--jobs must be at least 1, got 0"),
    (["run", "--scenario", "table1", "--jobs", "-2", "--out", "out"],
     "--jobs must be at least 1, got -2"),
], ids=["gen-seed", "gen-robots", "tol-nan", "tol-negative", "jobs-zero", "jobs-negative"])
def test_out_of_range_argument_is_invalid_input(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_table1_template_ignores_seed_and_team_size(tmp_path):
    # --seed and --robots shape the random template only.
    out = tmp_path / "table1.json"
    argv = ["scenario-gen", "table1", "--seed", "-1", "--robots", "7", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert Scenario.load(out) == build_table1_scenario()


def test_non_finite_scenario_is_invalid_input(tmp_path, capsys):
    # Written by hand: a scenario holding a NaN cannot be built, so not saved.
    doc = {**Scenario().to_dict(), "meas_noise_std": math.nan}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    out_dir = tmp_path / "out"
    argv = ["run", "--scenario", str(path), "--out", str(out_dir)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert not out_dir.exists()
    assert cli.main(["verify", "--scenario", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error: non-finite values in ['meas_noise_std']") == 2


def test_oversized_team_is_invalid_input(tmp_path, capsys):
    # Refused from the team size alone, before any per-robot data is built.
    doc = Scenario().to_dict()
    doc["n_robots"] = 100_000_000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_dir)]) == cli.EXIT_USAGE
    assert not out_dir.exists()
    assert cli.main(["verify", "--scenario", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error: n_robots must be at most 1024, got 100000000") == 2


def test_fractional_team_size_is_invalid_input(tmp_path, capsys):
    doc = Scenario().to_dict()
    doc["n_robots"] = 4.9
    path = tmp_path / "fraction.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_dir)]) == cli.EXIT_USAGE
    assert not out_dir.exists()
    assert cli.main(["verify", "--scenario", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error: n_robots must be an integer, got 4.9") == 2


def test_boolean_step_length_is_invalid_input(tmp_path, capsys):
    doc = Scenario().to_dict()
    doc["dt_s"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_dir)]) == cli.EXIT_USAGE
    assert not out_dir.exists()
    assert cli.main(["verify", "--scenario", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error: dt_s must be a number, got True") == 2


@pytest.mark.parametrize("edit, message", [
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"path": {**Scenario().to_dict()["path"], "center": [0.0, 0.0, 0.0]}},
     "path.center must have 2 entries, got 3"),
    ({"initial_cov_diag": [0.0025, 0.0025]}, "initial_cov_diag must have 3 entries, got 2"),
    ({"meas_windows": [[1.0, 2.0, 1, 2, 3]]}, "meas_windows rows must have 4 entries"),
], ids=["seed-negative", "center-3", "cov-2", "window-5"])
def test_scenario_of_the_wrong_sign_or_width_is_invalid_input(edit, message, tmp_path, capsys):
    # These loaded before and ended in a traceback deep in the run.
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({**Scenario().to_dict(), **edit}))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out_dir)]) == cli.EXIT_USAGE
    assert not out_dir.exists()
    assert cli.main(["verify", "--scenario", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.count(f"error: {message}") == 2


def test_run_reports_a_diverged_estimator(tmp_path, monkeypatch, capsys):
    sc = Scenario(duration_s=10.0, meas_windows=(MeasurementWindow(2.0, 4.0, 1, 2),))
    path = tmp_path / "small.json"
    sc.save(path)
    original = harness.run_once

    def diverging_run_once(*args, **kwargs):
        # The split filter blows up in the first of the two runs.
        rec = original(*args, **kwargs)
        if kwargs["seed"][1] == 0:
            rec.estimates[harness.SA_SPLIT][:] = np.nan
            rec.flagged[harness.SA_SPLIT] = True
        return rec

    monkeypatch.setattr(harness, "run_once", diverging_run_once)
    argv = ["run", "--scenario", str(path), "--mc", "2", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_DIVERGED
    assert f"diverged runs: {{'{harness.SA_SPLIT}': 1}}" in capsys.readouterr().err
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_run_with_every_run_of_an_estimator_flagged(tmp_path, monkeypatch, capsys):
    sc = Scenario(duration_s=10.0, meas_windows=(MeasurementWindow(2.0, 4.0, 1, 2),))
    path = tmp_path / "small.json"
    sc.save(path)
    original = harness.run_once

    def diverging_run_once(*args, **kwargs):
        rec = original(*args, **kwargs)
        rec.estimates[harness.SA_SPLIT][:] = np.nan
        rec.flagged[harness.SA_SPLIT] = True
        return rec

    monkeypatch.setattr(harness, "run_once", diverging_run_once)
    out_dir = tmp_path / "out"
    argv = ["run", "--scenario", str(path), "--mc", "2", "--out", str(out_dir)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == cli.EXIT_DIVERGED
    captured = capsys.readouterr()
    assert f"final RMS [{harness.SA_SPLIT}] none: all 2 runs were flagged" in captured.out
    assert "nan m" not in captured.out
    assert f"diverged runs: {{'{harness.SA_SPLIT}': 2}}" in captured.err
    with (out_dir / "metrics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * (sc.n_steps + 1)
    assert {row[f"rms_{harness.SA_SPLIT}"] for row in rows} == {"nan"}
    assert all(float(row[f"rms_{harness.DR}"]) >= 0.0 for row in rows)


def test_metrics_file_is_byte_identical_for_a_fixed_seed(tmp_path):
    argv = ["run", "--scenario", "table1", "--mc", "2", "--seed", "5"]
    files = []
    for name, extra in (("a", []), ("b", []), ("jobs", ["--jobs", "2"])):
        out_dir = tmp_path / name
        assert cli.main(argv + extra + ["--out", str(out_dir)]) == cli.EXIT_OK
        files.append(tuple((out_dir / f).read_bytes() for f in ("metrics.csv", "events.log")))
    assert files[0] == files[1] == files[2]
    metrics, events = files[0]
    assert len(metrics.splitlines()) == 1 + 4 * 3001
    assert events.count(b"PAIR_UNREACHABLE") == len(events.splitlines()) == 10
