"""CLI exit codes: 0 success, 2 invalid input, 3 divergence, 4 verification failure."""

import numpy as np

from splitcl import cli, harness
from splitcl.scenario import MeasurementWindow, Scenario


def test_verify_table1_passes(capsys):
    assert cli.main(["verify", "--scenario", "table1"]) == cli.EXIT_OK
    assert "OK: both checks within 1.0e-08" in capsys.readouterr().out


def test_verify_negative_control_fails(capsys):
    assert cli.main(["verify", "--scenario", "table1", "--corrupt-cross-sign"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL [exact]" in out and "FAIL [dropout]" in out


def test_verify_missing_scenario_file_is_invalid_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["verify", "--scenario", str(missing)]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


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
