"""Monte-Carlo aggregation in the harness."""

import math

import numpy as np
import pytest

from splitcl import harness
from splitcl.scenario import MeasurementWindow, Scenario, ScenarioError

ESTIMATORS = (harness.DR, harness.JOINT_EKF, harness.SA_SPLIT)


def loop_nees(rec: harness.RunRecord, name: str) -> np.ndarray:
    """NEES per robot and step, one ``e' P^-1 e`` solve at a time."""
    n, t1 = rec.estimates[name].shape[:2]
    out = np.empty((n, t1))
    for r in range(n):
        for k in range(t1):
            e = rec.estimates[name][r, k] - rec.truth[r, k]
            e[2] = np.arctan2(np.sin(e[2]), np.cos(e[2]))
            out[r, k] = e @ np.linalg.solve(rec.covs[name][r, k], e)
    return out


def test_nees_mean_matches_a_per_step_loop_and_skips_flagged_runs(monkeypatch):
    sc = Scenario(duration_s=5.0, meas_windows=(MeasurementWindow(1.0, 3.0, 1, 2),))
    original = harness.run_once
    records = {}

    def recording_run_once(*args, **kwargs):
        rec = original(*args, **kwargs)
        m = kwargs["seed"][1]
        if m == 1:
            rec.estimates[harness.SA_SPLIT][:] = np.nan
            rec.flagged[harness.SA_SPLIT] = True
        records[m] = rec
        return rec

    monkeypatch.setattr(harness, "run_once", recording_run_once)
    report = harness.run_monte_carlo(sc, 3, ESTIMATORS, seed=4)

    assert set(report.nees_mean) == {harness.JOINT_EKF, harness.SA_SPLIT}
    kept = {harness.JOINT_EKF: (0, 1, 2), harness.SA_SPLIT: (0, 2)}
    for name, runs in kept.items():
        want = sum(loop_nees(records[m], name) for m in runs) / len(runs)
        np.testing.assert_allclose(report.nees_mean[name], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("sc, message", [
    (Scenario(n_robots=1025, duration_s=1.0), "at most 1024"),
    (Scenario(dt_s=math.nan), "non-finite"),
    (Scenario(n_robots=0), "at least 1"),
], ids=["too-many", "dt-nan", "no-robots"])
def test_monte_carlo_refuses_a_bad_scenario_before_simulating(sc, message, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate_truth", lambda *args: calls.append(args))
    with pytest.raises(ScenarioError, match=message):
        harness.run_monte_carlo(sc, 1, ESTIMATORS)
    assert not calls
