"""Monte-Carlo aggregation and the split filter's measurement epoch in the harness."""

import math

import numpy as np
import pytest

from splitcl import harness, split_ekf
from splitcl.messages import UpdateMessage
from splitcl.network import perfect_report
from splitcl.protocol import EVENT_NUMERIC_S, CooperationServer
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


def test_a_non_finite_frame_is_dropped_with_an_event(monkeypatch):
    # The frame for robot 2 arrives with a NaN whitened residual: robot 2
    # keeps its propagated rows and the epoch logs why; robot 1 still
    # applies its own frame.
    sc = Scenario(duration_s=5.0, meas_windows=(MeasurementWindow(1.0, 3.0, 1, 2),))
    real = harness.build_realization(sc, harness.seed_key(sc, 3))
    k = min(real.measurements)
    start = split_ekf.SplitTeamState.initialize(sc.robot_ids, real.init_means, sc.initial_cov())
    means, covs, accs = split_ekf.propagate_team(
        start, real.controls_meas[:, :k], real.filter_q[:, :k], sc.dt_s
    )
    team = split_ekf.SplitTeamState(
        start.team, start.index, means[:, -1], covs[-1], accs[:, -1], k
    )
    propagated = split_ekf.SplitTeamState(
        team.team, team.index, team.mean.copy(), team.cov.copy(), team.jac_accum, team.time
    )
    server = CooperationServer(sc.robot_ids, sc.meas_noise_cov())
    handle_epoch = server.handle_epoch

    def corrupting(msgs, time, missed=frozenset()):
        updates = handle_epoch(msgs, time, missed)
        sent = updates[2]
        residual = sent.residual_payload.copy()
        residual[0] = np.nan
        updates[2] = UpdateMessage(2, sent.time, sent.kind, residual, sent.gain_payload)
        return updates

    monkeypatch.setattr(server, "handle_epoch", corrupting)
    events = []
    out = harness._run_split_epoch(
        team, server, real.measurements[k], perfect_report(sc.robot_ids, k), events
    )

    assert [e.as_line() for e in events] == [
        f"t={k} {EVENT_NUMERIC_S} robot=2 reason=update for robot 2 has a non-finite payload"
    ]
    for rows in ("mean", "cov"):
        np.testing.assert_array_equal(getattr(team, rows), getattr(propagated, rows))
        np.testing.assert_array_equal(getattr(out, rows)[1], getattr(propagated, rows)[1])
        assert not np.array_equal(getattr(out, rows)[0], getattr(propagated, rows)[0])
    assert np.isfinite(out.mean).all() and np.isfinite(out.cov).all()
