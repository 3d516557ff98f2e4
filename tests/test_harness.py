"""Monte-Carlo aggregation and the split filter's measurement epoch in the harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

from splitcl import harness, split_ekf
from splitcl.messages import UpdateMessage
from splitcl.network import perfect_report
from splitcl.protocol import EVENT_NUMERIC_S, EVENT_PAIR_UNREACHABLE, CooperationServer
from splitcl.scenario import (
    MeasurementWindow,
    Scenario,
    ScenarioError,
    build_table1_scenario,
    random_scenario,
)

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


# --- Split filters as lanes of one stack ----------------------------------

# Table1, and an eight-robot team on lossy links, where the two split
# filters part at the first epoch with a missed robot.
LANE_CASES = {
    "table1": (build_table1_scenario(), 7),
    "random8": (random_scenario(8, 5, bernoulli_p=0.3), 5),
}


def run_alone(rec: harness.RunRecord, sc, seed, name) -> list:
    """Check ``name``'s record in ``rec`` against its run alone, bit for
    bit, and return the events of that run."""
    alone = harness.run_once(sc, [name], seed=seed)
    np.testing.assert_array_equal(rec.estimates[name], alone.estimates[name])
    np.testing.assert_array_equal(rec.covs[name], alone.covs[name])
    assert rec.flagged[name] == alone.flagged[name]
    return alone.events


@pytest.mark.parametrize("case", LANE_CASES)
def test_each_estimator_of_a_run_is_its_run_alone(case):
    sc, seed = LANE_CASES[case]
    # The dropout lane first: lane order follows the request.
    names = (harness.SA_SPLIT_DROPOUT, harness.DR, harness.JOINT_EKF, harness.SA_SPLIT,
             harness.PARTIAL_ORACLE)
    rec = harness.run_once(sc, names, seed=seed)
    assert rec.events == [ev for name in names for ev in run_alone(rec, sc, seed, name)]
    assert any(ev.code == EVENT_PAIR_UNREACHABLE for ev in rec.events)
    assert not np.array_equal(
        rec.estimates[harness.SA_SPLIT], rec.estimates[harness.SA_SPLIT_DROPOUT]
    )


def test_a_lane_correction_stays_in_its_own_rows(monkeypatch):
    # Every robot of the dropout lane is moved at each epoch with a missed
    # robot; the perfect-link lane, whose epochs miss no one, runs as alone.
    sc, seed = LANE_CASES["random8"]
    names = (harness.SA_SPLIT_DROPOUT, harness.SA_SPLIT)
    clean = harness.run_once(sc, names, seed=seed)
    original = harness._run_split_epoch

    def moving_the_lossy_lane(team, server, measurements, report, events):
        out = original(team, server, measurements, report, events)
        if report.missed:
            out = replace(out, mean=out.mean + 1e-3)
        return out

    monkeypatch.setattr(harness, "_run_split_epoch", moving_the_lossy_lane)
    rec = harness.run_once(sc, names, seed=seed)
    assert run_alone(rec, sc, seed, harness.SA_SPLIT) == []  # perfect links log nothing
    assert rec.events == clean.events
    moved = rec.estimates[harness.SA_SPLIT_DROPOUT] - clean.estimates[harness.SA_SPLIT_DROPOUT]
    assert np.abs(moved).max() > 1e-4
