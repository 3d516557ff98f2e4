"""Monte-Carlo aggregation and the split filter's measurement epoch in the harness."""

import concurrent.futures
import math
from itertools import islice

import numpy as np
import pytest

from splitcl import harness, joint_ekf, scenario, split_ekf, verify
from splitcl.linalg import NumericalError
from splitcl.messages import LandmarkMessage, UpdateMessage
from splitcl.protocol import EVENT_NUMERIC_S, EVENT_PAIR_UNREACHABLE, CooperationServer, RobotNode
from splitcl.scenario import (
    MeasurementWindow,
    Scenario,
    ScenarioError,
    build_table1_scenario,
    random_scenario,
    strip_dropouts,
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


@pytest.mark.parametrize("sc, seed", [
    (build_table1_scenario(), 2),
    (random_scenario(8, 5, bernoulli_p=0.3), 5),
], ids=["table1", "random8"])
def test_position_error_is_the_norm_of_the_position_difference(sc, seed):
    rec = harness.run_once(sc, harness.ALL_ESTIMATORS, seed=seed)
    for name in harness.ALL_ESTIMATORS:
        diff = rec.estimates[name][:, :, :2] - rec.truth[:, :, :2]
        np.testing.assert_array_equal(rec.position_error(name), np.linalg.norm(diff, axis=2))


@pytest.mark.parametrize("jobs, n_runs, want_workers", [
    (1, 3, None), (2, 3, 2), (64, 3, 3), (64, 1, None),
], ids=["serial", "fewer-jobs", "more-jobs", "one-run"])
def test_monte_carlo_pool_has_no_more_workers_than_runs(jobs, n_runs, want_workers, monkeypatch):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    sc = Scenario(duration_s=2.0, meas_windows=(MeasurementWindow(0.5, 1.5, 1, 2),))
    report = harness.run_monte_carlo(sc, n_runs, ESTIMATORS, seed=4, jobs=jobs)
    serial = harness.run_monte_carlo(sc, n_runs, ESTIMATORS, seed=4)

    assert pools == ([] if want_workers is None else [want_workers])
    for name in ESTIMATORS:
        np.testing.assert_array_equal(report.per_run_pos_err[name], serial.per_run_pos_err[name])
        np.testing.assert_array_equal(report.rms_pos[name], serial.rms_pos[name])
    assert report.events == serial.events


def test_a_real_pool_gives_the_serial_report_bit_for_bit():
    sc = build_table1_scenario()
    pooled = harness.run_monte_carlo(sc, 3, harness.ALL_ESTIMATORS, seed=4, jobs=2)
    serial = harness.run_monte_carlo(sc, 3, harness.ALL_ESTIMATORS, seed=4, jobs=1)
    for field in ("per_run_pos_err", "rms_pos", "nees_mean"):
        want = getattr(serial, field)
        assert getattr(pooled, field).keys() == want.keys(), field
        for name, value in want.items():
            np.testing.assert_array_equal(getattr(pooled, field)[name], value, err_msg=field)
    assert pooled.runs_flagged == serial.runs_flagged
    assert pooled.events == serial.events


@pytest.mark.parametrize("sc, seed", [
    (build_table1_scenario(), 2),
    (random_scenario(8, 5, bernoulli_p=0.3), 6),
], ids=["table1", "random8"])
def test_each_run_of_a_batch_is_that_run_alone(sc, seed):
    # Run m of a batch uses seed key (*base, m): a batch is a prefix of any
    # larger one, and each of its runs can be replayed alone.
    n_runs = 5
    report = harness.run_monte_carlo(sc, n_runs, harness.ALL_ESTIMATORS, seed=seed)
    events = []
    for m in range(n_runs):
        alone = harness.run_once(sc, harness.ALL_ESTIMATORS, seed=(seed, m))
        for name in harness.ALL_ESTIMATORS:
            want = alone.position_error(name)
            if alone.flagged[name]:
                want = np.full_like(want, np.nan)
            np.testing.assert_array_equal(report.per_run_pos_err[name][m], want,
                                          err_msg=f"run {m} {name}")
        events += [(m, ev) for ev in alone.events]
    # Each run's events, as in that run alone, in run order.
    assert report.events == events


@pytest.mark.parametrize("estimators, message", [
    ([], "at least one estimator must be requested"),
    ([harness.DR, "dr2", harness.DR], r"unknown estimators \['dr2'\]; choose from"),
], ids=["none", "unknown"])
def test_bad_estimators_are_refused_before_a_pool_starts(estimators, message, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    sc = Scenario(duration_s=2.0)
    with pytest.raises(ValueError, match=message):
        harness.run_monte_carlo(sc, 2, estimators, jobs=2)
    with pytest.raises(ValueError, match=message):
        harness.run_once(sc, estimators)


@pytest.mark.parametrize("jobs", [0, -3])
def test_monte_carlo_refuses_fewer_than_one_job_before_simulating(jobs, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate_truth", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        harness.run_monte_carlo(Scenario(duration_s=2.0), 2, ESTIMATORS, jobs=jobs)
    assert not calls


@pytest.mark.parametrize("n_runs, jobs, message", [
    (2.0, 1, "n_runs must be an integer, got 2.0"),
    (True, 1, "n_runs must be an integer, got True"),
    ("2", 1, "n_runs must be an integer, got '2'"),
    (2, 1.5, "jobs must be an integer, got 1.5"),
    (2, False, "jobs must be an integer, got False"),
    (0, 2, "n_runs must be at least 1, got 0"),
], ids=["float-runs", "bool-runs", "string-runs", "float-jobs", "bool-jobs", "no-runs"])
def test_monte_carlo_refuses_a_non_integer_count_before_simulating(n_runs, jobs, message,
                                                                     monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "simulate_truth", lambda *args: calls.append(args))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=rf"^{message}$"):
        harness.run_monte_carlo(Scenario(duration_s=2.0), n_runs, ESTIMATORS, jobs=jobs)
    assert not calls


def test_monte_carlo_takes_numpy_integer_counts():
    sc = Scenario(duration_s=2.0)
    report = harness.run_monte_carlo(sc, np.int64(2), [harness.DR], jobs=np.int64(1))
    assert report.runs_total == 2
    want = harness.run_monte_carlo(sc, 2, [harness.DR])
    assert np.array_equal(report.rms_pos[harness.DR], want.rms_pos[harness.DR])


@pytest.mark.parametrize("fields, message", [
    ({"n_robots": 1025, "duration_s": 1.0}, "at most 1024"),
    ({"dt_s": math.nan}, "non-finite"),
    ({"n_robots": 0}, "at least 1"),
], ids=["too-many", "dt-nan", "no-robots"])
def test_monte_carlo_refuses_a_bad_scenario_before_simulating(fields, message, monkeypatch):
    # The scenario refuses itself when it is built, so no run can start.
    calls = []
    monkeypatch.setattr(harness, "simulate_truth", lambda *args: calls.append(args))
    with pytest.raises(ScenarioError, match=message):
        harness.run_monte_carlo(Scenario(**fields), 1, ESTIMATORS)
    assert not calls


@pytest.mark.parametrize("seed", [-1, (3, -1), np.int64(-1)], ids=["int", "tuple-entry", "numpy"])
def test_a_negative_seed_is_refused_in_the_scenarios_wording(seed):
    with pytest.raises(ScenarioError, match=r"^seed must be non-negative, got -1$"):
        harness.seed_key(Scenario(), seed)


@pytest.mark.parametrize("seed", [(1.5, 2.9), "12", (-0.5,), True, 1.5, np.True_],
                         ids=["fractions", "string", "negative-fraction", "bool", "float",
                              "numpy-bool"])
def test_a_non_integer_seed_is_refused_in_the_scenarios_wording(seed):
    entry = seed[0] if isinstance(seed, tuple) else seed
    with pytest.raises(ScenarioError, match=rf"^seed must be an integer, got {entry!r}$"):
        harness.seed_key(Scenario(), seed)


def test_numpy_integer_seeds_read_as_ints():
    key = harness.seed_key(Scenario(), (np.int64(3), np.uint8(4), 5))
    assert key == (3, 4, 5) and all(type(s) is int for s in key)
    assert harness.seed_key(Scenario(), [np.int32(7)]) == (7,)


@pytest.mark.parametrize("entry", [
    lambda sc, seed: harness.run_once(sc, ESTIMATORS, seed=seed),
    lambda sc, seed: harness.run_monte_carlo(sc, 2, ESTIMATORS, seed=seed, jobs=2),
    lambda sc, seed: verify.check_exact_equivalence(sc, seed=seed),
    lambda sc, seed: verify.check_dropout_equivalence(sc, seed=seed),
], ids=["run_once", "run_monte_carlo", "exact", "dropout"])
def test_every_entry_refuses_a_negative_seed_before_simulating(entry, monkeypatch):
    # A non-integer seed is refused at the same point, in the scenario's wording.
    calls = []
    for module, name in ((harness, "simulate_truth"), (harness, "build_realization"),
                         (verify, "build_realization"),
                         (concurrent.futures, "ProcessPoolExecutor")):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args))
    for seed, message in ((-1, "seed must be non-negative, got -1"),
                          (1.5, "seed must be an integer, got 1.5")):
        with pytest.raises(ScenarioError, match=rf"^{message}$"):
            entry(Scenario(duration_s=2.0), seed)
    assert not calls


def test_a_non_finite_frame_is_dropped_with_an_event(monkeypatch):
    # The frame for robot 2 arrives with a NaN whitened residual: robot 2
    # keeps its propagated rows and the epoch logs why; robot 1 still
    # applies its own frame.
    sc = Scenario(duration_s=5.0, meas_windows=(MeasurementWindow(1.0, 3.0, 1, 2),))
    key = harness.seed_key(sc, 3)
    real = harness.build_realization(sc, key)
    k = min(real.measurements)
    start = split_ekf.SplitTeamState.initialize(sc.robot_ids, real.init_means, sc.initial_cov())
    # The segment's end as split_steps gets it: a copy the epoch corrects.
    (means, covs, _), team = split_ekf.propagate_team(
        start, real.controls_meas[:, :k], real.filter_q[:, :k], sc.dt_s
    )
    server = CooperationServer(sc.robot_ids, sc.meas_noise_cov())
    handle_epoch = server.handle_epoch

    def corrupting(msgs, time, missed=frozenset()):
        updates = handle_epoch(msgs, time, missed)
        sent = updates[2]
        residual = (np.nan, *sent.residual_payload[1:])
        updates[2] = UpdateMessage(2, sent.time, sent.kind, residual, sent.gain_payload)
        return updates

    monkeypatch.setattr(server, "handle_epoch", corrupting)
    events = []
    assert harness._run_split_epoch(
        team, server, real.measurements[k], harness.delivery_reports(sc, real, key)[k], events
    ) is None

    assert [e.as_line() for e in events] == [
        f"t={k} {EVENT_NUMERIC_S} robot=2 reason=update for robot 2 has a non-finite payload"
    ]
    # The team passed in is corrected in place: robot 1's rows moved, robot
    # 2's are still the block's last step.
    for got, propagated in ((team.mean, means[:, -1]), (team.cov, covs[-1])):
        np.testing.assert_array_equal(got[1], propagated[1])
        assert not np.array_equal(got[0], propagated[0])
    assert np.isfinite(team.mean).all() and np.isfinite(team.cov).all()


def test_every_landmark_frame_comes_from_a_robot_node(monkeypatch):
    # The frames the split filters put on the wire are the messages their
    # robots' nodes snapshot, each encoded once; none is built beside them.
    snapshot, encode = RobotNode.landmark_message, LandmarkMessage.encode
    made, encoded = [], []

    def recording_snapshot(self, *args):
        made.append(snapshot(self, *args))
        return made[-1]

    def recording_encode(self):
        encoded.append(self)
        return encode(self)

    monkeypatch.setattr(RobotNode, "landmark_message", recording_snapshot)
    monkeypatch.setattr(LandmarkMessage, "encode", recording_encode)
    harness.run_once(build_table1_scenario(), [harness.SA_SPLIT, harness.SA_SPLIT_DROPOUT])

    assert len(made) == len(encoded) > 0
    assert all(sent is node_made for sent, node_made in zip(encoded, made))


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


def test_the_filters_of_one_kind_of_link_read_one_channel(monkeypatch):
    # Both filters of a kind of link read one dict with a report at every
    # epoch; the perfect links are the channel of the lossless scenario.
    sc, seed = build_table1_scenario(), 3
    split_steps, joint_steps = harness.split_steps, harness.joint_steps
    read = {}

    def recording_split(sc, real, lanes):
        read[harness.SA_SPLIT], read[harness.SA_SPLIT_DROPOUT] = (lane[0] for lane in lanes)
        return split_steps(sc, real, lanes)

    def recording_joint(sc, real, reports, events, name):
        read[name] = reports
        return joint_steps(sc, real, reports, events, name)

    monkeypatch.setattr(harness, "split_steps", recording_split)
    monkeypatch.setattr(harness, "joint_steps", recording_joint)
    harness.run_once(sc, harness.ALL_ESTIMATORS, seed=seed)

    assert read[harness.SA_SPLIT] is read[harness.JOINT_EKF]
    assert read[harness.SA_SPLIT_DROPOUT] is read[harness.PARTIAL_ORACLE]
    key = harness.seed_key(sc, seed)
    real = harness.build_realization(sc, key)
    for name in harness.ALL_ESTIMATORS[1:]:
        assert read[name].keys() == real.measurements.keys(), name
    assert read[harness.SA_SPLIT] == harness.delivery_reports(strip_dropouts(sc), real, key)
    assert not any(report.missed for report in read[harness.SA_SPLIT].values())
    assert read[harness.SA_SPLIT_DROPOUT] == harness.delivery_reports(sc, real, key)


@pytest.mark.parametrize("estimators, stripped", [
    ([harness.SA_SPLIT_DROPOUT], 0),
    ([harness.SA_SPLIT], 1),
    ([harness.JOINT_EKF, harness.SA_SPLIT, harness.SA_SPLIT_DROPOUT], 1),
], ids=["lossy-links-only", "perfect-links-only", "both"])
def test_the_perfect_links_scenario_is_built_only_for_its_filters(
    estimators, stripped, monkeypatch
):
    sc, calls = build_table1_scenario(), []
    original = scenario.strip_dropouts

    def counting(sc):
        calls.append(sc)
        return original(sc)

    monkeypatch.setattr(scenario, "strip_dropouts", counting)
    harness.run_once(sc, estimators, seed=3)
    assert len(calls) == stripped


def test_a_lane_correction_stays_in_its_own_rows(monkeypatch):
    # Every robot of the dropout lane is moved at each epoch with a missed
    # robot; the perfect-link lane, whose epochs miss no one, runs as alone.
    sc, seed = LANE_CASES["random8"]
    names = (harness.SA_SPLIT_DROPOUT, harness.SA_SPLIT)
    clean = harness.run_once(sc, names, seed=seed)
    original = harness._run_split_epoch

    def moving_the_lossy_lane(team, server, measurements, report, events):
        original(team, server, measurements, report, events)
        if report.missed:
            team.mean += 1e-3

    monkeypatch.setattr(harness, "_run_split_epoch", moving_the_lossy_lane)
    rec = harness.run_once(sc, names, seed=seed)
    assert run_alone(rec, sc, seed, harness.SA_SPLIT) == []  # perfect links log nothing
    assert rec.events == clean.events
    moved = rec.estimates[harness.SA_SPLIT_DROPOUT] - clean.estimates[harness.SA_SPLIT_DROPOUT]
    assert np.abs(moved).max() > 1e-4


def test_a_split_filter_logs_in_time_order(monkeypatch):
    # Table1's server refuses a measurement at its first epoch, and robot 3
    # a correction at a later one: the run's log and verify's list the
    # server's event first.
    sc, seed = build_table1_scenario(), 3
    innovation, apply_update = split_ekf.innovation, RobotNode.apply_update
    handle_epoch, epoch = CooperationServer.handle_epoch, []

    def at_epoch(server, msgs, time, *args, **kwargs):
        epoch[:] = [time]
        return handle_epoch(server, msgs, time, *args, **kwargs)

    def failing_at_460(rows, observer, *args):
        if epoch == [460] and observer == 1:
            raise NumericalError("planted")
        return innovation(rows, observer, *args)

    def rejecting_at_2260(node, msg):
        if msg.time == 2260 and msg.recipient == 3:
            raise NumericalError("planted")
        return apply_update(node, msg)

    monkeypatch.setattr(CooperationServer, "handle_epoch", at_epoch)
    monkeypatch.setattr(split_ekf, "innovation", failing_at_460)
    monkeypatch.setattr(RobotNode, "apply_update", rejecting_at_2260)
    rec = harness.run_once(sc, [harness.SA_SPLIT], seed=seed)
    report = verify.check_exact_equivalence(sc, seed=seed)
    for events in (rec.events, report.events):
        assert [(ev.time, ev.detail.split()[0]) for ev in events] == [
            (460, "observer=1"), (2260, "robot=3")
        ]


def test_without_noise_dead_reckoning_is_the_truth_and_the_filters_get_the_floor():
    # The floor is the filters' alone: it adds no noise to the run.
    sc = Scenario(duration_s=20.0, v_noise_frac=(0.0,) * 4, w_noise_frac=(0.0,) * 4,
                  perturb_initial=False)
    real = harness.build_realization(sc, harness.seed_key(sc, 3))
    assert np.array_equal(real.controls_meas, scenario.true_controls(sc))
    assert (real.filter_q == scenario.PROCESS_NOISE_FLOOR).all()
    rec = harness.run_once(sc, [harness.DR], seed=3)
    assert np.array_equal(rec.estimates[harness.DR], rec.truth)


def test_the_filters_variances_are_the_injected_ones_floored():
    sc = build_table1_scenario()
    controls = scenario.true_controls(sc)
    injected = scenario.process_noise_diags(sc, controls)
    real = harness.build_realization(sc, harness.seed_key(sc, 5))
    floored = injected < scenario.PROCESS_NOISE_FLOOR
    # table1 has both: straight edges turn no noise on w, turns none on v.
    assert floored.any() and not floored.all()
    assert np.array_equal(real.filter_q, np.maximum(injected, scenario.PROCESS_NOISE_FLOOR))
    # Where no noise is injected, the measured control is the commanded one.
    assert np.array_equal(real.controls_meas[injected == 0], controls[injected == 0])


def test_a_realization_with_the_truth_passed_in_is_the_one_drawn_alone():
    sc = build_table1_scenario()
    key = harness.seed_key(sc, (2, 7))
    alone = harness.build_realization(sc, key)
    given = harness.build_realization(sc, key, truth=harness.simulate_truth(sc))
    for field in ("truth", "controls_meas", "filter_q", "init_means"):
        assert np.array_equal(getattr(alone, field), getattr(given, field)), field
    assert alone.measurements.keys() == given.measurements.keys()
    for k, ms in alone.measurements.items():
        assert [(m.observer, m.landmark, m.time, m.z.tolist()) for m in ms] == [
            (m.observer, m.landmark, m.time, m.z.tolist()) for m in given.measurements[k]
        ]


@pytest.mark.parametrize("perturb", [False, True])
def test_an_unperturbed_start_is_the_true_start(perturb):
    sc = Scenario(
        duration_s=5.0, meas_windows=(MeasurementWindow(1.0, 3.0, 1, 2),), perturb_initial=perturb
    )
    rec = harness.run_once(sc, harness.ALL_ESTIMATORS, seed=3)
    for name in harness.ALL_ESTIMATORS:
        assert np.array_equal(rec.estimates[name][:, 0], rec.truth[:, 0]) != perturb, name


def test_an_epoch_corrects_only_the_loops_own_segment_end():
    # Table1 with both split filters as lanes. Each yielded end is
    # snapshotted when it is yielded and checked once the loop is done.
    sc, seed = build_table1_scenario(), 7
    key = harness.seed_key(sc, seed)
    real = harness.build_realization(sc, key)
    ids, n = sc.robot_ids, sc.n_robots
    lanes = [(harness.delivery_reports(strip_dropouts(sc), real, key),
              CooperationServer(ids, sc.meas_noise_cov()), []),
             (harness.delivery_reports(sc, real, key),
              CooperationServer(ids, sc.meas_noise_cov()), [])]
    # The rows each epoch corrects: the recipients of an update frame that
    # the lane's channel delivers.
    corrected = {}
    for e, (reports, server, _) in enumerate(lanes):
        def recording(msgs, time, missed=frozenset(), e=e, handle=server.handle_epoch,
                      reports=reports):
            updates = handle(msgs, time, missed)
            delivered = reports[time].delivered
            rows = corrected.setdefault(time, np.zeros(2 * n, dtype=bool))
            rows[[e * n + ids.index(i) for i in updates if i in delivered]] = True
            return updates
        server.handle_epoch = recording

    controls = harness._lanes(real.controls_meas, 2)
    noise = harness._lanes(real.filter_q, 2)
    ends, snapshots = [], []
    start = split_ekf.SplitTeamState.initialize(ids, real.init_means, sc.initial_cov())
    prior = split_ekf.SplitTeamState(
        start.team, start.index,
        *(harness._lanes(x, 2).copy() for x in (start.mean, start.cov, start.jac_accum)),
    )
    for k0, k1, (means, covs, accs), end in harness.split_steps(sc, real, lanes):
        # The block's last step is the propagation of the previous end, uncorrected.
        want, _ = split_ekf.propagate_team(prior, controls[:, k0:k1], noise[:, k0:k1], sc.dt_s)
        for got, ref in zip((means, covs, accs), want):
            np.testing.assert_array_equal(got, ref)
        ends.append(end)
        snapshots.append(tuple(x.copy() for x in (end.mean, end.cov, end.jac_accum)))
        prior = split_ekf.SplitTeamState(end.team, end.index, *snapshots[-1], k1)
        rows = corrected.get(k1, np.zeros(2 * n, dtype=bool))
        # The end differs from the block's last step in the corrected rows only.
        np.testing.assert_array_equal(end.mean[~rows], means[~rows, -1])
        np.testing.assert_array_equal(end.cov[~rows], covs[-1, ~rows])
        np.testing.assert_array_equal(end.jac_accum, accs[:, -1])
        assert (end.mean[rows] != means[rows, -1]).any(axis=1).all()
        assert (end.cov[rows] != covs[-1, rows]).any(axis=(1, 2)).all()
    # The perfect-link lane corrected rows at every epoch, the dropout lane
    # fewer at some.
    assert all(rows[:n].any() for rows in corrected.values())
    assert any(rows[:n].sum() > rows[n:].sum() for rows in corrected.values())
    # No end changed after its segment.
    for end, snapshot in zip(ends, snapshots):
        for got, want in zip((end.mean, end.cov, end.jac_accum), snapshot):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("taken", [1, 256, 257, 460, 461])
def test_joint_stream_forms_each_belief_only_when_it_is_taken(monkeypatch, taken):
    # table1's first segments are steps 1..256 and 257..460, an epoch: the
    # stream forms no step ahead, across a segment's end or an epoch, so
    # its consumer holds one step's covariance at a time.
    sc = build_table1_scenario()
    key = harness.seed_key(sc, None)
    real = harness.build_realization(sc, key)
    assert min(real.measurements) == 460
    original = joint_ekf.propagate
    calls = []

    def counting_propagate(*args):
        calls.append(args[0].time + 1)
        return original(*args)

    monkeypatch.setattr(joint_ekf, "propagate", counting_propagate)
    reports = harness.delivery_reports(strip_dropouts(sc), real, key)
    stream = harness.joint_steps(sc, real, reports, [], harness.JOINT_EKF)
    times = [belief.time for belief in islice(stream, taken)]
    assert times == calls == list(range(1, taken + 1))
