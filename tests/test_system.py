"""The paper's headline claims, end to end through the simulator.

The split protocol stack must match the centralized EKF to 1e-8 under
perfect communication, and the partial-update EKF under dropouts; the
negative control (every store update with the wrong sign) must fail both.
"""

from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from splitcl import harness, joint_ekf
from splitcl.linalg import NumericalError
from splitcl.messages import LandmarkMessage, UpdateMessage
from splitcl.network import gate_measurement
from splitcl.protocol import EVENT_NUMERIC_S, EVENT_PAIR_UNREACHABLE, CooperationServer, RobotNode
from splitcl.scenario import (
    DropoutWindowSpec,
    MeasurementWindow,
    Scenario,
    SpiralPath,
    build_table1_scenario,
    measurement_schedule,
    random_scenario,
    strip_dropouts,
)
from splitcl.verify import check_dropout_equivalence, check_exact_equivalence

TOL = 1e-8
# Table1's deviations are rounding, about 2e-14: a cancellation in the
# closed-form segment covariance would show here long before it neared TOL.
GUARD = 1e-12
CORRELATED = (1, 2, 3, 4)


def overlapping_team_scenario() -> Scenario:
    """Twelve robots; 1 and 2 measure each other in overlapping windows.

    Robots 3 and 4 do the same, and 2 -> 3 links the two pairs, so most
    epochs carry several measurements (summed update frames). With a 30%
    link loss, two correlated robots often miss an epoch in which the
    others measure, which freezes a nonzero missed x missed store block.
    """
    n = 12
    windows = (
        MeasurementWindow(1.0, 29.0, 1, 2),
        MeasurementWindow(3.0, 27.0, 2, 1),
        MeasurementWindow(1.0, 29.0, 3, 4),
        MeasurementWindow(2.0, 28.0, 4, 3),
        MeasurementWindow(8.0, 22.0, 2, 3),
    )
    return Scenario(
        n_robots=n,
        duration_s=30.0,
        v_noise_frac=tuple(0.15 + 0.01 * r for r in range(n)),
        w_noise_frac=tuple(0.25 - 0.01 * r for r in range(n)),
        meas_windows=windows,
        meas_period_s=0.5,
        bernoulli_p=0.3,
        seed=5,
    )


@pytest.fixture(scope="module")
def table1():
    return build_table1_scenario()


def test_table1_exact_equivalence(table1):
    report = check_exact_equivalence(strip_dropouts(table1))
    assert report.passed(TOL), report.summary()
    assert report.max_discrepancy() < GUARD and report.lone_steps_exact
    assert report.n_measurements > 0


def test_table1_dropout_equivalence(table1):
    report = check_dropout_equivalence(table1)
    assert report.passed(TOL), report.summary()
    assert report.max_discrepancy() < GUARD and report.lone_steps_exact
    assert report.missed_updates_exact


def test_a_dropout_zone_disconnects_a_measured_robot(table1):
    # A small zone around robot 2's true position at the first epoch, in
    # which robot 2 observes 3 and is observed by 1; robot 2 has no
    # dropout window and there is no random loss, so only the zone can
    # take it off the network.
    truth = harness.simulate_truth(table1)
    k = min(measurement_schedule(table1))
    x, y = truth[1, k, :2]
    sc = replace(table1, zones=((x - 0.01, y - 0.01, x + 0.01, y + 0.01),))
    key = (sc.seed,)
    reports = harness.delivery_reports(sc, harness.build_realization(sc, key, truth), key)
    assert reports[k].missed == {2}
    assert all(2 not in r.missed for t, r in reports.items() if t != k)

    report = check_dropout_equivalence(sc, truth=truth)
    assert report.passed(TOL), report.summary()
    unreachable = {
        (ev.time, ev.detail.split(" unreachable")[0])
        for ev in report.events if ev.code == EVENT_PAIR_UNREACHABLE
    }
    assert {(k, "observer=1 landmark=2"), (k, "observer=2 landmark=3")} <= unreachable


@pytest.mark.parametrize("seed", [7, 8])
def test_split_covariances_are_exactly_symmetric(table1, seed):
    # Table1's epochs carry several measurements, so its robots apply
    # summed corrections as well as single ones.
    rec = harness.run_once(table1, [harness.SA_SPLIT, harness.SA_SPLIT_DROPOUT], seed=seed)
    for name in (harness.SA_SPLIT, harness.SA_SPLIT_DROPOUT):
        cov = rec.covs[name]
        np.testing.assert_array_equal(cov, np.swapaxes(cov, -1, -2), err_msg=name)


def float_bits(a) -> bytes:
    """The IEEE bytes of ``a`` in row-major order, to compare floats bit for bit."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("sc, seed", [
    (build_table1_scenario(), 7),
    # Lossy links, and 5 s windows every 2 s: epochs with two measurements.
    (random_scenario(16, 3, duration_s=60.0, window_every_s=2.0, bernoulli_p=0.2), 3),
], ids=["table1", "random16"])
def test_nothing_a_robot_holds_is_lost_on_the_wire(sc, seed, monkeypatch):
    # Symmetric payloads go on the wire as their upper triangle. A robot's
    # covariance is exactly symmetric, so its frame decodes to the sender's
    # covariance bit for bit; a summed frame decodes to the upper triangle
    # of the server's payload, the only part the robot reads.
    sent = {LandmarkMessage: [], UpdateMessage: []}

    def recording(cls):
        encode = cls.encode

        def recording_encode(self):
            frame = encode(self)
            payload = self.cov if cls is LandmarkMessage else self.gain_payload
            sent[cls].append((self, np.array(payload), frame))
            return frame
        return recording_encode

    for cls in sent:
        monkeypatch.setattr(cls, "encode", recording(cls))
    harness.run_once(sc, [harness.SA_SPLIT, harness.SA_SPLIT_DROPOUT], seed=seed)

    assert sent[LandmarkMessage]
    for _, cov, frame in sent[LandmarkMessage]:
        cov = cov.reshape(3, 3)
        assert float_bits(cov) == float_bits(cov.T)
        assert float_bits(LandmarkMessage.decode(frame).cov) == float_bits(cov)
        assert type(LandmarkMessage.decode(frame).cov) is tuple
    summed = [(gain, frame) for msg, gain, frame in sent[UpdateMessage] if msg.kind == "summed"]
    assert summed
    upper = np.triu_indices(3)
    for gain, frame in summed:
        decoded = np.reshape(UpdateMessage.decode(frame).gain_payload, (3, 3))
        assert float_bits(decoded[upper]) == float_bits(gain.reshape(3, 3)[upper])


@pytest.mark.parametrize("check", [check_exact_equivalence, check_dropout_equivalence])
def test_table1_negative_control_fails(table1, check):
    report = check(table1, corrupt_cross_sign=True)
    assert not report.passed(TOL)
    assert report.max_cross_diff > 1e-3


def long_reach_table1(side: float) -> Scenario:
    """Table1 on a spiral scaled by ``side``: the robots travel ``side``
    times as far from their start as on table1."""
    return build_table1_scenario(path=SpiralPath(side0=side, growth=0.25 * side))


def test_a_tenfold_reach_keeps_both_equivalences():
    # About 5e-11 (exact) and 2e-11 (dropout) on seed 3.
    sc = long_reach_table1(10.0)
    for check in (check_exact_equivalence, check_dropout_equivalence):
        report = check(sc, seed=3)
        assert report.passed(TOL), report.summary()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 11: the split store loses precision with the square of the reach",
)
def test_a_hundredfold_reach_keeps_exact_equivalence():
    # ROADMAP item 11. The store holds A_i^-1 P_ij A_j^-T, which grows as
    # the robots' accumulated Jacobians do; at this reach the exact check
    # reads about 3.8e-7 on seed 3, 38 times the gate. (The dropout check
    # reads about 8.8e-9, too close to the gate to pin either way.)
    report = check_exact_equivalence(long_reach_table1(100.0), seed=3)
    assert report.passed(TOL), report.summary()


def test_overlapping_windows_with_link_loss_match_the_partial_update_filter():
    sc = overlapping_team_scenario()
    key = (sc.seed,)
    real = harness.build_realization(sc, key)
    reports = harness.delivery_reports(sc, real, key)
    frozen_epochs = [
        k for k, meas in real.measurements.items()
        if any(reports[k].missed.isdisjoint({m.observer, m.landmark}) for m in meas)
        and len(reports[k].missed & set(CORRELATED)) >= 2
    ]
    assert len(frozen_epochs) >= 3

    report = check_dropout_equivalence(sc)
    assert report.passed(TOL), report.summary()
    assert report.n_measurements > report.n_epochs
    assert not check_dropout_equivalence(sc, corrupt_cross_sign=True).passed(TOL)


def test_frames_go_only_to_robots_a_measurement_touches(monkeypatch):
    # Robots 5..12 of the overlapping team are never measured: they must
    # never get a frame, and at every epoch the frames must go to exactly
    # the delivered robots whose centralized gain is non-zero.
    sc = overlapping_team_scenario()
    key = (sc.seed,)
    real = harness.build_realization(sc, key)
    reports = harness.delivery_reports(sc, real, key)

    frames = defaultdict(list)
    encode = UpdateMessage.encode

    def counting_encode(self):
        frames[self.time].append(self.recipient)
        return encode(self)

    gained = defaultdict(set)
    partial_update = joint_ekf.partial_update

    def recording_update(belief, meas, noise_cov, missed):
        updated, innov = partial_update(belief, meas, noise_cov, missed)
        gained[meas.time] |= {i for i, g in zip(belief.team, innov.gains) if g.any()}
        return updated, innov

    monkeypatch.setattr(UpdateMessage, "encode", counting_encode)
    monkeypatch.setattr(joint_ekf, "partial_update", recording_update)
    server = CooperationServer(sc.robot_ids, sc.meas_noise_cov())
    # The propagated rows and the team at the end of each segment.
    ends = {
        k1: (means[:, -1], covs[-1], end)
        for _, k1, (means, covs, _), end in harness.split_steps(sc, real, [(reports, server, [])])
    }
    for _ in harness.joint_steps(sc, real, reports, [], harness.PARTIAL_ORACLE):
        pass

    untouched = [i for i in sc.robot_ids if not server.store.blocks[i - 1].any()]
    assert untouched == list(range(5, 13))
    assert frames and set(frames) <= set(real.measurements)
    rows = np.array(untouched) - 1
    for k in real.measurements:
        assert sorted(frames[k]) == sorted(gained[k] - reports[k].missed), k
        mean, cov, corrected = ends[k]
        np.testing.assert_array_equal(corrected.mean[rows], mean[rows])
        np.testing.assert_array_equal(corrected.cov[rows], cov[rows])
    assert not any(set(untouched) & set(sent) for sent in frames.values())

    assert check_exact_equivalence(strip_dropouts(sc)).passed(TOL)
    assert check_dropout_equivalence(sc).passed(TOL)


def test_numerical_error_in_the_joint_filter_skips_the_measurement(monkeypatch):
    def failing_update(*args, **kwargs):
        raise NumericalError("innovation covariance is not positive definite")

    monkeypatch.setattr(joint_ekf, "partial_update", failing_update)
    sc = Scenario(duration_s=60.0, meas_windows=(
        MeasurementWindow(10.0, 15.0, 1, 2),
        MeasurementWindow(40.0, 45.0, 3, 4),
    ))
    estimators = (harness.DR, harness.JOINT_EKF, harness.PARTIAL_ORACLE)
    rec = harness.run_once(sc, estimators, seed=3)

    n_meas = sum(len(m) for m in harness.build_realization(sc, (3,)).measurements.values())
    numeric = [ev for ev in rec.events if ev.code == EVENT_NUMERIC_S]
    assert len(numeric) == 2 * n_meas
    assert {ev.detail.split()[0] for ev in numeric} == {
        "estimator=joint_ekf", "estimator=partial_oracle"
    }
    # Every update was skipped whole: both filters only propagated.
    for name in (harness.JOINT_EKF, harness.PARTIAL_ORACLE):
        assert not rec.flagged[name]
        np.testing.assert_array_equal(rec.estimates[name], rec.estimates[harness.DR])


def test_dropout_check_and_simulator_log_the_same_unreachable_pairs(table1):
    # verify drives the simulator's own split loop, so over the same
    # channel reports both discard exactly the same measurements.
    seed = 7
    report = check_dropout_equivalence(table1, seed=seed)
    rec = harness.run_once(table1, [harness.SA_SPLIT_DROPOUT], seed=seed)

    def unreachable(events):
        return [ev.as_line() for ev in events if ev.code == EVENT_PAIR_UNREACHABLE]

    assert unreachable(report.events)
    assert unreachable(report.events) == unreachable(rec.events)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lossless_and_cut_off_links_give_the_deterministic_ends(seed):
    # With perfect links the lossy-channel estimators are their perfect
    # twins; with every robot cut off for the whole run they only dead-reckon.
    lossless = strip_dropouts(build_table1_scenario())
    rec = harness.run_once(lossless, harness.ALL_ESTIMATORS, seed=seed)
    twins = ((harness.SA_SPLIT_DROPOUT, harness.SA_SPLIT),
             (harness.PARTIAL_ORACLE, harness.JOINT_EKF))
    for lossy, perfect in twins:
        np.testing.assert_array_equal(rec.estimates[lossy], rec.estimates[perfect])
        np.testing.assert_array_equal(rec.covs[lossy], rec.covs[perfect])

    cut_off = build_table1_scenario(
        dropout_windows=tuple(DropoutWindowSpec(r, 0.0, 300.0) for r in range(1, 5))
    )
    names = (harness.DR, harness.SA_SPLIT_DROPOUT, harness.PARTIAL_ORACLE)
    rec = harness.run_once(cut_off, names, seed=seed)
    for name in names[1:]:
        np.testing.assert_array_equal(rec.estimates[name], rec.estimates[harness.DR])
    n_meas = sum(len(pairs) for pairs in measurement_schedule(cut_off).values())
    assert [ev.code for ev in rec.events] == [EVENT_PAIR_UNREACHABLE] * n_meas


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_robot_state_and_frames_do_not_grow_with_the_team(n, monkeypatch):
    # The abstract's claims at any team size: O(1) state and frames per
    # robot, a robot transmits only when a measurement involves it, and an
    # epoch without a usable measurement costs the server nothing.
    sc = random_scenario(n, 1, duration_s=20.0, window_every_s=2.0, bernoulli_p=0.2)
    key = harness.seed_key(sc, None)
    real = harness.build_realization(sc, key)
    reports = harness.delivery_reports(sc, real, key)
    senders, recipients, lengths = defaultdict(set), defaultdict(set), defaultdict(set)
    encode_landmark, encode_update = LandmarkMessage.encode, UpdateMessage.encode

    def recording_landmark(self):
        frame = encode_landmark(self)
        senders[self.time].add(self.sender)
        lengths["landmark"].add(len(frame))
        return frame

    def recording_update(self):
        frame = encode_update(self)
        recipients[self.time].add(self.recipient)
        lengths[self.kind].add(len(frame))
        return frame

    monkeypatch.setattr(LandmarkMessage, "encode", recording_landmark)
    monkeypatch.setattr(UpdateMessage, "encode", recording_update)
    server = CooperationServer(sc.robot_ids, sc.meas_noise_cov())
    store = server.store.blocks.copy()
    unusable = unreachable = 0
    for _, k1, _, end in harness.split_steps(sc, real, [(reports, server, [])]):
        if k1 not in real.measurements:
            continue
        gated = [m for m in real.measurements[k1] if gate_measurement(reports[k1], m)]
        unreachable += len(real.measurements[k1]) - len(gated)
        assert senders[k1] == {r for m in gated for r in (m.observer, m.landmark)}
        if not gated:
            unusable += 1
            assert not recipients[k1]
            np.testing.assert_array_equal(server.store.blocks, store)
        store = server.store.blocks.copy()

    assert unusable and unreachable and recipients
    assert {k for k, sent in senders.items() if sent} <= set(real.measurements)
    assert dict(lengths) == {"landmark": {122}, "single": {77}, "summed": {85}}
    for i in sc.robot_ids:
        node = RobotNode.over(end, i)
        msg = node.landmark_message()
        assert [len(x) for x in (msg.mean, msg.cov, msg.jac_accum)] == [3, 9, 2]


@st.composite
def whole_runs(draw):
    """A team of 2 to 8 robots over a 20 s run, with random spiral paths,
    noise fractions, measurement and dropout windows and link loss.

    The first two windows share their span, so each of their epochs
    carries two measurements (a summed frame for a robot in both). The
    first window's observer drops out in the first half of that span and
    the second window's landmark in the second half.
    """
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    fracs = st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n).map(tuple)
    pairs = draw(st.lists(pair, min_size=2, max_size=4))
    start = draw(st.integers(0, 14))
    end = draw(st.integers(start + 3, 20))
    spans = [(start, end)] * 2
    for _ in pairs[2:]:
        s = draw(st.integers(0, 19))
        spans.append((s, draw(st.integers(s + 1, 20))))
    mid = (start + end) / 2
    dropouts = [
        DropoutWindowSpec(pairs[0][0], float(start), mid),
        DropoutWindowSpec(pairs[1][1], mid, float(end)),
    ]
    for _ in range(draw(st.integers(0, 2))):
        s = draw(st.integers(0, 19))
        dropouts.append(DropoutWindowSpec(draw(st.integers(1, n)), float(s),
                                          float(draw(st.integers(s, 20)))))
    return Scenario(
        n_robots=n,
        duration_s=20.0,
        path=SpiralPath(
            side0=draw(st.floats(0.5, 3.0)),
            growth=draw(st.floats(0.0, 1.0)),
            edge_time_s=draw(st.sampled_from([2.0, 4.0, 8.0])),
            turn_time_s=draw(st.sampled_from([0.5, 1.0])),
        ),
        v_noise_frac=draw(fracs),
        w_noise_frac=draw(fracs),
        meas_windows=tuple(
            MeasurementWindow(float(s), float(e), a, b) for (s, e), (a, b) in zip(spans, pairs)
        ),
        meas_period_s=draw(st.sampled_from([0.5, 1.0])),
        dropout_windows=tuple(dropouts),
        bernoulli_p=draw(st.sampled_from([0.0, 0.2, 0.5])),
        seed=draw(st.integers(0, 2**16)),
    )


# Two checks of a 20 s run take about 0.1 s per example. A failing example
# is reported as drawn: shrinking it would rerun whole runs for minutes.
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[p for p in Phase if p is not Phase.shrink],
)
@given(whole_runs())
def test_random_whole_runs_match_the_centralized_filters(sc):
    truth = harness.simulate_truth(sc)
    dropout = check_dropout_equivalence(sc, truth=truth)
    assert dropout.missed_updates_exact and dropout.lone_steps_exact
    assert dropout.passed(TOL), dropout.summary()
    exact = check_exact_equivalence(strip_dropouts(sc), truth=truth)
    assert exact.passed(TOL), exact.summary()
