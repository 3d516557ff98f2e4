"""Stepping the team by segment equals stepping each robot by itself.

The reference below is the per-robot, per-step arithmetic of the pose
step, its Jacobians and the split filter's local propagation. The segment
kernel and every loop built on it must equal it bit for bit in the poses,
the accumulated Jacobians and the centralized filter. The split filter's
covariances come in closed form over a segment, which rounds differently
from the per-step recurrence: they, and what a measurement update derives
from them, are held to ``dense_oracle.ROBOTWISE_RTOL`` of each robot's
largest entry.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcl import harness, joint_ekf, model, split_ekf
from splitcl.linalg import NumericalError
from splitcl.model import ModelError
from splitcl.network import gate_measurement
from splitcl.protocol import EVENT_NUMERIC_S, CooperationServer, ProtocolEvent, RobotNode
from splitcl.scenario import Scenario, SpiralPath, build_table1_scenario
from splitcl.split_ekf import SplitTeamState

from dense_oracle import assert_robotwise_close, ref_split_segment

N_ROBOTS = 7
N_STEPS = 200
DT = 0.1
# Segments of uneven lengths, one step long among them.
SEGMENTS = list(zip([0, 1, 2, 50, 51, 137], [1, 2, 50, 51, 137, N_STEPS]))


def ref_wrap_angle(a):
    if not math.isfinite(a):
        raise ModelError(f"cannot wrap non-finite angle {a!r}")
    r = math.remainder(a, math.tau)
    return r + math.tau if r <= -math.pi else r


def ref_propagate_pose(pose, control, dt):
    if dt <= 0.0:
        raise ModelError(f"dt must be positive, got {dt}")
    x, y, theta = pose
    v, omega = control
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)
            and math.isfinite(v) and math.isfinite(omega)):
        raise ModelError("non-finite pose or control input")
    return np.array([
        x + v * dt * math.cos(theta),
        y + v * dt * math.sin(theta),
        ref_wrap_angle(theta + omega * dt),
    ])


def ref_motion_jacobians(pose, control, dt):
    theta = pose[2]
    v = control[0]
    c = math.cos(theta)
    s = math.sin(theta)
    f_jac = np.array([
        [1.0, 0.0, -v * dt * s],
        [0.0, 1.0, v * dt * c],
        [0.0, 0.0, 1.0],
    ])
    g_jac = np.array([
        [dt * c, 0.0],
        [dt * s, 0.0],
        [0.0, dt],
    ])
    return f_jac, g_jac


def ref_split_propagate(mean, cov, acc, control, noise_cov, dt):
    f_jac, g_jac = ref_motion_jacobians(mean, control, dt)
    return (
        ref_propagate_pose(mean, control, dt),
        f_jac @ cov @ f_jac.T + g_jac @ np.asarray(noise_cov, dtype=float) @ g_jac.T,
        f_jac @ acc,
    )


def ref_segment(start, controls, dt):
    """Poses, shear translations and ``G`` of ``L`` reference steps per robot."""
    n, steps = controls.shape[:2]
    poses = np.empty((n, steps + 1, 3))
    translations = np.empty((n, steps, 2))
    g_jacs = np.empty((n, steps, 3, 2))
    for a in range(n):
        poses[a, 0] = start[a]
        for k in range(steps):
            f_jac, g_jacs[a, k] = ref_motion_jacobians(poses[a, k], controls[a, k], dt)
            translations[a, k] = f_jac[:2, 2]
            poses[a, k + 1] = ref_propagate_pose(poses[a, k], controls[a, k], dt)
    return poses, translations, g_jacs


def assert_kernel_is_the_reference(start, controls, dt=DT):
    out = model.propagate_pose(start, controls, dt)
    for got, want in zip(out, ref_segment(start, controls, dt)):
        np.testing.assert_array_equal(got, want)
    return out


def assert_is_shear_of(jac_accum, products):
    """The 3x3 products of step Jacobians are exact shears, and their
    translation columns are the accumulated 2-vectors bit for bit."""
    products = np.asarray(products)
    shape = products.shape[:-2] + (1, 1)
    np.testing.assert_array_equal(products[..., :, :2], np.tile(np.eye(3)[:, :2], shape))
    np.testing.assert_array_equal(products[..., 2, 2], 1.0)
    np.testing.assert_array_equal(products[..., :2, 2], jac_accum)


def random_team(seed):
    """Start poses, covariances, controls ``(N, T, 2)`` and noise diagonals.

    Robots 1 and 2 turn fast enough that ``theta + omega dt`` often leaves
    ``(-3 pi, 3 pi)``, so both wrapping branches of the kernel run.
    """
    rng = np.random.default_rng(seed)
    means = rng.uniform(-3, 3, (N_ROBOTS, 3))
    roots = rng.standard_normal((N_ROBOTS, 3, 3)) * 0.3
    covs = roots @ roots.transpose(0, 2, 1) + 0.05 * np.eye(3)
    controls = rng.uniform(-1, 1, (N_ROBOTS, N_STEPS, 2))
    controls[:2, :, 1] *= 80.0
    q_diags = rng.uniform(1e-6, 0.05, (N_ROBOTS, N_STEPS, 2))
    return means, covs, controls, q_diags


def assert_is_segment_end(team, block, end):
    """``end`` is ``team`` advanced to ``block``'s last step, its mean and
    covariance copies that a correction changes without touching the block."""
    means, covs, accs = block
    assert end.team is team.team and end.index is team.index
    assert end.time == team.time + len(covs)
    for got, last in zip((end.mean, end.cov, end.jac_accum), (means[:, -1], covs[-1], accs[:, -1])):
        np.testing.assert_array_equal(got, last)
    kept = means.copy(), covs.copy()
    for field in (end.mean, end.cov):
        saved = field.copy()
        field[:] = np.nan
        np.testing.assert_array_equal(means, kept[0])
        np.testing.assert_array_equal(covs, kept[1])
        field[:] = saved


def team_from(means, covs):
    ids = tuple(range(1, N_ROBOTS + 1))
    team = SplitTeamState.initialize(ids, means, np.eye(3))
    team.cov[:] = covs
    return team


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_split_step_is_the_per_robot_step(seed):
    means, covs, controls, q_diags = random_team(seed)
    team = team_from(means, covs)
    ref = [(means[a], covs[a], np.eye(3)) for a in range(N_ROBOTS)]
    wrapped_far = False
    for k0, k1 in SEGMENTS:
        (means, covs, accs), end = split_ekf.propagate_team(
            team, controls[:, k0:k1], q_diags[:, k0:k1], DT
        )
        assert (means.shape, covs.shape, accs.shape) == (
            (N_ROBOTS, k1 - k0, 3), (k1 - k0, N_ROBOTS, 3, 3), (N_ROBOTS, k1 - k0, 2)
        )
        for j, k in enumerate(range(k0, k1)):
            wrapped_far |= bool(
                (np.abs(ref[0][0][2] + controls[0, k, 1] * DT) >= 3 * math.pi)
                or (np.abs(ref[1][0][2] + controls[1, k, 1] * DT) >= 3 * math.pi)
            )
            ref = [
                ref_split_propagate(*ref[a], controls[a, k], np.diag(q_diags[a, k]), DT)
                for a in range(N_ROBOTS)
            ]
            np.testing.assert_array_equal(means[:, j], [r[0] for r in ref])
            assert_robotwise_close(covs[j], [r[1] for r in ref])
            assert_is_shear_of(accs[:, j], [r[2] for r in ref])
        # The next segment starts from this one's last step.
        assert_is_segment_end(team, (means, covs, accs), end)
        assert end.time == k1
        team = end
    assert wrapped_far


def test_robot_node_step_is_the_per_robot_step():
    means, covs, controls, q_diags = random_team(3)
    for a in range(N_ROBOTS):
        node = RobotNode(a + 1, means[a], covs[a])
        mean, cov, acc = means[a], covs[a], np.eye(3)
        for k0, k1 in SEGMENTS:
            means, covs, accs = node.step(controls[a, k0:k1], q_diags[a, k0:k1], DT)
            assert (means.shape, covs.shape, accs.shape) == (
                (k1 - k0, 3), (k1 - k0, 3, 3), (k1 - k0, 2)
            )
            for j, k in enumerate(range(k0, k1)):
                mean, cov, acc = ref_split_propagate(
                    mean, cov, acc, controls[a, k], np.diag(q_diags[a, k]), DT
                )
                np.testing.assert_array_equal(means[j], mean)
                assert_robotwise_close(covs[j][None], cov[None])
                assert_is_shear_of(accs[j], acc)
            # The node keeps the last step.
            assert node.time == k1
            for got, rows in zip((node.state.mean, node.state.cov, node.state.jac_accum),
                                 (means, covs, accs)):
                np.testing.assert_array_equal(got, rows[-1:])
        assert node.time == N_STEPS


def test_trajectories_are_the_per_robot_steps():
    means, _, controls, _ = random_team(4)
    expected = np.empty((N_ROBOTS, N_STEPS + 1, 3))
    for a in range(N_ROBOTS):
        pose = means[a]
        expected[a, 0] = pose
        for k in range(N_STEPS):
            pose = ref_propagate_pose(pose, controls[a, k], DT)
            expected[a, k + 1] = pose
    np.testing.assert_array_equal(model.propagate_pose(means, controls, DT)[0], expected)
    # Truth and dead reckoning, in stretches of 13 steps.
    sc = Scenario(n_robots=N_ROBOTS, duration_s=N_STEPS * DT, dt_s=DT)
    with mock.patch.object(harness, "_SEGMENT_ROBOT_STEPS", 13 * N_ROBOTS):
        np.testing.assert_array_equal(harness._trajectories(sc, means, controls), expected)


def test_headings_on_the_wrap_boundaries():
    pi3 = 3 * math.pi
    thetas = [
        math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
        math.tau, -math.tau, pi3, -pi3, math.nextafter(pi3, 0.0), math.nextafter(-pi3, 0.0),
        math.nextafter(pi3, 10.0), 0.0, -0.0, 1e3, -1e3,
    ]
    poses = np.zeros((len(thetas), 3))
    poses[:, 2] = thetas
    out = model.propagate_pose(poses, np.zeros((len(thetas), 1, 2)), DT)[0]
    expected = [ref_wrap_angle(t + 0.0 * DT) for t in thetas]
    np.testing.assert_array_equal(out[:, 1, 2], expected)


@pytest.mark.parametrize("steps", [1, 2, 300])
def test_segment_kernel_is_l_single_steps(steps):
    rng = np.random.default_rng(steps)
    start = rng.uniform(-3, 3, (N_ROBOTS, 3))
    controls = rng.uniform(-1, 1, (N_ROBOTS, steps, 2))
    # Fast turners: about a wrap per step, half of them at 3 pi or more.
    controls[:2, :, 1] *= 80.0
    poses, translations, g_jacs = assert_kernel_is_the_reference(start, controls)
    assert poses.shape == (N_ROBOTS, steps + 1, 3)
    assert translations.shape == (N_ROBOTS, steps, 2)
    assert g_jacs.shape == (N_ROBOTS, steps, 3, 2)


def test_wraps_at_the_first_and_the_last_step_of_a_segment():
    steps = 120
    turn = 0.01
    start = np.zeros((4, 3))
    controls = np.zeros((4, steps, 2))
    controls[..., 0] = 1.0
    controls[..., 1] = turn / DT
    # Robots 1 and 2 cross +pi and -pi at the first step; robots 3 and 4
    # at the last one.
    start[0, 2] = math.pi - turn / 2
    start[1, 2] = -math.pi + turn / 2
    controls[1, :, 1] *= -1.0
    start[2, 2] = math.pi - (steps - 0.5) * turn
    start[3, 2] = -start[2, 2]
    controls[3, :, 1] *= -1.0
    heading = assert_kernel_is_the_reference(start, controls)[0][..., 2]
    jumps = np.abs(np.diff(heading, axis=1)) > math.pi
    assert jumps[:2, 0].all() and not jumps[:2, 1:].any()
    assert jumps[2:, -1].all() and not jumps[2:, :-1].any()


def test_headings_exactly_on_pi_and_beyond_three_pi():
    pi3 = 3 * math.pi
    thetas = [math.pi, -math.pi, pi3, -pi3, math.nextafter(pi3, 10.0), 1e3, -1e3]
    steps = 40
    start = np.zeros((2 * len(thetas), 3))
    start[:, 2] = thetas * 2
    controls = np.zeros((2 * len(thetas), steps, 2))
    controls[:, :, 0] = 0.5
    # The second copy turns by a multiple of tau every other step, so its
    # sums land on pi, -pi and past 3 pi inside the segment too.
    controls[len(thetas):, ::2, 1] = 2 * math.tau / DT
    controls[len(thetas):, 1::2, 1] = -2 * math.tau / DT
    heading = assert_kernel_is_the_reference(start, controls)[0][..., 2]
    assert (heading[:, 1:] > -math.pi).all() and (heading[:, 1:] <= math.pi).all()


def test_mid_segment_non_finite_control_is_rejected():
    means, covs, controls, q_diags = random_team(9)
    controls[3, N_STEPS // 2, 1] = math.nan
    with pytest.raises(ModelError, match="non-finite"):
        model.propagate_pose(means, controls, DT)
    with pytest.raises(ModelError, match="non-finite"):
        split_ekf.propagate_team(team_from(means, covs), controls, q_diags, DT)
    belief = joint_ekf.JointBelief.initialize(range(1, N_ROBOTS + 1), means, covs)
    with pytest.raises(ModelError, match="non-finite"):
        joint_ekf.propagate_segment(belief, controls, q_diags, DT)


@pytest.mark.parametrize("robot", range(N_ROBOTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_non_finite_control_of_any_robot_is_rejected(robot, bad, column):
    means, covs, controls, q_diags = random_team(5)
    step = controls[:, :1].copy()
    step[robot, 0, column] = bad
    with pytest.raises(ModelError, match="non-finite"):
        split_ekf.propagate_team(team_from(means, covs), step, q_diags[:, :1], DT)
    controls[robot, 7, column] = bad
    with pytest.raises(ModelError, match="non-finite"):
        model.propagate_pose(means, controls, DT)


@pytest.mark.parametrize("robot", [0, N_ROBOTS - 1])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_pose_of_any_robot_is_rejected(robot, column):
    means, covs, controls, q_diags = random_team(6)
    means[robot, column] = math.nan
    with pytest.raises(ModelError, match="non-finite"):
        split_ekf.propagate_team(team_from(means, covs), controls, q_diags, DT)


def test_non_positive_dt_is_rejected():
    means, covs, controls, q_diags = random_team(7)
    for dt in (0.0, -0.1):
        with pytest.raises(ModelError, match="dt must be positive"):
            split_ekf.propagate_team(team_from(means, covs), controls, q_diags, dt)


def test_lone_robot_state_is_one_team_row():
    means, covs, controls, q_diags = random_team(8)
    (team_means, team_covs, team_accs), _ = split_ekf.propagate_team(
        team_from(means, covs), controls, q_diags, DT
    )
    node = RobotNode(3, means[2], covs[2])
    alone = node.step(controls[2], q_diags[2], DT)
    rows = (team_means[2], team_covs[:, 2], team_accs[2])
    for lone, row in zip(alone, rows, strict=True):
        np.testing.assert_array_equal(lone, row)
    for field, row in zip(("mean", "cov", "jac_accum"), rows):
        np.testing.assert_array_equal(getattr(node.state, field), row[-1:])
    assert (node.state.team, node.time) == ((3,), N_STEPS)


@pytest.mark.parametrize("n, steps", [(N_ROBOTS, 1), (N_ROBOTS, 2), (1, 1024), (4, 256)])
@pytest.mark.parametrize("motion", ["travel_then_stop", "fast_turns"])
def test_closed_form_covariances_are_the_per_step_recurrence(n, steps, motion):
    rng = np.random.default_rng([n, steps])
    means = rng.uniform(-3, 3, (n, 3))
    roots = rng.standard_normal((n, 3, 3)) * 0.3
    team = SplitTeamState.initialize(range(1, n + 1), means, np.eye(3))
    team = dataclasses.replace(team, time=40)
    team.cov[:] = roots @ roots.transpose(0, 2, 1) + 1e-4 * np.eye(3)
    # Far from the start of the run: the closed form works relative to the segment.
    team.jac_accum[:] = rng.uniform(-1e4, 1e4, (n, 2))
    controls = np.stack([rng.uniform(0.5, 2.0, (n, steps)), rng.uniform(-1, 1, (n, steps))], -1)
    if motion == "travel_then_stop":
        controls[:, steps // 2:] = 0.0
    else:
        controls[..., 1] *= 80.0
    q_diags = rng.uniform(1e-6, 0.05, (n, steps, 2))
    (means, covs, accs), end = split_ekf.propagate_team(team, controls, q_diags, DT)
    want = list(ref_split_segment(team, controls, q_diags, DT))
    assert len(covs) == len(want) == steps
    for j, w in enumerate(want):
        np.testing.assert_array_equal(means[:, j], w.mean)
        np.testing.assert_array_equal(accs[:, j], w.jac_accum)
        assert_robotwise_close(covs[j], w.cov)
        np.testing.assert_array_equal(covs[j], covs[j].swapaxes(1, 2))
    assert_is_segment_end(team, (means, covs, accs), end)
    # Two lanes of the team in one stack: each lane's rows are the team's.
    lanes = SplitTeamState(
        team.team, team.index,
        *(harness._lanes(x, 2) for x in (team.mean, team.cov, team.jac_accum)), team.time,
    )
    block, end = split_ekf.propagate_team(
        lanes, harness._lanes(controls, 2), harness._lanes(q_diags, 2), DT
    )
    for lane in (slice(0, n), slice(n, 2 * n)):
        rows = (block[0][lane], block[1][:, lane], block[2][lane])
        for got, one_lane in zip(rows, (means, covs, accs), strict=True):
            np.testing.assert_array_equal(got, one_lane)
    assert_is_segment_end(lanes, block, end)


def test_run_once_calls_the_kernel_once_per_segment(monkeypatch):
    sc = build_table1_scenario()
    original = model.propagate_pose
    lengths, rows = [], []

    def counting(start, controls, dt):
        lengths.append(controls.shape[1])
        rows.append(len(start))
        return original(start, controls, dt)

    monkeypatch.setattr(model, "propagate_pose", counting)
    harness.run_once(sc, harness.ALL_ESTIMATORS, seed=7)
    n_segments = len(list(harness.segments(sc, harness.scen.measurement_schedule(sc))))
    n_stretches = len(list(harness.segments(sc, ())))
    # Truth and dead reckoning take one call per stretch of the run, each
    # joint filter one per segment between epochs, and the two split
    # filters one per segment together, as one stack of both teams.
    assert n_segments < 60 and n_stretches == 12
    assert len(lengths) == 2 * n_stretches + 3 * n_segments
    assert sum(lengths) == 5 * sc.n_steps
    assert rows.count(2 * sc.n_robots) == n_segments


# --- Segment loops against a per-step reference loop ----------------------


def ref_split_steps(sc, real, reports, server, events):
    """``harness.split_steps`` with every robot stepped alone, step by step."""
    ids = sc.robot_ids
    team = SplitTeamState.initialize(ids, real.init_means, sc.initial_cov())
    yield team, team
    for k in range(1, sc.n_steps + 1):
        rows = [
            ref_split_propagate(
                team.mean[a], team.cov[a], split_ekf.shear(team.jac_accum[a]),
                real.controls_meas[a, k - 1], np.diag(real.filter_q[a, k - 1]), sc.dt_s,
            )
            for a in range(len(ids))
        ]
        propagated = SplitTeamState(
            team.team, team.index,
            np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
            np.array([r[2][:2, 2] for r in rows]), team.time + 1,
        )
        # The epoch corrects a copy in place, so propagated stays as it is.
        team = SplitTeamState(
            team.team, team.index, propagated.mean.copy(), propagated.cov.copy(),
            propagated.jac_accum, propagated.time,
        )
        if k in real.measurements:
            harness._run_split_epoch(team, server, real.measurements[k], reports[k], events)
        yield propagated, team


def ref_joint_steps(sc, real, reports, events, name):
    """``harness.joint_steps`` with the kernel replaced by the per-robot
    reference step, one :func:`joint_ekf.propagate` call per step."""
    ids = sc.robot_ids
    belief = joint_ekf.JointBelief.initialize(ids, real.init_means, sc.initial_cov())
    noise = sc.meas_noise_cov()
    yield belief
    for k in range(1, sc.n_steps + 1):
        mean, f_jacs, gqg = [], [], []
        for a in range(len(ids)):
            control, q = real.controls_meas[a, k - 1], real.filter_q[a, k - 1]
            f_jac, g_jac = ref_motion_jacobians(belief.mean[a], control, sc.dt_s)
            mean.append(ref_propagate_pose(belief.mean[a], control, sc.dt_s))
            f_jacs.append(f_jac)
            gqg.append(g_jac @ np.diag(q) @ g_jac.T)
        belief = joint_ekf.propagate(belief, np.array(mean), np.array(f_jacs), np.array(gqg))
        if k in real.measurements:
            report = reports[k]
            for m in real.measurements[k]:
                if not gate_measurement(report, m):
                    continue
                try:
                    belief, _ = joint_ekf.partial_update(belief, m, noise, report.missed)
                except NumericalError as exc:
                    events.append(ProtocolEvent(
                        k, EVENT_NUMERIC_S,
                        f"estimator={name} observer={m.observer} landmark={m.landmark} "
                        f"reason={exc}",
                    ))
        yield belief


@st.composite
def segment_cases(draw):
    n = draw(st.integers(2, 6))
    n_steps = draw(st.integers(1, 60))
    epochs = draw(st.sets(st.integers(1, n_steps), max_size=8))
    pairs = {
        k: draw(st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1]),
            min_size=1, max_size=3,
        ))
        for k in sorted(epochs)
    }
    return dict(
        n=n,
        n_steps=n_steps,
        pairs=pairs,
        seed=draw(st.integers(0, 2**16)),
        chunk=draw(st.sampled_from([1, 5, 8192])),
        fast=draw(st.booleans()),
        loss=draw(st.sampled_from([0.0, 0.5])),
    )


def case_realization(case):
    """A small team's scenario and realization with the case's epochs."""
    n = case["n"]
    sc = Scenario(
        n_robots=n,
        duration_s=case["n_steps"] * 0.1,
        path=SpiralPath(edge_time_s=0.5, turn_time_s=0.3),
        v_noise_frac=(0.3,) * n,
        w_noise_frac=(0.2,) * n,
        bernoulli_p=case["loss"],
    )
    key = (case["seed"],)
    real = harness.build_realization(sc, key)
    rng = np.random.default_rng(case["seed"])
    if case["fast"]:
        real.controls_meas[:, :, 1] += rng.uniform(-90.0, 90.0, real.controls_meas.shape[:2])
    real.measurements = {
        k: [
            model.RelativeMeasurement(
                a, b, model.relative_position(real.truth[a - 1, k], real.truth[b - 1, k])
                + 0.05 * rng.standard_normal(2), k,
            )
            for a, b in sorted(set(pairs))
        ]
        for k, pairs in case["pairs"].items()
    }
    return sc, real, harness.delivery_reports(sc, real, key)


def assert_split_close(k, first_epoch, got, want):
    """A split-team mean or accumulated Jacobian at step ``k`` against the
    reference: a correction moves the means, and through the headings the
    later Jacobians, by what the covariances moved, so they are bit for bit
    only before the first epoch."""
    if k < first_epoch:
        np.testing.assert_array_equal(got, want)
    else:
        assert_robotwise_close(got, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(segment_cases())
def test_segment_loops_equal_the_per_step_reference(case):
    sc, real, reports = case_realization(case)
    with mock.patch.object(harness, "_SEGMENT_ROBOT_STEPS", case["chunk"]):
        events, ref_events = [], []
        server = CooperationServer(sc.robot_ids, sc.meas_noise_cov())
        ref_server = CooperationServer(sc.robot_ids, sc.meas_noise_cov())
        split = list(harness.split_steps(sc, real, [(reports, server, events)]))
        ref_split = list(ref_split_steps(sc, real, reports, ref_server, ref_events))
        spans = [(k0, k1) for k0, k1, *_ in split]
        assert spans == list(harness.segments(sc, real.measurements))
        assert len(ref_split) == sc.n_steps + 1
        first_epoch = min(real.measurements, default=sc.n_steps + 1)
        for k0, k1, (means, covs, accs), end in split:
            # The block holds the propagated team, end the corrected one.
            for j, k in enumerate(range(k0 + 1, k1 + 1)):
                want, _ = ref_split[k]
                assert_split_close(k, first_epoch, means[:, j], want.mean)
                assert_split_close(k, first_epoch, accs[:, j], want.jac_accum)
                assert_robotwise_close(covs[j], want.cov)
            _, want = ref_split[k1]
            assert_split_close(k1, first_epoch, end.mean, want.mean)
            assert_split_close(k1, first_epoch, end.jac_accum, want.jac_accum)
            assert_robotwise_close(end.cov, want.cov)
            assert end.time == want.time == k1
        assert_robotwise_close(server.store.blocks, ref_server.store.blocks)
        assert events == ref_events and server.events == ref_server.events

        joint = harness.joint_steps(sc, real, reports, events, "partial_oracle")
        ref_joint = list(ref_joint_steps(sc, real, reports, ref_events, "partial_oracle"))
        # One belief per step 1..T, in order, through every segment.
        for got, want in zip(joint, ref_joint[1:], strict=True):
            np.testing.assert_array_equal(got.mean, want.mean)
            np.testing.assert_array_equal(got.cov, want.cov)
            assert got.time == want.time
        assert events == ref_events

        # run_once writes each split block with one slice and the segment's
        # end over its last step, and each joint belief as it arrives: its
        # records must be the references' every step.
        with mock.patch.object(harness, "build_realization", lambda *args, **kwargs: real):
            rec = harness.run_once(
                sc, (harness.SA_SPLIT_DROPOUT, harness.PARTIAL_ORACLE), seed=case["seed"]
            )
    split_est = rec.estimates[harness.SA_SPLIT_DROPOUT]
    split_cov = rec.covs[harness.SA_SPLIT_DROPOUT]
    joint_est = rec.estimates[harness.PARTIAL_ORACLE]
    joint_cov = rec.covs[harness.PARTIAL_ORACLE]
    for k, ((_, want), belief) in enumerate(zip(ref_split, ref_joint, strict=True)):
        assert_split_close(k, first_epoch, split_est[:, k], want.mean)
        assert_robotwise_close(split_cov[:, k], want.cov)
        np.testing.assert_array_equal(joint_est[:, k], belief.mean)
        np.testing.assert_array_equal(joint_cov[:, k], belief.own_covs())


def test_segments_end_at_every_epoch_and_cover_the_run():
    sc = build_table1_scenario()
    epochs = {5, 6, 40}
    with mock.patch.object(harness, "_SEGMENT_ROBOT_STEPS", 4 * 16):
        spans = list(harness.segments(sc, epochs))
    assert spans[:4] == [(0, 5), (5, 6), (6, 22), (22, 38)]
    assert all(k0 < k1 <= k0 + 16 for k0, k1 in spans)
    assert [k1 for _, k1 in spans if k1 in epochs] == sorted(epochs)
    assert [k0 for k0, _ in spans[1:]] == [k1 for _, k1 in spans[:-1]]
    assert spans[0][0] == 0 and spans[-1][1] == sc.n_steps
