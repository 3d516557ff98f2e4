"""Stepping the team as one batch equals stepping each robot by itself.

The reference below is the per-robot arithmetic the simulator used before
the team was batched, copied verbatim: the pose step, its Jacobians and the
split filter's local propagation. Every batched result must equal it bit
for bit, not just to a tolerance.
"""

import math

import numpy as np
import pytest

from splitcl import harness, model, split_ekf
from splitcl.model import ModelError
from splitcl.protocol import RobotNode
from splitcl.split_ekf import SplitRobotState, SplitTeamState

N_ROBOTS = 7
N_STEPS = 200
DT = 0.1


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
    for k in range(N_STEPS):
        wrapped_far |= bool((np.abs(team.mean[:, 2] + controls[:, k, 1] * DT) >= 3 * math.pi).any())
        team = split_ekf.propagate_team(team, controls[:, k], q_diags[:, k], DT)
        ref = [
            ref_split_propagate(*ref[a], controls[a, k], np.diag(q_diags[a, k]), DT)
            for a in range(N_ROBOTS)
        ]
        np.testing.assert_array_equal(team.mean, [r[0] for r in ref])
        np.testing.assert_array_equal(team.cov, [r[1] for r in ref])
        assert_is_shear_of(team.jac_accum, [r[2] for r in ref])
    assert team.time == N_STEPS
    assert wrapped_far


def test_robot_node_step_is_the_per_robot_step():
    means, covs, controls, q_diags = random_team(3)
    for a in range(N_ROBOTS):
        node = RobotNode(a + 1, means[a], covs[a])
        mean, cov, acc = means[a], covs[a], np.eye(3)
        for k in range(N_STEPS):
            node.step(controls[a, k], q_diags[a, k], DT)
            mean, cov, acc = ref_split_propagate(
                mean, cov, acc, controls[a, k], np.diag(q_diags[a, k]), DT
            )
            np.testing.assert_array_equal(node.state.mean, mean)
            np.testing.assert_array_equal(node.state.cov, cov)
            assert_is_shear_of(node.state.jac_accum, acc)
        assert node.time == N_STEPS


def test_trajectories_are_the_per_robot_steps():
    means, _, controls, _ = random_team(4)
    out = harness._propagate_trajectories(means, controls, DT)
    expected = np.empty_like(out)
    for a in range(N_ROBOTS):
        pose = means[a]
        expected[a, 0] = pose
        for k in range(N_STEPS):
            pose = ref_propagate_pose(pose, controls[a, k], DT)
            expected[a, k + 1] = pose
    np.testing.assert_array_equal(out, expected)


def test_headings_on_the_wrap_boundaries():
    pi3 = 3 * math.pi
    thetas = [
        math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
        math.tau, -math.tau, pi3, -pi3, math.nextafter(pi3, 0.0), math.nextafter(-pi3, 0.0),
        math.nextafter(pi3, 10.0), 0.0, -0.0, 1e3, -1e3,
    ]
    poses = np.zeros((len(thetas), 3))
    poses[:, 2] = thetas
    out = model.propagate_pose(poses, np.zeros((len(thetas), 2)), DT)
    expected = [ref_wrap_angle(t + 0.0 * DT) for t in thetas]
    np.testing.assert_array_equal(out[:, 2], expected)


@pytest.mark.parametrize("robot", range(N_ROBOTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_non_finite_control_of_any_robot_is_rejected(robot, bad, column):
    means, covs, controls, q_diags = random_team(5)
    step = controls[:, 0].copy()
    step[robot, column] = bad
    with pytest.raises(ModelError, match="non-finite"):
        split_ekf.propagate_team(team_from(means, covs), step, q_diags[:, 0], DT)
    controls[robot, 7, column] = bad
    with pytest.raises(ModelError, match="non-finite"):
        harness._propagate_trajectories(means, controls, DT)


@pytest.mark.parametrize("robot", [0, N_ROBOTS - 1])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_pose_of_any_robot_is_rejected(robot, column):
    means, covs, controls, q_diags = random_team(6)
    means[robot, column] = math.nan
    with pytest.raises(ModelError, match="non-finite"):
        split_ekf.propagate_team(team_from(means, covs), controls[:, 0], q_diags[:, 0], DT)


def test_non_positive_dt_is_rejected():
    means, covs, controls, q_diags = random_team(7)
    for dt in (0.0, -0.1):
        with pytest.raises(ModelError, match="dt must be positive"):
            split_ekf.propagate_team(team_from(means, covs), controls[:, 0], q_diags[:, 0], dt)


def test_lone_robot_state_is_one_team_row():
    means, covs, controls, q_diags = random_team(8)
    team = split_ekf.propagate_team(team_from(means, covs), controls[:, 0], q_diags[:, 0], DT)
    alone = split_ekf.propagate(
        SplitRobotState.initialize(3, means[2], covs[2]), controls[2, 0], q_diags[2, 0], DT
    )
    row = team.robot(3)
    for field in ("mean", "cov", "jac_accum"):
        np.testing.assert_array_equal(getattr(alone, field), getattr(row, field))
    assert (alone.robot_id, alone.time) == (row.robot_id, row.time) == (3, 1)
