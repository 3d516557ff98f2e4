"""Dense full-matrix EKF used as an independent oracle in tests.

Assembles the whole team into stacked vectors/matrices and runs the update
with plain full-matrix arithmetic (a full measurement row, an explicit
block-diagonal ``F``, missed blocks restored one by one), so any indexing,
batching or masking bug in the implementations under test shows up as a
mismatch.
"""

import copy

import numpy as np

from splitcl import joint_ekf, model, split_ekf
from splitcl.split_ekf import SplitTeamState

# Largest covariance deviation from a per-step reference, relative to the
# largest entry of the robot's reference covariance, that a reordered
# rounding may leave.
ROBOTWISE_RTOL = 1e-12


def stack(belief):
    """Stacked mean vector and a copy of the stacked covariance of a belief."""
    return belief.mean.reshape(-1).copy(), belief.joint_matrix().copy()


def symmetric_2x2(upper):
    """The symmetric 2x2 array of an upper triangle ``(00, 01, 11)``, the
    form in which ``split_ekf.WhitenedInnovation`` holds ``S`` and its
    inverse root."""
    m00, m01, m11 = upper
    return np.array([[m00, m01], [m01, m11]])


def cross_blocks(team_matrix):
    """The off-diagonal 3x3 blocks of an ``(N, 3, N, 3)`` array, shape ``(N(N-1), 3, 3)``."""
    n = team_matrix.shape[0]
    return team_matrix.transpose(0, 2, 1, 3)[~np.eye(n, dtype=bool)]


def one_step(pose, control, dt):
    """One robot's step through the motion kernel: new pose, ``F`` and ``G``."""
    poses, translations, g_jacs = model.propagate_pose(
        np.reshape(pose, (1, 3)), np.reshape(control, (1, 1, 2)), dt
    )
    return poses[0, 1], model.shear(translations[0, 0]), g_jacs[0, 0]


def joint_step(belief, controls, noise_diags, dt):
    """One step of the centralized filter: a segment one step long."""
    (out,) = joint_ekf.propagate_segment(
        belief, np.asarray(controls)[:, None], np.asarray(noise_diags)[:, None], dt
    )
    return out


def ref_split_segment(team, controls, noise_diags, dt):
    """:func:`split_ekf.propagate_team` by the per-step recurrence.

    Each step's covariances are ``F P F' + G Q G'`` of the previous step's,
    with ``F`` formed as a 3x3 shear; means and accumulated Jacobians come
    from the same kernel call as in the closed form.
    """
    poses, translations, g_jacs = model.propagate_pose(team.mean, controls, dt)
    accs = np.concatenate([team.jac_accum[:, None], translations], axis=1)
    np.add.accumulate(accs, axis=1, out=accs)
    f_jacs = model.shear(translations.transpose(1, 0, 2))
    noise = ((g_jacs * noise_diags[..., None, :]) @ g_jacs.swapaxes(-1, -2)).transpose(1, 0, 2, 3)
    cov = team.cov
    for step, f_jac in enumerate(f_jacs, start=1):
        cov = f_jac @ cov @ f_jac.transpose(0, 2, 1) + noise[step - 1]
        yield SplitTeamState(
            team.team, team.index, poses[:, step], cov, accs[:, step], team.time + step
        )


def assert_robotwise_close(got, want, rtol=ROBOTWISE_RTOL):
    """Per robot (leading axis), ``max |got - want| <= rtol * max |want|``."""
    got = np.asarray(got).reshape(len(want), -1)
    want = np.asarray(want).reshape(len(want), -1)
    diff = np.abs(got - want).max(axis=1)
    bound = rtol * np.abs(want).max(axis=1)
    assert (diff <= bound).all(), f"robotwise deviation {diff} exceeds {bound}"


def stack_rows(states):
    """One :class:`SplitTeamState` of the rows of ``states``, in their order,
    at the first one's time; the arrays are copies."""
    team = tuple(rid for state in states for rid in state.team)
    return SplitTeamState(
        team,
        {rid: a for a, rid in enumerate(team)},
        np.concatenate([s.mean for s in states]),
        np.concatenate([s.cov for s in states]),
        np.concatenate([s.jac_accum for s in states]),
        states[0].time,
    )


def apply_frame(state, factor, white_residual):
    """``state`` after a single frame ``(r, D)``, applied as a robot does:
    the frame's payloads through :func:`split_ekf.apply_update`, which
    expands the pair ``(D r, D D')`` on floats; ``state`` is left as it is."""
    out = copy.deepcopy(state)
    split_ekf.apply_update(out, white_residual, factor)
    return out


def gain_form_update(state, factor, white_residual):
    """The robot's former single-frame arithmetic, kept as the reference for
    :func:`apply_frame`, for a one-row ``state``: with the gain ``G = A D``,
    formed as ``D`` with ``s`` times its heading row added to its position
    rows, the corrected mean ``mean + G r`` and covariance ``cov - G G'``."""
    gain = factor.copy()
    gain[:2] += state.jac_accum[0, :, None] * factor[2]
    return state.mean[0] + gain @ white_residual, state.cov[0] - gain @ gain.T


def dense_propagate(x, p, controls, noises, dt):
    """controls/noises are lists aligned with the stacked robot order."""
    n = len(controls)
    x_out = np.zeros_like(x)
    f_joint = np.zeros((3 * n, 3 * n))
    gqg = np.zeros((3 * n, 3 * n))
    for r in range(n):
        sl = slice(3 * r, 3 * r + 3)
        x_out[sl], f, g = one_step(x[sl], controls[r], dt)
        f_joint[sl, sl] = f
        gqg[sl, sl] = g @ noises[r] @ g.T
    return x_out, f_joint @ p @ f_joint.T + gqg


def dense_measurement_row(x, n, obs_idx, lm_idx):
    """Stacked measurement Jacobian, predicted value and block Jacobians."""
    h_row = np.zeros((2, 3 * n))
    a = slice(3 * obs_idx, 3 * obs_idx + 3)
    b = slice(3 * lm_idx, 3 * lm_idx + 3)
    predicted, h_obs, h_lm = model.relative_terms(*x[a], *x[b][:2])
    h_row[:, a] = h_obs
    h_row[:, b] = h_lm
    return h_row, np.array(predicted)


def dense_update(x, p, z, noise_cov, obs_idx, lm_idx, missed_idx=()):
    """Full-matrix update; ``missed_idx`` robots keep state and own blocks.

    The gain is computed for every robot; missed robots' rows are zeroed for
    the state update, and afterwards every block with both robots missed is
    restored from the prior.
    """
    n = len(x) // 3
    h_row, predicted = dense_measurement_row(x, n, obs_idx, lm_idx)
    residual = z - predicted
    s = noise_cov + h_row @ p @ h_row.T
    k = p @ h_row.T @ np.linalg.inv(s)
    k_masked = k.copy()
    for r in missed_idx:
        k_masked[3 * r:3 * r + 3, :] = 0.0
    x_out = x + k_masked @ residual
    p_out = p - k @ s @ k.T
    for ri in missed_idx:
        for rj in missed_idx:
            p_out[3 * ri:3 * ri + 3, 3 * rj:3 * rj + 3] = p[
                3 * ri:3 * ri + 3, 3 * rj:3 * rj + 3
            ]
    return x_out, p_out, s, k


def random_belief(rng, n_robots, corr_scale=0.1):
    """A random well-formed joint belief (exactly symmetric SPD covariance)."""
    from splitcl.joint_ekf import JointBelief

    ids = range(1, n_robots + 1)
    means = {i: rng.uniform(-3, 3, 3) for i in ids}
    root = rng.standard_normal((3 * n_robots, 3 * n_robots)) * corr_scale
    joint = root @ root.T + np.eye(3 * n_robots) * 0.05
    belief = JointBelief.initialize(means, {i: np.eye(3) for i in ids})
    belief.cov[:] = (0.5 * (joint + joint.T)).reshape(n_robots, 3, n_robots, 3)
    return belief


def dense_store_update(store, factors, missed=frozenset()):
    """The store's blocks after one update, as one dense masked product.

    ``-D D'`` (with the store's ``_update_sign``) is formed over the whole
    team, its diagonal blocks and the blocks between two ``missed`` robots
    are zeroed, and the rest is added to a copy of ``store.blocks``. Each
    entry of the product is its two elementwise products summed, as in the
    store, so the two agree bit for bit at any team size.
    """
    n = len(store.team)
    d0, d1 = factors.reshape(3 * n, 2).T
    product = (store._update_sign * (d0[:, None] * d0 + d1[:, None] * d1)).reshape(n, 3, n, 3)
    diag = np.arange(n)
    product[diag, :, diag, :] = 0.0
    frozen = np.array([store.index[r] for r in missed], dtype=int)
    product[frozen[:, None], :, frozen[None, :], :] = 0.0
    return store.blocks + product


def eigenvalue_psd(m, tol=1e-9):
    """The split filter's former covariance test, kept as the reference for
    :func:`splitcl.linalg.psd_3x3`: LAPACK's smallest eigenvalue of the
    symmetric ``m`` is at least ``-tol``."""
    return not np.linalg.eigvalsh(m)[0] < -tol


def numpy_sqrt_and_inv_sqrt_2x2(s):
    """The symmetric root of an SPD 2x2 matrix and its inverse in numpy
    arithmetic, the reference for :func:`splitcl.linalg.sqrt_and_inv_sqrt_2x2`."""
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    sq_det = np.sqrt(det)
    root = (s + sq_det * np.eye(2)) / np.sqrt(s[0, 0] + s[1, 1] + 2.0 * sq_det)
    inv_root = np.array([[root[1, 1], -root[0, 1]], [-root[1, 0], root[0, 0]]]) / sq_det
    return root, inv_root
