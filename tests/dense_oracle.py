"""Dense full-matrix EKF used as an independent oracle in tests.

Assembles the whole team into stacked vectors/matrices and runs the update
with plain full-matrix arithmetic (a full measurement row, an explicit
block-diagonal ``F``, missed blocks restored one by one), so any indexing,
batching or masking bug in the implementations under test shows up as a
mismatch.
"""

import numpy as np

from splitcl import joint_ekf, model


def stack(belief):
    """Stacked mean vector and a copy of the stacked covariance of a belief."""
    return belief.mean.reshape(-1).copy(), belief.joint_matrix().copy()


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
    if lm_idx is None:
        h_obs = model.absolute_jacobian()
        h_row[:, a] = h_obs
        predicted = model.absolute_position(x[a])
    else:
        b = slice(3 * lm_idx, 3 * lm_idx + 3)
        h_obs, h_lm = model.relative_jacobians(x[a], x[b])
        h_row[:, a] = h_obs
        h_row[:, b] = h_lm
        predicted = model.relative_position(x[a], x[b])
    return h_row, predicted


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
    are zeroed, and the rest is added to a copy of ``store.blocks``.
    """
    n = len(store.team)
    flat = factors.reshape(3 * n, 2)
    product = ((store._update_sign * flat) @ flat.T).reshape(n, 3, n, 3)
    diag = np.arange(n)
    product[diag, :, diag, :] = 0.0
    frozen = np.array([store.index[r] for r in missed], dtype=int)
    product[frozen[:, None], :, frozen[None, :], :] = 0.0
    return store.blocks + product
