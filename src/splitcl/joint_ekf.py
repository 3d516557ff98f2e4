"""Centralized team EKF on one dense team covariance.

This is the reference estimator: it holds the full team belief, a pose
estimate per robot and the whole stacked covariance, and performs the
textbook EKF recursion on it. The distributed implementation in
:mod:`splitcl.split_ekf` and :mod:`splitcl.protocol` is checked against it.

The belief uses the same layout as the server's factor store: the team in
sorted order, ``mean`` of shape ``(N, 3)`` and ``cov`` of shape
``(N, 3, N, 3)``, where ``cov[a, :, b, :]`` is the covariance block between
the robots at positions ``a`` and ``b``. Reshaped to ``(3N, 3N)`` it is the
stacked team covariance; every operation keeps a symmetric one exactly
symmetric.

Propagation is ``F P F' + G Q G'`` with a block-diagonal ``F``. A segment
of steps between two measurement epochs takes one motion-kernel call for
every step's means and Jacobians, and then one ``(3N)^2`` sandwich per
step. An update of one relative measurement is one :func:`partial_update`:
it forms ``P H'`` from the block columns of the two measured robots, the
gains ``K = P H' S^-1`` of every robot, and subtracts the symmetrized
``K S K'`` as one product.

``partial_update`` supports epochs where a subset of robots never receives
the correction. The blocks of ``K S K'`` between two such robots are zeroed
before the subtraction and their rows of ``K r`` are zeroed before the mean
correction, so their estimates, own covariances and mutual cross blocks stay
bit for bit unchanged, while every cross block between them and the robots
that did receive the update is still corrected with the minimum-variance
gain. An empty missed set, the default, is the textbook update.

Beliefs are values: every operation returns a new :class:`JointBelief`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

import numpy as np

from . import model
from .linalg import block_diag_sandwich, check_spd_2x2, min_eigenvalue, symmetrize


@dataclass(slots=True)
class Innovation:
    """Residual, innovation covariance and gains of one update.

    ``gains`` has shape ``(N, 3, 2)`` in team order and holds the gain of
    every robot, including robots that were excluded from the state update
    (their gain only touches cross terms).
    """

    residual: np.ndarray
    cov: np.ndarray
    gains: np.ndarray


@dataclass(slots=True)
class JointBelief:
    """Full-team belief in one dense array.

    ``team`` is the sorted tuple of robot ids and ``index`` maps a robot id
    to its position in it. ``mean[a]`` is the pose estimate of the robot at
    position ``a`` and ``cov[a, :, b, :]`` the covariance block between the
    robots at positions ``a`` and ``b``.
    """

    team: tuple[int, ...]
    index: dict[int, int]
    mean: np.ndarray
    cov: np.ndarray
    time: int = 0

    @classmethod
    def initialize(
        cls,
        means: Mapping[int, np.ndarray],
        covs: Mapping[int, np.ndarray],
        time: int = 0,
    ) -> "JointBelief":
        """Start a belief with zero cross-covariance between all pairs."""
        team = tuple(sorted(means))
        n = len(team)
        cov = np.zeros((n, 3, n, 3))
        for a, i in enumerate(team):
            cov[a, :, a, :] = covs[i]
        return cls(
            team=team,
            index={rid: pos for pos, rid in enumerate(team)},
            mean=np.array([np.asarray(means[i], dtype=float) for i in team]).reshape(n, 3),
            cov=cov,
            time=time,
        )

    def block(self, i: int, j: int) -> np.ndarray:
        """Covariance block between robots ``i`` and ``j``, a view into ``cov``."""
        return self.cov[self.index[i], :, self.index[j], :]

    def joint_matrix(self) -> np.ndarray:
        """The stacked ``(3N, 3N)`` covariance, a view into ``cov``."""
        n = len(self.team)
        return self.cov.reshape(3 * n, 3 * n)

    def own_covs(self) -> np.ndarray:
        """Every robot's own covariance block, shape ``(N, 3, 3)`` in team order."""
        diag = np.arange(len(self.team))
        return self.cov[diag, :, diag, :]

    def min_eigenvalue(self) -> float:
        return min_eigenvalue(self.joint_matrix())

    def copy(self) -> "JointBelief":
        return JointBelief(
            self.team, self.index, self.mean.copy(), self.cov.copy(), self.time
        )


def propagate_segment(
    belief: JointBelief,
    controls: np.ndarray,
    noise_diags: np.ndarray,
    dt: float,
) -> list[JointBelief]:
    """Advance every robot ``L`` timesteps; returns the beliefs at steps ``1..L``.

    ``controls`` are the ``(N, L, 2)`` measured velocities and
    ``noise_diags`` the ``(N, L, 2)`` diagonals of the process-noise
    covariances, both in team order. One :func:`model.propagate_pose` call
    gives every step's means and Jacobians; each step then goes through
    :func:`propagate`.
    """
    poses, translations, g_jacs = model.propagate_pose(belief.mean, controls, dt)
    # Time-major, so each step's slice is one block of memory.
    f_jacs = model.shear(translations.transpose(1, 0, 2))
    noise = model.process_noise(g_jacs, noise_diags).transpose(1, 0, 2, 3)
    beliefs = [belief]
    for step, f_jac in enumerate(f_jacs, start=1):
        beliefs.append(propagate(beliefs[-1], poses[:, step], f_jac, noise[step - 1]))
    return beliefs[1:]


def propagate(
    belief: JointBelief, mean: np.ndarray, f_jacs: np.ndarray, noise: np.ndarray
) -> JointBelief:
    """One timestep of every robot, given the step's kernel outputs.

    ``mean`` holds the ``(N, 3)`` propagated poses, ``f_jacs`` the
    ``(N, 3, 3)`` pose Jacobians and ``noise`` the ``(N, 3, 3)`` process
    noise ``G Q G'`` of the step, in team order. The covariance becomes
    ``F P F' + G Q G'`` with block-diagonal ``F`` and ``G Q G'``: own
    blocks follow ``F_i P_ii F_i' + G_i Q_i G_i'`` and the cross block
    between robots ``i`` and ``j`` becomes ``F_i P_ij F_j'``.
    """
    n = len(belief.team)
    cov = block_diag_sandwich(f_jacs, belief.cov)
    diag = np.arange(n)
    cov[diag, :, diag, :] += noise
    cov = symmetrize(cov.reshape(3 * n, 3 * n)).reshape(n, 3, n, 3)
    return JointBelief(belief.team, belief.index, mean, cov, belief.time + 1)


def partial_update(
    belief: JointBelief,
    meas: model.RelativeMeasurement,
    noise_cov: np.ndarray,
    missed: AbstractSet[int] = frozenset(),
) -> tuple[JointBelief, Innovation]:
    """Fuse one relative measurement, skipping the robots in ``missed``.

    The measured robots, the observer and the landmark, must be in the team
    and not in ``missed``; a measurement whose robots cannot be reached is
    discarded upstream, never processed here. The prediction and the
    Jacobians come from one call of :func:`model.relative_terms`.
    """
    measured = (meas.observer, meas.landmark)
    if any(r not in belief.index for r in measured):
        raise ValueError(f"measured robots {measured} not in team {belief.team}")
    if any(r in missed for r in measured):
        raise ValueError(
            "measured robots must have received the update "
            f"(got missed set containing {sorted(set(missed) & set(measured))})"
        )
    rows = [belief.index[r] for r in measured]
    poses = belief.mean[rows].tolist()
    predicted, *jacobians = model.relative_terms(*poses[0], *poses[1][:2])
    residual = np.asarray(meas.z, dtype=float) - predicted

    n = len(belief.team)
    # P H' is one block column per measured robot; H P H' takes the measured
    # robots' rows of it, cross-covariance contributions included.
    terms = [(row, np.array(jac)) for row, jac in zip(rows, jacobians)]
    pht = np.zeros((n, 3, 2))
    for row, h_u in terms:
        pht += belief.cov[:, :, row, :] @ h_u.T
    innov_cov = np.asarray(noise_cov, dtype=float).copy()
    for row, h_u in terms:
        innov_cov += h_u @ pht[row]
    (s00, s01), (_, s11) = innov_cov.tolist()
    check_spd_2x2(s00, s01, s11)

    # The same gain serves both roles: state correction for the robots that
    # receive the update, cross-term correction for the rest.
    gains = pht @ np.linalg.inv(innov_cov)
    flat = gains.reshape(3 * n, 2)
    product = symmetrize(flat @ innov_cov @ flat.T).reshape(n, 3, n, 3)
    frozen = np.array([belief.index[r] for r in missed], dtype=int)
    product[frozen[:, None], :, frozen[None, :], :] = 0.0
    correction = gains @ residual
    correction[frozen] = 0.0

    updated = JointBelief(
        belief.team, belief.index, belief.mean + correction, belief.cov - product, belief.time
    )
    return updated, Innovation(residual=residual, cov=innov_cov, gains=gains)
