"""Centralized team EKF that tracks every cross-covariance block.

This is the reference estimator: it holds the full team belief (one pose
estimate and own-covariance per robot plus one cross-covariance block per
robot pair) and performs the textbook EKF recursion on it, block by block.
The distributed implementation in :mod:`splitcl.split_ekf` and
:mod:`splitcl.protocol` is checked against it.

``partial_update`` supports epochs where a subset of robots never receives
the correction: their estimates and own covariances are left untouched, the
cross blocks between two such robots are left untouched, and every other
cross block is still corrected using the minimum-variance gain of the robots
that did receive the update (with the same gain expression evaluated for the
skipped robots, applied to cross terms only). ``update`` is the special case
with an empty skip set.

Beliefs are values: every operation returns a new :class:`JointBelief`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

import numpy as np

from . import model
from .linalg import check_spd_2x2, symmetrize


@dataclass(slots=True)
class Innovation:
    """Residual, innovation covariance and per-robot gains of one update.

    ``gains`` contains an entry for every robot, including robots that were
    excluded from the state update (their gain only touches cross terms).
    """

    residual: np.ndarray
    cov: np.ndarray
    gains: dict[int, np.ndarray]


@dataclass(slots=True)
class JointBelief:
    """Full-team belief: per-robot estimates plus all covariance blocks.

    ``cross`` is keyed by ``(i, j)`` with ``i < j``; the block for ``(j, i)``
    is served as the transpose.
    """

    means: dict[int, np.ndarray]
    covs: dict[int, np.ndarray]
    cross: dict[tuple[int, int], np.ndarray]
    time: int = 0

    @classmethod
    def initialize(
        cls,
        means: Mapping[int, np.ndarray],
        covs: Mapping[int, np.ndarray],
        time: int = 0,
    ) -> "JointBelief":
        """Start a belief with zero cross-covariance between all pairs."""
        ids = sorted(means)
        cross = {
            (i, j): np.zeros((3, 3)) for i in ids for j in ids if i < j
        }
        return cls(
            means={i: np.asarray(means[i], dtype=float).copy() for i in ids},
            covs={i: np.asarray(covs[i], dtype=float).copy() for i in ids},
            cross=cross,
            time=time,
        )

    @property
    def robot_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.means))

    def block(self, i: int, j: int) -> np.ndarray:
        """Covariance block between robots ``i`` and ``j`` (own block if equal)."""
        if i == j:
            return self.covs[i]
        if i < j:
            return self.cross[(i, j)]
        return self.cross[(j, i)].T

    def joint_matrix(self) -> np.ndarray:
        """Assemble the full stacked covariance matrix."""
        ids = self.robot_ids
        n = len(ids)
        out = np.zeros((3 * n, 3 * n))
        for ai, i in enumerate(ids):
            for aj, j in enumerate(ids):
                out[3 * ai:3 * ai + 3, 3 * aj:3 * aj + 3] = self.block(i, j)
        return out

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.joint_matrix())[0])

    def copy(self) -> "JointBelief":
        return JointBelief(
            means={i: m.copy() for i, m in self.means.items()},
            covs={i: p.copy() for i, p in self.covs.items()},
            cross={k: c.copy() for k, c in self.cross.items()},
            time=self.time,
        )


def propagate(
    belief: JointBelief,
    controls: Mapping[int, np.ndarray],
    noises: Mapping[int, np.ndarray],
    dt: float,
) -> JointBelief:
    """Advance every robot one timestep.

    Own blocks follow ``F P F' + G Q G'``; the cross block between robots
    ``i`` and ``j`` becomes ``F_i P_ij F_j'``.
    """
    ids = belief.robot_ids
    if sorted(controls) != list(ids) or sorted(noises) != list(ids):
        raise ValueError("controls and noises must cover exactly the team")
    means: dict[int, np.ndarray] = {}
    covs: dict[int, np.ndarray] = {}
    f_jacs: dict[int, np.ndarray] = {}
    for i in ids:
        f_jac, g_jac = model.motion_jacobians(belief.means[i], controls[i], dt)
        q = np.asarray(noises[i], dtype=float)
        if q.shape != (2, 2):
            raise ValueError(f"process noise for robot {i} must be 2x2, got {q.shape}")
        means[i] = model.propagate_pose(belief.means[i], controls[i], dt)
        covs[i] = f_jac @ belief.covs[i] @ f_jac.T + g_jac @ q @ g_jac.T
        f_jacs[i] = f_jac
    cross = {
        (i, j): f_jacs[i] @ block @ f_jacs[j].T
        for (i, j), block in belief.cross.items()
    }
    return JointBelief(means=means, covs=covs, cross=cross, time=belief.time + 1)


def update(
    belief: JointBelief,
    meas: model.RelativeMeasurement,
    noise_cov: np.ndarray,
) -> tuple[JointBelief, Innovation]:
    """Fuse one relative measurement into the whole team."""
    return partial_update(belief, meas, noise_cov, missed=frozenset())


def partial_update(
    belief: JointBelief,
    meas: model.RelativeMeasurement,
    noise_cov: np.ndarray,
    missed: AbstractSet[int],
) -> tuple[JointBelief, Innovation]:
    """Fuse one relative measurement, skipping the robots in ``missed``.

    The observer and landmark must not be in ``missed``; a measurement whose
    endpoints cannot be reached is discarded upstream, never processed here.
    """
    a, b = meas.observer, meas.landmark
    ids = belief.robot_ids
    if a not in ids or b not in ids:
        raise ValueError(f"measurement endpoints ({a}, {b}) not in team {ids}")
    if a in missed or b in missed:
        raise ValueError(
            "observer and landmark must have received the update "
            f"(got missed set containing {sorted(set(missed) & {a, b})})"
        )
    h_obs, h_lm = model.relative_jacobians(belief.means[a], belief.means[b])
    predicted = model.relative_position(belief.means[a], belief.means[b])
    residual = np.asarray(meas.z, dtype=float) - predicted
    return _apply_terms(belief, [(a, h_obs), (b, h_lm)], residual, noise_cov, missed)


def absolute_update(
    belief: JointBelief,
    meas: model.AbsoluteMeasurement,
    noise_cov: np.ndarray,
) -> tuple[JointBelief, Innovation]:
    """Fuse one absolute position measurement into the whole team."""
    return partial_absolute_update(belief, meas, noise_cov, missed=frozenset())


def partial_absolute_update(
    belief: JointBelief,
    meas: model.AbsoluteMeasurement,
    noise_cov: np.ndarray,
    missed: AbstractSet[int],
) -> tuple[JointBelief, Innovation]:
    """Absolute-measurement analogue of :func:`partial_update`."""
    a = meas.observer
    if a not in belief.robot_ids:
        raise ValueError(f"robot {a} not in team {belief.robot_ids}")
    if a in missed:
        raise ValueError("the measured robot must have received the update")
    residual = np.asarray(meas.z, dtype=float) - model.absolute_position(belief.means[a])
    terms = [(a, model.absolute_jacobian())]
    return _apply_terms(belief, terms, residual, noise_cov, missed)


def _apply_terms(
    belief: JointBelief,
    terms: list[tuple[int, np.ndarray]],
    residual: np.ndarray,
    noise_cov: np.ndarray,
    missed: AbstractSet[int],
) -> tuple[JointBelief, Innovation]:
    # Innovation covariance: measurement noise plus every pairwise
    # H_u P_uv H_v' contribution, including the cross-covariance ones.
    innov_cov = np.asarray(noise_cov, dtype=float).copy()
    for u, h_u in terms:
        for v, h_v in terms:
            innov_cov += h_u @ belief.block(u, v) @ h_v.T
    check_spd_2x2(innov_cov)
    innov_inv = np.linalg.inv(innov_cov)

    # The same gain expression serves both roles: state correction for the
    # robots that receive the update, cross-term correction for the rest.
    gains: dict[int, np.ndarray] = {}
    for i in belief.robot_ids:
        acc = np.zeros((3, 2))
        for u, h_u in terms:
            acc += belief.block(i, u) @ h_u.T
        gains[i] = acc @ innov_inv

    means: dict[int, np.ndarray] = {}
    covs: dict[int, np.ndarray] = {}
    for i in belief.robot_ids:
        if i in missed:
            means[i] = belief.means[i].copy()
            covs[i] = belief.covs[i].copy()
        else:
            means[i] = belief.means[i] + gains[i] @ residual
            covs[i] = symmetrize(belief.covs[i] - gains[i] @ innov_cov @ gains[i].T)
    cross: dict[tuple[int, int], np.ndarray] = {}
    for (i, j), block in belief.cross.items():
        if i in missed and j in missed:
            cross[(i, j)] = block.copy()
        else:
            cross[(i, j)] = block - gains[i] @ innov_cov @ gains[j].T

    updated = JointBelief(means=means, covs=covs, cross=cross, time=belief.time)
    return updated, Innovation(residual=residual, cov=innov_cov, gains=gains)
