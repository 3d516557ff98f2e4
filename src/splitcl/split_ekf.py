"""Per-robot split representation of the team EKF.

The centralized filter couples robots only through cross-covariance blocks.
Here each cross block is factored as::

    P_ij = A_i C_ij A_j'

where ``A_i`` is robot i's accumulated motion Jacobian (the running product
of its ``F`` matrices, identity at start) and ``C_ij`` is a correlation
factor held by the server. Every ``F`` is a shear (see :mod:`model`), so
``A_i`` is exactly the shear of the sum of their translations: a robot
stores that 2-vector, and ``A_i``'s inverse is exactly the shear of its
negation. Propagation then touches only local quantities: each robot
advances its own estimate, covariance and ``A_i``, while every ``C_ij``
stays constant between measurement epochs. No robot needs another's data
to propagate, and since the shears compose by adding translations, a
robot's covariance at every step of a segment follows in closed form from
running sums over the segment, with no step-by-step recurrence. A
simulator therefore advances the whole team's stacked states
(:class:`SplitTeamState`) through a whole segment between two epochs with
one :func:`propagate_team` call. A robot on its own is a team of one
(:meth:`protocol.RobotNode.step`), and each row of a team gets exactly the
arithmetic that robot gets alone.

The server keeps all factors in one dense team matrix
(:class:`CrossFactorStore`): an ``(N, 3, N, 3)`` array in sorted-team
order, symmetric, with zero diagonal blocks. At a measurement epoch the
server turns the innovation into one whitened residual and the ``(N, 3, 2)``
array ``D`` of per-robot update factors, such that ``A_i D_i inv_sqrt(S)``
equals the centralized gain ``K_i``. Every correction is one factor-space
pair ``(v, M)``: ``(D_i r, D_i D_i')`` for one measurement with whitened
residual ``r`` (:func:`correction`), or the sum of those over an epoch.
:func:`apply_update` applies every pair, a robot's to itself and the
server's to its shadow copies of the robots alike: ``A_i v`` is added to
the mean and ``A_i M A_i'`` subtracted from the covariance. The server
folds the same factors into the store as the masked rank-2 update
``C <- C - D D'``, in which the blocks between two robots that both missed the update are
masked out: they keep their old factor, which is exactly what the
centralized filter does to the corresponding cross block. Only the
measurement's *support* can change: the robots whose row ``D_i`` is
non-zero, i.e. the measured robots and those correlated with them. The
store forms the product over the support rows and updates just the block
pairs within the support, so a measurement between two robots of a large
team costs what its few block pairs cost, not what the team does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from . import model
from .linalg import (
    NumericalError,
    block_diag_sandwich,
    check_spd_2x2,
    psd_3x3,
    sqrt_and_inv_sqrt_2x2,
)
from .model import shear


@dataclass(slots=True)
class SplitRobotState:
    """Everything a robot stores: O(1) in the team size.

    ``jac_accum`` ``(2,)`` is the translation of ``A = shear(jac_accum)``,
    the product of the robot's motion Jacobians since the start of the run;
    it is zero at time zero and is never changed by measurement updates.
    """

    robot_id: int
    mean: np.ndarray
    cov: np.ndarray
    jac_accum: np.ndarray
    time: int = 0

    @classmethod
    def initialize(
        cls, robot_id: int, mean: np.ndarray, cov: np.ndarray, time: int = 0
    ) -> "SplitRobotState":
        return cls(
            robot_id=robot_id,
            mean=np.asarray(mean, dtype=float).copy(),
            cov=np.asarray(cov, dtype=float).copy(),
            jac_accum=np.zeros(2),
            time=time,
        )

    def copy(self) -> "SplitRobotState":
        return SplitRobotState(
            robot_id=self.robot_id,
            mean=self.mean.copy(),
            cov=self.cov.copy(),
            jac_accum=self.jac_accum.copy(),
            time=self.time,
        )


@dataclass(slots=True)
class SplitTeamState:
    """The local states of a whole team, stacked in team order.

    Row ``index[i]`` of ``mean`` ``(N, 3)``, ``cov`` ``(N, 3, 3)`` and
    ``jac_accum`` ``(N, 2)`` is robot ``i``'s :class:`SplitRobotState`;
    the robots share one ``time``. Each row is still one robot's O(1)
    state: stacking only lets :func:`propagate_team` advance every robot
    through a segment with one kernel call, with the same arithmetic per
    robot as for a team of one.
    """

    team: tuple[int, ...]
    index: dict[int, int]
    mean: np.ndarray
    cov: np.ndarray
    jac_accum: np.ndarray
    time: int = 0

    @classmethod
    def initialize(
        cls, team: Sequence[int], means: np.ndarray, cov: np.ndarray, time: int = 0
    ) -> "SplitTeamState":
        """Robots ``team`` at ``means`` (``(N, 3)``, in the same order), each
        with covariance ``cov`` and an identity accumulated Jacobian."""
        team = tuple(team)
        n = len(team)
        return cls(
            team=team,
            index={rid: pos for pos, rid in enumerate(team)},
            mean=np.array(means, dtype=float).reshape(n, 3),
            cov=np.repeat(np.asarray(cov, dtype=float).reshape(1, 3, 3), n, axis=0),
            jac_accum=np.zeros((n, 2)),
            time=time,
        )

    def robot(self, robot_id: int) -> SplitRobotState:
        """Robot ``robot_id``'s state; its arrays are views of the team rows."""
        a = self.index[robot_id]
        return SplitRobotState(
            robot_id, self.mean[a], self.cov[a], self.jac_accum[a], self.time
        )

    def write_back(self, state: SplitRobotState) -> None:
        """Write a corrected robot state back into its rows.

        Measurement updates change a robot's mean and covariance only; its
        accumulated Jacobian and the team time stay as they are.
        """
        a = self.index[state.robot_id]
        self.mean[a] = state.mean
        self.cov[a] = state.cov


def propagate_team(
    team: SplitTeamState, controls: np.ndarray, noise_diags: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance every robot of the team ``L`` timesteps; no cross term is touched.

    ``controls`` are the ``(N, L, 2)`` measured velocities and
    ``noise_diags`` the ``(N, L, 2)`` diagonals of the robots' process-noise
    covariances, both in team order. Returns the team at steps ``1..L`` as
    means ``(N, L, 3)``, covariances ``(L, N, 3, 3)`` and accumulated
    Jacobians ``(N, L, 2)``, the segment's block. One
    :func:`model.propagate_pose` call gives every mean and, as running
    sums of the steps' shear translations, every accumulated Jacobian
    ``F A``. The covariances of every step come in closed form, with no
    per-step recurrence: the product of a segment's first ``k`` shears is
    the shear ``S(s_k)`` of their summed translation ``s_k``, so
    ``F P F' + G Q G'`` unrolls to::

        P_k = S(s_k) [P_0 + sum_{j <= k} S(-s_j) N_j S(-s_j)'] S(s_k)'

    with ``N_j = G Q G'``. The bracket is one running sum over the segment,
    and ``S(u) M S(u)'`` only adds ``u``-multiples of ``M``'s last row and
    column to its position block. Only the six distinct entries of each
    symmetric matrix are formed, so every covariance comes out exactly
    symmetric, and every operation is elementwise per robot and step, so
    each row of a team gets exactly the arithmetic that robot gets alone.
    """
    poses, translations, g_jacs = model.propagate_pose(team.mean, controls, dt)
    accs = np.concatenate([team.jac_accum[:, None], translations], axis=1)
    np.add.accumulate(accs, axis=1, out=accs)
    # Time-major from here, so each step's covariances are one block of memory.
    shift = np.add.accumulate(translations.transpose(1, 0, 2), axis=0)
    noise = model.process_noise(g_jacs.transpose(1, 0, 2, 3), noise_diags.transpose(1, 0, 2))
    sx, sy = shift[..., 0], shift[..., 1]
    w = noise[..., 2, 2]
    wx, wy = w * sx, w * sy
    # Running sums of the distinct entries 00, 01, 11, 02, 12, 22 of the
    # bracket, P_0 first. N's last column is (0, 0, w), so S(-s) N S(-s)' is
    # N plus w s s' in the position block and -w s beside it.
    steps = shift.shape[0]
    sums = np.empty((steps + 1, 6, len(team.team)))
    sums[0] = team.cov[:, [0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2]].T
    terms = sums[1:]
    np.add(noise[..., 0, 0], wx * sx, out=terms[:, 0])
    np.add(noise[..., 0, 1], wx * sy, out=terms[:, 1])
    np.add(noise[..., 1, 1], wy * sy, out=terms[:, 2])
    np.negative(wx, out=terms[:, 3])
    np.negative(wy, out=terms[:, 4])
    terms[:, 5] = w
    np.add.accumulate(sums, axis=0, out=sums)
    b00, b01, b11, b02, b12, b22 = terms.transpose(1, 0, 2)
    # S(s) B S(s)': the last column b becomes p = b + b22 s, and the
    # position block B + s b' + p s'.
    p02 = b02 + b22 * sx
    p12 = b12 + b22 * sy
    p01 = b01 + sx * b12 + sy * p02
    cov = np.empty(shift.shape[:2] + (3, 3))
    np.add(b00, sx * (b02 + p02), out=cov[..., 0, 0])
    np.add(b11, sy * (b12 + p12), out=cov[..., 1, 1])
    cov[..., 0, 1] = cov[..., 1, 0] = p01
    cov[..., 0, 2] = cov[..., 2, 0] = p02
    cov[..., 1, 2] = cov[..., 2, 1] = p12
    cov[..., 2, 2] = b22
    return poses[:, 1:], cov, accs[:, 1:]


@dataclass(slots=True)
class WhitenedInnovation:
    """Innovation of one measurement, pre-whitened by ``inv_sqrt(cov)``.

    Carries the measurement Jacobians ``H`` so the factor computation does
    not re-linearize at a different point, and each one times its robot's
    accumulated Jacobian, ``H A``, which both the innovation and the
    factors use.
    """

    cov: np.ndarray
    inv_sqrt_cov: np.ndarray
    residual: np.ndarray
    white_residual: np.ndarray
    obs_jac: np.ndarray
    lm_jac: np.ndarray | None
    obs_jac_acc: np.ndarray
    lm_jac_acc: np.ndarray | None


def _times_shear(h: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """``H S(s)`` for a ``(2, 3)`` Jacobian ``H``: ``H`` with ``H[:, :2] s``
    added to its heading column."""
    out = h.copy()
    out[:, 2] += h[:, :2] @ translation
    return out


def innovation(
    observer: SplitRobotState,
    landmark: SplitRobotState | None,
    cross_factor: np.ndarray | None,
    z: np.ndarray,
    noise_cov: np.ndarray,
) -> WhitenedInnovation:
    """Innovation of a relative (or, with ``landmark=None``, absolute) measurement.

    ``cross_factor`` is the server's ``C_ab`` block oriented
    (observer, landmark); the observer-landmark cross covariance is
    reconstructed from it, so the result matches the centralized filter's
    innovation covariance exactly: its term ``H_a A_a C_ab A_b' H_b'`` is
    formed from the two robots' ``H A``.
    """
    if landmark is not None and observer.time != landmark.time:
        raise ValueError(
            f"states are at different timesteps ({observer.time} vs {landmark.time})"
        )
    innov_cov = np.asarray(noise_cov, dtype=float).copy()
    h_obs_full: np.ndarray
    if landmark is None:
        h_obs_full = model.absolute_jacobian()
        h_lm = hs_lm = None
        predicted = model.absolute_position(observer.mean)
        innov_cov += h_obs_full @ observer.cov @ h_obs_full.T
        hs_obs = _times_shear(h_obs_full, observer.jac_accum)
    else:
        if cross_factor is None:
            raise ValueError("relative measurements need the pair's cross factor")
        h_obs_full, h_lm = model.relative_jacobians(observer.mean, landmark.mean)
        predicted = model.relative_position(observer.mean, landmark.mean)
        hs_obs = _times_shear(h_obs_full, observer.jac_accum)
        hs_lm = _times_shear(h_lm, landmark.jac_accum)
        mixed = hs_obs @ cross_factor @ hs_lm.T
        innov_cov += (
            h_obs_full @ observer.cov @ h_obs_full.T
            + h_lm @ landmark.cov @ h_lm.T
            + mixed
            + mixed.T
        )
    check_spd_2x2(innov_cov)
    _, inv_sqrt = sqrt_and_inv_sqrt_2x2(innov_cov)
    residual = np.asarray(z, dtype=float) - predicted
    return WhitenedInnovation(
        cov=innov_cov,
        inv_sqrt_cov=inv_sqrt,
        residual=residual,
        white_residual=inv_sqrt @ residual,
        obs_jac=h_obs_full,
        lm_jac=h_lm,
        obs_jac_acc=hs_obs,
        lm_jac_acc=hs_lm,
    )


class CrossFactorStore:
    """Server-held correlation factors of the whole team, in one dense array.

    ``blocks`` has shape ``(N, 3, N, 3)`` and is indexed by team position
    (``index`` maps a robot id to its place in the sorted ``team``):
    ``blocks[a, :, b, :]`` is ``C_ij`` for the robots at positions ``a`` and
    ``b``. Reshaped to ``(3N, 3N)`` it is the team matrix of factors, which
    is kept symmetric, with zero diagonal blocks since a robot's own
    covariance lives on the robot. Every block starts at zero. A
    measurement changes only the blocks between two robots of its support
    (see :meth:`update`), so a small support costs what its block pairs
    cost, not what the team does. Mutations are expected to be serialized
    by the owning server.
    """

    def __init__(self, team: Iterable[int]):
        ids = tuple(sorted(team))
        if len(ids) != len(set(ids)) or len(ids) < 1:
            raise ValueError(f"invalid team {ids}")
        self.team = ids
        self.index = {rid: pos for pos, rid in enumerate(ids)}
        n = len(ids)
        self.blocks = np.zeros((n, 3, n, 3))
        # Flipped by the negative-control test hook only.
        self._update_sign = -1.0

    def factor(self, i: int, j: int) -> np.ndarray:
        """Correlation factor oriented (i, j), a view into ``blocks``."""
        if i == j:
            raise KeyError("cross factors are defined for distinct robots only")
        return self.blocks[self.index[i], :, self.index[j], :]

    def update(self, factors: np.ndarray, missed: AbstractSet[int] = frozenset()) -> np.ndarray:
        """Fold one measurement's update factors into the store.

        ``factors`` is the ``(N, 3, 2)`` array ``D`` of :func:`update_factors`.
        The store absorbs ``-D D'`` without its diagonal blocks and without
        the blocks between two robots in ``missed``: those pairs keep their
        factor, as the centralized partial update keeps their cross block.
        Only the support, the robots whose row ``D_i`` is non-zero, can
        change, so the product is formed over the support rows alone. Each
        block above the diagonal is added as computed and, transposed, below
        it, which keeps the store exactly symmetric whatever the rounding of
        the matrix product. Returns the support as a boolean mask over team
        positions. Raises ``KeyError`` for a missed robot outside the team,
        before any block changes.
        """
        held = np.zeros(len(self.team), dtype=bool)
        held[[self.index[r] for r in missed]] = True
        nonzero = factors.any(axis=(1, 2))
        support = nonzero.nonzero()[0]
        k = len(support)
        rows = factors[support].reshape(3 * k, 2)
        product = ((self._update_sign * rows) @ rows.T).reshape(k, 3, k, 3)
        held = held[support]
        upper = (support[:, None] < support) & ~(held[:, None] & held)
        half = np.where(upper[:, None, :, None], product, 0.0)
        change = half + half.transpose(2, 3, 0, 1)
        if k == len(self.team):
            # Every robot is in the support, as on a small team whose robots
            # are all correlated: the indexed add below would cost several
            # times a plain add of the same blocks.
            self.blocks += change
        else:
            self.blocks[support[:, None], :, support[None, :], :] += change.transpose(0, 2, 1, 3)
        return nonzero

    def reconstruct(self, accs: np.ndarray) -> np.ndarray:
        """Every cross covariance implied by the store, shape ``(N, 3, N, 3)``.

        ``accs`` ``(N, 2)`` stacks the robots' ``jac_accum`` in team order;
        block ``(a, b)`` of the result is ``A_a C_ab A_b'``. The diagonal
        blocks are zero: own covariances live on the robots.
        """
        return block_diag_sandwich(shear(accs), self.blocks)

    def copy(self) -> "CrossFactorStore":
        dup = CrossFactorStore(self.team)
        dup.blocks = self.blocks.copy()
        dup._update_sign = self._update_sign
        return dup


def update_factors(
    store: CrossFactorStore,
    observer: SplitRobotState,
    landmark: SplitRobotState | None,
    innov: WhitenedInnovation,
) -> np.ndarray:
    """Update factors ``D_i`` of every robot for one measurement, shape ``(N, 3, 2)``.

    Row ``store.index[i]`` holds ``D_i``, for which ``A_i D_i inv_sqrt(S)``
    equals the centralized gain. Each measured robot ``u`` contributes its
    block column of the store times ``(H_u A_u)'``, and its own covariance,
    through ``A_u``'s exact inverse ``S(-jac_accum)``, to its own row:
    ``S(-s) P_u H_u'`` is ``P_u H_u'`` less ``s`` times its heading row in
    its position rows. A robot with zero factors towards both measured
    robots gets a zero factor.
    """
    measured = [(observer, innov.obs_jac, innov.obs_jac_acc)]
    if landmark is not None:
        assert innov.lm_jac is not None and innov.lm_jac_acc is not None
        measured.append((landmark, innov.lm_jac, innov.lm_jac_acc))
    acc = np.zeros((len(store.team), 3, 2))
    for state, h, h_acc in measured:
        u = store.index[state.robot_id]
        acc += store.blocks[:, :, u, :] @ h_acc.T
        own = state.cov @ h.T
        own[:2] -= state.jac_accum[:, None] * own[2]
        acc[u] += own
    return acc @ innov.inv_sqrt_cov


def correction(factors: np.ndarray, white_residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(D r, D D')`` of update factors ``D`` ``(..., 3, 2)`` and a
    whitened residual ``r``. numpy forms each row of a stack as it forms
    the row alone, so a row's pair is the same bits either way."""
    return factors @ white_residual, factors @ factors.swapaxes(-1, -2)


def apply_update(
    robot_ids: Sequence[int],
    mean: np.ndarray,
    cov: np.ndarray,
    jac_accum: np.ndarray,
    vec: np.ndarray,
    mat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``mean + A v`` and ``cov - A M A'`` for one robot (``(3,)``, ``(3, 3)``
    and ``(2,)`` arrays) or ``k`` stacked rows, with ``A = shear(jac_accum)``
    and one id in ``robot_ids`` per row.

    ``A M A'`` only adds ``s``-multiples of ``M``'s last row and column to
    its position block; it is formed on Python floats, row by row, from the
    upper triangles of ``mat`` and ``cov``, so each corrected covariance is
    exactly symmetric and each row gets the same arithmetic alone or
    stacked. Corrections arrive as decoded frames, i.e. as outside input,
    so every row is checked: the entries of ``cov`` and ``mat`` and the
    mean step must be finite, and the corrected covariance must pass
    :func:`linalg.psd_3x3`, the Cholesky test of ``cov + EIG_TOL I`` that
    the equivalence check applies to the joint covariance. Else
    :class:`NumericalError` names the first failing robot.
    """
    rows = zip(
        robot_ids,
        mean.reshape(-1, 3).tolist(),
        cov.reshape(-1, 9).tolist(),
        jac_accum.reshape(-1, 2).tolist(),
        vec.reshape(-1, 3).tolist(),
        mat.reshape(-1, 9).tolist(),
    )
    means: list[float] = []
    covs: list[float] = []
    for rid, (x, y, h), p, (sx, sy), (v0, v1, v2), m in rows:
        p00, p01, p02, _, p11, p12, _, _, p22 = p
        m00, m01, m02, _, m11, m12, _, _, m22 = m
        d02 = m02 + sx * m22
        d12 = m12 + sy * m22
        c00 = p00 - (m00 + sx * (m02 + d02))
        c01 = p01 - (m01 + sx * m12 + sy * d02)
        c02 = p02 - d02
        c11 = p11 - (m11 + sy * (m12 + d12))
        c12 = p12 - d12
        c22 = p22 - m22
        if not (math.isfinite(sum(p) + sum(m)) and psd_3x3(c00, c01, c02, c11, c12, c22)):
            raise NumericalError(f"update drove robot {rid} covariance indefinite")
        s0, s1 = v0 + sx * v2, v1 + sy * v2
        if not math.isfinite(s0 + s1 + v2):
            raise NumericalError(f"update gave robot {rid} a non-finite mean step")
        means += (x + s0, y + s1, h + v2)
        covs += (c00, c01, c02, c01, c11, c12, c02, c12, c22)
    return np.array(means).reshape(mean.shape), np.array(covs).reshape(cov.shape)
