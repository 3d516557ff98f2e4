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
stays constant between measurement epochs. Since no robot needs another's
data to propagate, and nothing but its own covariance recurrence couples
its steps, a simulator may advance the whole team's stacked states
(:class:`SplitTeamState`) through a whole segment between two epochs with
one :func:`propagate_team` call; each row gets exactly the arithmetic of a
lone robot's step-by-step :func:`propagate`.

The server keeps all factors in one dense team matrix
(:class:`CrossFactorStore`): an ``(N, 3, N, 3)`` array in sorted-team
order, symmetric, with zero diagonal blocks. At a measurement epoch the
server turns the innovation into one whitened residual and the ``(N, 3, 2)``
array ``D`` of per-robot update factors, such that ``A_i D_i inv_sqrt(S)``
equals the centralized gain ``K_i``. A robot applies its correction knowing
only ``A_i`` and the two numbers the server sends. The server folds the
same factors into the store as the masked rank-2 update ``C <- C - D D'``,
in which the blocks between two robots that both missed the update are
masked out: they keep their old factor, which is exactly what the
centralized filter does to the corresponding cross block. Only the
measurement's *support* can change: the robots whose row ``D_i`` is
non-zero, i.e. the measured robots and those correlated with them. The
store forms the product over the support rows and updates just the block
pairs within the support, so a measurement between two robots of a large
team costs what its few block pairs cost, not what the team does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Sequence

import numpy as np

from . import model
from .linalg import NumericalError, block_diag_sandwich, check_spd_2x2, sqrt_and_inv_sqrt_2x2
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
    robot as a lone :func:`propagate`.
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
) -> Iterator[SplitTeamState]:
    """Advance every robot of the team ``L`` timesteps; no cross term is touched.

    ``controls`` are the ``(N, L, 2)`` measured velocities and
    ``noise_diags`` the ``(N, L, 2)`` diagonals of the robots' process-noise
    covariances, both in team order. Yields the team after each step. One
    :func:`model.propagate_pose` call gives every mean and, as running
    sums of the steps' shear translations, every accumulated Jacobian
    ``F A``; the steps' ``F`` and ``G Q G'`` are formed once for the
    segment, so per step only the covariances' ``F P F' + G Q G'`` is left.
    """
    poses, translations, g_jacs = model.propagate_pose(team.mean, controls, dt)
    accs = np.concatenate([team.jac_accum[:, None], translations], axis=1)
    np.add.accumulate(accs, axis=1, out=accs)
    # Time-major, so each step's slice is one block of memory.
    f_jacs = shear(translations.transpose(1, 0, 2))
    noise = model.process_noise(g_jacs, noise_diags).transpose(1, 0, 2, 3)
    cov = team.cov
    for step, f_jac in enumerate(f_jacs, start=1):
        cov = f_jac @ cov @ f_jac.transpose(0, 2, 1) + noise[step - 1]
        yield SplitTeamState(
            team.team, team.index, poses[:, step], cov, accs[:, step], team.time + step
        )


def propagate(
    state: SplitRobotState, control: np.ndarray, noise_diag: np.ndarray, dt: float
) -> SplitRobotState:
    """Advance one robot one timestep: :func:`propagate_team` for a team of
    one and a segment of one step.

    ``noise_diag`` is the diagonal ``[q_v, q_omega]`` of the robot's process
    noise covariance.
    """
    alone = SplitTeamState(
        team=(state.robot_id,),
        index={state.robot_id: 0},
        mean=np.reshape(state.mean, (1, 3)),
        cov=np.reshape(state.cov, (1, 3, 3)),
        jac_accum=np.reshape(state.jac_accum, (1, 2)),
        time=state.time,
    )
    (moved,) = propagate_team(
        alone, np.reshape(control, (1, 1, 2)), np.reshape(noise_diag, (1, 1, 2)), dt
    )
    return moved.robot(state.robot_id)


@dataclass(slots=True)
class WhitenedInnovation:
    """Innovation of one measurement, pre-whitened by ``inv_sqrt(cov)``.

    Carries the measurement Jacobians so the factor computation does not
    re-linearize at a different point.
    """

    cov: np.ndarray
    inv_sqrt_cov: np.ndarray
    residual: np.ndarray
    white_residual: np.ndarray
    obs_jac: np.ndarray
    lm_jac: np.ndarray | None


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
    innovation covariance exactly.
    """
    if landmark is not None and observer.time != landmark.time:
        raise ValueError(
            f"states are at different timesteps ({observer.time} vs {landmark.time})"
        )
    innov_cov = np.asarray(noise_cov, dtype=float).copy()
    h_obs_full: np.ndarray
    if landmark is None:
        h_obs_full = model.absolute_jacobian()
        h_lm = None
        predicted = model.absolute_position(observer.mean)
        innov_cov += h_obs_full @ observer.cov @ h_obs_full.T
    else:
        if cross_factor is None:
            raise ValueError("relative measurements need the pair's cross factor")
        h_obs_full, h_lm = model.relative_jacobians(observer.mean, landmark.mean)
        predicted = model.relative_position(observer.mean, landmark.mean)
        cross_cov = shear(observer.jac_accum) @ cross_factor @ shear(landmark.jac_accum).T
        mixed = h_obs_full @ cross_cov @ h_lm.T
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
    block column of the store times ``A_u' H_u'``, and its own covariance,
    through ``A_u``'s exact inverse ``shear(-jac_accum)``, to its own row. A
    robot with zero factors towards both measured robots gets a zero factor.
    """
    measured = [(observer, innov.obs_jac)]
    if landmark is not None:
        assert innov.lm_jac is not None
        measured.append((landmark, innov.lm_jac))
    acc = np.zeros((len(store.team), 3, 2))
    for state, h in measured:
        u = store.index[state.robot_id]
        acc += store.blocks[:, :, u, :] @ (shear(state.jac_accum).T @ h.T)
        acc[u] += shear(-state.jac_accum) @ state.cov @ h.T
    return acc @ innov.inv_sqrt_cov


def apply_update(
    state: SplitRobotState, factor: np.ndarray, white_residual: np.ndarray
) -> SplitRobotState:
    """Apply one (factor, whitened residual) correction to a robot.

    The accumulated Jacobian is unchanged; the covariance loses the squared
    norm of the correction gain from its trace.
    """
    gain = shear(state.jac_accum) @ factor
    return apply_correction(state, gain @ white_residual, gain @ gain.T)


def apply_summed_update(
    state: SplitRobotState, vec_sum: np.ndarray, mat_sum: np.ndarray
) -> SplitRobotState:
    """Apply the pre-combined corrections of a multi-measurement epoch.

    ``vec_sum`` is the sum of ``D_i r`` and ``mat_sum`` that of ``D_i D_i'``
    over the epoch's measurements; the robot maps both through ``A_i``.
    """
    acc = shear(state.jac_accum)
    return apply_correction(state, acc @ vec_sum, acc @ mat_sum @ acc.T)


def apply_correction(
    state: SplitRobotState, mean_step: np.ndarray, cov_drop: np.ndarray
) -> SplitRobotState:
    """The robot with ``mean_step`` added to its mean and ``cov_drop``
    subtracted from its covariance; its accumulated Jacobian is unchanged.

    Raises :class:`NumericalError` when the corrected covariance is
    indefinite beyond rounding, before anything is changed.
    """
    cov = state.cov - cov_drop
    if float(np.linalg.eigvalsh(cov)[0]) < -1e-9:
        raise NumericalError(
            f"update drove robot {state.robot_id} covariance indefinite"
        )
    return SplitRobotState(
        state.robot_id, state.mean + mean_step, cov, state.jac_accum, state.time
    )
