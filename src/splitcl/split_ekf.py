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
residual ``r``, or the sum of those over an epoch (:func:`correction`).
:func:`correct_row` applies a frame to one robot's floats: ``A_i v`` is
added to the mean and ``A_i M A_i'`` subtracted from the covariance. It is
the one copy of that arithmetic, on a decoded frame's payload floats. A
robot corrects its row through :func:`apply_update`, which reads the row's
floats, corrects them with :func:`correct_row` and writes them back once;
the server corrects its float shadows of the robots with :func:`correct_row`
directly, so a shadow has its robot's bits by construction. The server
folds the same factors into the store as the masked rank-2 update
``C <- C - D D'``, in which the blocks between two robots that both missed
the update are masked out: they keep their old factor, which is exactly
what the centralized filter does to the corresponding cross block. Only
the measurement's *support* can change: the robots whose row ``D_i`` is
non-zero, i.e. the measured robots and those correlated with them. The
store forms the product over the support rows and updates just the block
pairs within the support, so a measurement between two robots of a large
team costs what its few block pairs cost, not what the team does.

A measurement's work on the measured pair is a few hundred flops on 2x2, 2x3
and 3x3 matrices, where numpy's per-call overhead costs several times the
arithmetic, so it runs on Python floats: :func:`innovation` takes the
prediction and Jacobians from the measurement model's float kernel
(:func:`model.relative_terms`) and forms ``S`` and its inverse symmetric
root in closed form, and :func:`update_factors` whitens the measured robots'
3x2 terms, as :func:`correct_row` corrects each row. What grows with the
team stays in numpy: the block-column product of :func:`update_factors` and
the store update over the support. Floats do not warn on overflow, so every
check refuses a non-finite result, and an arithmetic exception on the floats
(a heading with no cosine, say) becomes a :class:`NumericalError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import model
from .linalg import NumericalError, block_diag_sandwich, psd_3x3, sqrt_and_inv_sqrt_2x2
from .linalg import team_covs
from .model import shear


@dataclass(slots=True)
class SplitTeamState:
    """The local states of robots ``team``, one row per robot, in team order.

    Row ``index[i]`` of ``mean`` ``(N, 3)``, ``cov`` ``(N, 3, 3)`` and
    ``jac_accum`` ``(N, 2)`` is everything robot ``i`` stores, O(1) in the
    team size; the robots share one ``time``. ``jac_accum`` holds the
    translation of ``A = shear(jac_accum)``, the product of the robot's
    motion Jacobians since the start of the run: zero at time zero, and
    never changed by a measurement update. A robot on its own holds a team
    of one (:class:`protocol.RobotNode`). Stacking lets
    :func:`propagate_team` advance every robot through a segment with one
    kernel call, with the same arithmetic per robot as for a team of one.
    Several filters' copies of one team can share a stack as lanes
    (:func:`harness.split_steps`): lane ``e`` holds rows ``e N .. (e + 1) N``,
    its robot ``i`` at ``e N + index[i]``.
    """

    team: tuple[int, ...]
    index: dict[int, int]
    mean: np.ndarray
    cov: np.ndarray
    jac_accum: np.ndarray
    time: int = 0

    @classmethod
    def initialize(
        cls, team: Sequence[int], means: np.ndarray, cov: np.ndarray
    ) -> "SplitTeamState":
        """Robots ``team`` at ``means`` (``(N, 3)``, in the same order), with
        own covariances ``cov`` (:func:`linalg.team_covs`) and an identity
        accumulated Jacobian."""
        team = tuple(team)
        n = len(team)
        return cls(
            team=team,
            index={rid: pos for pos, rid in enumerate(team)},
            mean=np.array(means, dtype=float).reshape(n, 3),
            cov=team_covs(cov, n),
            jac_accum=np.zeros((n, 2)),
        )


def propagate_team(
    team: SplitTeamState, controls: np.ndarray, noise_diags: np.ndarray, dt: float
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], SplitTeamState]:
    """Advance every robot of the team ``L`` timesteps; no cross term is touched.

    ``controls`` are the ``(N, L, 2)`` measured velocities and
    ``noise_diags`` the ``(N, L, 2)`` diagonals of the robots' process-noise
    covariances, both in team order. Returns the segment's block, the team
    at steps ``1..L`` as means ``(N, L, 3)``, covariances ``(L, N, 3, 3)``
    and accumulated Jacobians ``(N, L, 2)``, and its end, the team at step
    ``L`` for the next epoch to correct in place: the same ``team`` and
    ``index``, ``time`` moved on by ``L``, and copies of the last step's
    ``mean`` and ``cov`` (not of ``jac_accum``, which no correction
    changes), so the block stays as propagated. One
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
    sums = np.empty((steps + 1, 6, len(team.mean)))
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
    end = SplitTeamState(
        team.team, team.index, poses[:, -1].copy(), cov[-1].copy(), accs[:, -1], team.time + steps
    )
    return (poses[:, 1:], cov, accs[:, 1:]), end


Pairs = tuple[tuple[float, float], ...]
# A robot's mean, row-major covariance and accumulated Jacobian, as floats.
Row = tuple[Sequence[float], Sequence[float], Sequence[float]]


@dataclass(slots=True)
class WhitenedInnovation:
    """Innovation of one measurement, pre-whitened by ``inv_sqrt(S)``.

    The symmetric 2x2 matrices are held as their upper triangles
    ``(00, 01, 11)`` of Python floats: ``s`` the innovation covariance
    ``S`` and ``w`` its inverse symmetric root. ``white_residual`` is
    ``w`` times ``residual``, as the array a single update frame carries.
    ``measured`` holds, for the observer and then the landmark, the robot's
    id and the two 3x2 matrices its update factor is made of, each as three
    rows of float pairs: its own term ``A^-1 P H'`` and ``(H A)'``.
    """

    s: tuple[float, float, float]
    w: tuple[float, float, float]
    residual: tuple[float, float]
    white_residual: np.ndarray
    measured: tuple[tuple[int, Pairs, Pairs], tuple[int, Pairs, Pairs]]


def _project(
    cov: Sequence[float], jac_accum: Sequence[float],
    h0: tuple[float, float, float], h1: tuple[float, float, float],
) -> tuple[Pairs, Pairs, tuple[float, float, float]]:
    """``A^-1 P H'``, ``(H A)'`` and the upper triangle of ``H P H'`` for a
    robot's ``cov`` and ``jac_accum`` (of its :data:`Row`) and the rows
    ``h0``, ``h1`` of its measurement Jacobian ``H``.

    ``P`` is read from its upper triangle. For the shear ``A`` of
    translation ``s``, ``H A`` is ``H`` with ``H[:, :2] s`` added to its
    heading column, and ``A^-1 P H'`` is ``P H'`` less ``s`` times its
    heading row in its position rows.
    """
    p00, p01, p02, _, p11, p12, _, _, p22 = cov
    sx, sy = jac_accum
    a0, a1, a2 = h0
    b0, b1, b2 = h1
    t00 = p00 * a0 + p01 * a1 + p02 * a2
    t10 = p01 * a0 + p11 * a1 + p12 * a2
    t20 = p02 * a0 + p12 * a1 + p22 * a2
    t01 = p00 * b0 + p01 * b1 + p02 * b2
    t11 = p01 * b0 + p11 * b1 + p12 * b2
    t21 = p02 * b0 + p12 * b1 + p22 * b2
    own = ((t00 - sx * t20, t01 - sx * t21), (t10 - sy * t20, t11 - sy * t21), (t20, t21))
    hat = ((a0, b0), (a1, b1), (a2 + a0 * sx + a1 * sy, b2 + b0 * sx + b1 * sy))
    hph = (
        a0 * t00 + a1 * t10 + a2 * t20,
        a0 * t01 + a1 * t11 + a2 * t21,
        b0 * t01 + b1 * t11 + b2 * t21,
    )
    return own, hat, hph


def innovation(
    rows: Mapping[int, Row],
    observer: int,
    landmark: int,
    cross_factor: np.ndarray,
    z: Sequence[float],
    noise: tuple[float, float, float],
) -> WhitenedInnovation:
    """Innovation of the relative measurement of ``landmark`` by ``observer``.

    The two measured robots' states are read from ``rows``, robot id to
    :data:`Row`, as the server holds its shadows; ``z`` is two floats or
    their array; ``noise`` is the upper triangle ``(00, 01, 11)`` of the
    measurement-noise covariance.
    ``cross_factor`` is the server's ``C_ab`` block oriented (observer,
    landmark); the observer-landmark cross covariance is reconstructed from
    it, so the result matches the centralized filter's innovation
    covariance: its term ``H_a A_a C_ab A_b' H_b'`` is formed from the two
    robots' ``H A``. The measured pair's arithmetic, a few hundred flops,
    runs on Python floats: the prediction and the Jacobians come from
    :func:`model.relative_terms`, the float kernel the centralized filter's
    update calls too, and ``S`` is formed as its upper triangle, so it is
    exactly symmetric.
    Raises :class:`NumericalError` when ``S`` fails
    :func:`linalg.check_spd_2x2` or the arithmetic fails (a non-finite
    heading, say).
    """
    n00, n01, n11 = noise
    z0, z1 = map(float, z)
    (x, y, heading), cov, jac_accum = rows[observer]
    (xb, yb, _), cov_b, jac_accum_b = rows[landmark]
    try:
        (p0, p1), h_obs, h_lm = model.relative_terms(x, y, heading, xb, yb)
        own, hat, (a00, a01, a11) = _project(cov, jac_accum, *h_obs)
        own_b, hat_b, (b00, b01, b11) = _project(cov_b, jac_accum_b, *h_lm)
        # (H_a A_a) C_ab (H_b A_b)': C_ab times (H_b A_b)' first.
        (u0, v0), (u1, v1), (u2, v2) = hat
        (x0, y0), (x1, y1), (x2, y2) = hat_b
        (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = cross_factor.tolist()
        g00, g01 = c00 * x0 + c01 * x1 + c02 * x2, c00 * y0 + c01 * y1 + c02 * y2
        g10, g11 = c10 * x0 + c11 * x1 + c12 * x2, c10 * y0 + c11 * y1 + c12 * y2
        g20, g21 = c20 * x0 + c21 * x1 + c22 * x2, c20 * y0 + c21 * y1 + c22 * y2
        m00 = u0 * g00 + u1 * g10 + u2 * g20
        m01 = u0 * g01 + u1 * g11 + u2 * g21
        m10 = v0 * g00 + v1 * g10 + v2 * g20
        m11 = v0 * g01 + v1 * g11 + v2 * g21
        s00 = n00 + (a00 + b00 + m00 + m00)
        s01 = n01 + (a01 + b01 + m01 + m10)
        s11 = n11 + (a11 + b11 + m11 + m11)
        _, (w00, w01, w11) = sqrt_and_inv_sqrt_2x2(s00, s01, s11)
    except (ArithmeticError, ValueError) as exc:
        raise NumericalError(f"innovation arithmetic failed: {exc}") from exc
    r0, r1 = z0 - p0, z1 - p1
    return WhitenedInnovation(
        s=(s00, s01, s11),
        w=(w00, w01, w11),
        residual=(r0, r1),
        white_residual=np.array([w00 * r0 + w01 * r1, w01 * r0 + w11 * r1]),
        measured=((observer, own, hat), (landmark, own_b, hat_b)),
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

    def mask(self, ids: Iterable[int]) -> np.ndarray:
        """Boolean mask over team positions of the robots ``ids``, as :meth:`update`
        takes its missed robots; ``KeyError`` for a robot outside the team."""
        held = np.zeros(len(self.team), dtype=bool)
        held[[self.index[r] for r in ids]] = True
        return held

    def update(self, factors: np.ndarray, missed: np.ndarray | None = None) -> np.ndarray:
        """Fold one measurement's update factors into the store.

        ``factors`` is the ``(N, 3, 2)`` array ``D`` of :func:`update_factors`
        and ``missed``, when given, the :meth:`mask` of the robots that
        missed the update. The store absorbs ``-D D'`` without its diagonal blocks and without
        the blocks between two missed robots: those pairs keep their
        factor, as the centralized partial update keeps their cross block.
        Only the support, the robots whose row ``D_i`` is non-zero, can
        change, so the product is formed over the support rows alone. Its
        entry ``(i, j)`` is ``d_i0 d_j0 + d_i1 d_j1``, two elementwise
        products and a sum, which are the same operations for ``(j, i)``:
        the product, and with it the store, is exactly symmetric, and an
        entry does not depend on which other rows are in the product. The
        skipped blocks are zeroed in the product; adding a zero leaves a
        store entry as it is. Returns the support as a boolean mask over
        team positions.
        """
        nonzero = factors.any(axis=(1, 2))
        support = nonzero.nonzero()[0]
        k = len(support)
        d0, d1 = factors[support].reshape(3 * k, 2).T
        change = d0[:, None] * d0 + d1[:, None] * d1
        change *= self._update_sign
        change = change.reshape(k, 3, k, 3)
        # The diagonal blocks, where a support position meets itself.
        skip = support[:, None] == support
        if missed is not None:
            held = missed[support]
            skip |= held[:, None] & held
        np.copyto(change, 0.0, where=skip[:, None, :, None])
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


def update_factors(store: CrossFactorStore, innov: WhitenedInnovation) -> np.ndarray:
    """Update factors ``D_i`` of every robot for one measurement, shape ``(N, 3, 2)``.

    Row ``store.index[i]`` holds ``D_i``, for which ``A_i D_i inv_sqrt(S)``
    equals the centralized gain. Each measured robot ``u`` contributes its
    block column of the store times ``(H_u A_u)' inv_sqrt(S)``, one product
    per measured robot and the only work that grows with the team, and its
    own term ``A_u^-1 P_u H_u' inv_sqrt(S)`` to its own row. The 3x2
    factors are whitened on floats. A robot with zero factors towards every
    measured robot gets an exactly zero factor.
    """
    w00, w01, w11 = innov.w

    def whiten(rows: Pairs) -> list[tuple[float, float]]:
        return [(x * w00 + y * w01, x * w01 + y * w11) for x, y in rows]

    n = len(store.team)
    flat = None
    for rid, _, hat in innov.measured:
        term = store.blocks[:, :, store.index[rid], :].reshape(3 * n, 3) @ whiten(hat)
        flat = term if flat is None else flat + term
    factors = flat.reshape(n, 3, 2)
    for rid, own, _ in innov.measured:
        factors[store.index[rid]] += whiten(own)
    return factors


def correction(factors: np.ndarray, white_residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(D r, D D')`` of update factors ``D`` ``(..., 3, 2)`` and a
    whitened residual ``r``. Several measurements' factors side by side,
    ``(..., 3, 2m)`` with their residuals stacked, give the sum of their
    pairs, a summed frame's payloads."""
    return factors @ white_residual, factors @ factors.swapaxes(-1, -2)


def correct_row(
    robot: int, mean: Sequence[float], cov: Sequence[float], jac_accum: Sequence[float],
    residual: Sequence[float], gain: Sequence[float],
) -> Row:
    """Robot ``robot``'s :data:`Row` corrected by the floats of a summed
    frame's pair ``(v, M)`` or of a single frame's ``(r, D)``, whose pair
    ``(D r, D D')`` is formed here: ``mean + A v``, ``cov - A M A'`` and
    ``jac_accum``, with ``A = shear(jac_accum)``. ``A M A'`` only adds
    ``s``-multiples of ``M``'s last row and column to its position block,
    formed from upper triangles, so the corrected covariance is exactly
    symmetric. The payload, ``cov`` and the mean step must be finite, and
    the corrected covariance must pass :func:`linalg.psd_3x3`; else
    :class:`NumericalError` names the robot.
    """
    if not math.isfinite(sum(residual) + sum(gain)):
        raise NumericalError(f"update for robot {robot} has a non-finite payload")
    x, y, h = mean
    p00, p01, p02, _, p11, p12, _, _, p22 = cov
    sx, sy = jac_accum
    if len(residual) == 2:
        r0, r1 = residual
        d00, d01, d10, d11, d20, d21 = gain
        v0, v1, v2 = d00 * r0 + d01 * r1, d10 * r0 + d11 * r1, d20 * r0 + d21 * r1
        m00, m01, m02 = d00 * d00 + d01 * d01, d00 * d10 + d01 * d11, d00 * d20 + d01 * d21
        m11, m12, m22 = d10 * d10 + d11 * d11, d10 * d20 + d11 * d21, d20 * d20 + d21 * d21
    else:
        v0, v1, v2 = residual
        m00, m01, m02, _, m11, m12, _, _, m22 = gain
    d02 = m02 + sx * m22
    d12 = m12 + sy * m22
    c00 = p00 - (m00 + sx * (m02 + d02))
    c01 = p01 - (m01 + sx * m12 + sy * d02)
    c02 = p02 - d02
    c11 = p11 - (m11 + sy * (m12 + d12))
    c12 = p12 - d12
    c22 = p22 - m22
    if not (math.isfinite(sum(cov)) and psd_3x3(c00, c01, c02, c11, c12, c22)):
        raise NumericalError(f"update drove robot {robot} covariance indefinite")
    s0, s1 = v0 + sx * v2, v1 + sy * v2
    if not math.isfinite(s0 + s1 + v2):
        raise NumericalError(f"update gave robot {robot} a non-finite mean step")
    return (x + s0, y + s1, h + v2), (c00, c01, c02, c01, c11, c12, c02, c12, c22), jac_accum


def apply_update(
    team: SplitTeamState, robot: int, residual: Sequence[float], gain: Sequence[float]
) -> None:
    """Correct robot ``robot``'s row of ``team`` in place with :func:`correct_row`.

    ``residual`` and ``gain`` are a frame's payload floats, as a decoded
    :class:`messages.UpdateMessage` holds them: a summed frame's pair
    ``(v, M)`` or a single frame's ``(r, D)``. The row is read once and
    written once, after it passed every check, so when
    :class:`NumericalError` names the robot, the row has not changed.
    """
    a = team.index[robot]
    mean, cov, _ = correct_row(
        robot, team.mean[a].tolist(), team.cov[a].ravel().tolist(), team.jac_accum[a].tolist(),
        residual, gain,
    )
    team.mean[a] = mean
    team.cov[a].flat = cov
