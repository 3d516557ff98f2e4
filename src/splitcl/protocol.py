"""Robot and server state machines for server-assisted cooperative localization.

One epoch goes as follows: every robot propagates locally. If a robot took a
relative measurement of another robot it announces it, and every robot
involved in any measurement sends the server a :class:`LandmarkMessage`. The
server, which is the only party holding the cross-correlation factors,
computes one whitened residual and one update factor per measurement, folds
the factors into its store, and sends a fixed-size :class:`UpdateMessage`
only to the robots whose update factor is non-zero: the measured robots and
those correlated with them. Every other robot's factor is exactly zero, so
its correction would be an exact no-op; it gets no message and does no work.
Those robots are the measurement's support. The store adds only the block
pairs between two of them and returns the support, so the server collects
the recipients without scanning the factors again.
The summed payloads of a multi-measurement epoch are formed once, at the
end, over the recipients' rows only.
The server sends no message to a robot that the channel reports missed,
which keeps its propagated estimate, and it skips the store blocks between
pairs of missed robots. A message checks its payload forms when it is
constructed, a decoded one included (:mod:`messages`), so the server and
the robots do not check them again. A robot acts through a
:class:`RobotNode`, a view of its row of a team's state: it builds its
landmark frame from the row's floats, and a decoded update frame's payloads
are exactly the floats :func:`split_ekf.correct_row` takes for that row.

Multiple measurements in the same epoch are processed one at a time in a
fixed order (ascending ``(observer, landmark)``).
The server keeps shadow copies of the reporting robots' states as floats,
one :data:`split_ekf.Row` per sender, its decoded frame's payloads as they
are, so later measurements in the epoch are linearized against
already-corrected values.
Each processed measurement corrects every shadow with
:func:`split_ekf.correct_row`, the row kernel through which each robot
corrects itself, given the measurement's single frame ``(r, D)``: the
kernel forms each row's pair ``(D_i r, D_i D_i')`` on floats, so a shadow
is bit for bit what its robot computes from that frame. Every shadow must
pass its check, or the measurement is skipped whole. The server sends each
touched robot that frame or, after several measurements, one summed update
message, the sum of its pairs over the epoch. What an epoch's measurements
share, such as the mask of the missed robots, is built once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from . import split_ekf
from .linalg import NumericalError
from .messages import LandmarkMessage, ProtocolError, UpdateMessage
from .split_ekf import CrossFactorStore, SplitTeamState

EVENT_PAIR_UNREACHABLE = "PAIR_UNREACHABLE"
EVENT_NUMERIC_S = "NUMERIC_S"


@dataclass(frozen=True)
class ProtocolEvent:
    """One discarded measurement or skipped update, with a reason code."""

    time: int
    code: str
    detail: str

    def as_line(self) -> str:
        return f"t={self.time} {self.code} {self.detail}"


class RobotNode:
    """A robot's local protocol unit: report to the server, apply corrections.

    A node is a view of the ``robot``'s row of the
    :class:`split_ekf.SplitTeamState` ``team`` (pose estimate, 3x3
    covariance, the accumulated Jacobian's 2-vector shear), O(1) in the
    team size; a node built on its own holds a team of one. The simulator
    advances each split filter's team as a lane of one stack. At an epoch
    a robot's part goes through a node over its lane (:meth:`over`): the
    node builds its landmark frame from its row's floats and applies its
    :class:`UpdateMessage`'s floats to that row, in place. Only robots
    whose update factor is non-zero receive a message, and of those only
    the ones the channel reaches; for a robot with a zero factor the
    correction would be an exact no-op. :meth:`step` is the same
    propagation for a node on its own, as a team of one.
    """

    __slots__ = ("robot", "team")

    def __init__(self, robot_id: int, mean: np.ndarray, cov: np.ndarray):
        self.robot = robot_id
        self.team = SplitTeamState.initialize((robot_id,), mean, cov)

    @classmethod
    def over(cls, team: SplitTeamState, robot_id: int) -> "RobotNode":
        """A node over robot ``robot_id``'s row of ``team``: its corrections
        write that row and no other."""
        node = cls.__new__(cls)
        node.robot, node.team = robot_id, team
        return node

    @property
    def time(self) -> int:
        return self.team.time

    def step(
        self, controls: np.ndarray, noise_diags: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dead-reckon ``L`` timesteps; requires no communication.

        ``controls`` are the ``(L, 2)`` measured velocities and
        ``noise_diags`` the ``(L, 2)`` process-noise diagonals
        ``[q_v, q_omega]`` of the steps (``L = 1`` for a single step). The
        node's row is a team of one for :func:`split_ekf.propagate_team`,
        so it gets exactly its arithmetic in a team, the closed-form
        covariances of the whole stretch included. Returns its row of the
        segment's block. The node then holds the call's ``end``, a team of
        one, which its corrections change; the team it was over is left as
        it is.
        """
        t, rid = self.team, self.robot
        a = t.index[rid]
        alone = SplitTeamState(
            (rid,), {rid: 0}, t.mean[a:a + 1], t.cov[a:a + 1], t.jac_accum[a:a + 1], t.time
        )
        (means, covs, accs), self.team = split_ekf.propagate_team(
            alone, np.asarray(controls)[None], np.asarray(noise_diags)[None], dt
        )
        return means[0], covs[:, 0], accs[0]

    def landmark_message(
        self, z: np.ndarray | None = None, landmark: int | None = None
    ) -> LandmarkMessage:
        """Snapshot the node's row for the server, as floats.

        Called with ``z`` and ``landmark`` when this robot observed, without
        arguments when it was observed.
        """
        t = self.team
        a = t.index[self.robot]
        return LandmarkMessage(
            self.robot, t.time, tuple(t.mean[a].tolist()), tuple(t.cov[a].ravel().tolist()),
            tuple(t.jac_accum[a].tolist()), landmark, z,
        )

    def apply_update(self, msg: UpdateMessage) -> bool:
        """Apply a server correction; returns ``False`` for a stale message.

        A message for a past timestep is discarded (the robot behaves as if
        it had missed the epoch); delayed-measurement replay is out of scope.
        The payload floats go to :func:`split_ekf.apply_update` as they are,
        which corrects the node's row in place with
        :func:`split_ekf.correct_row`, the kernel the server's shadow of
        this robot runs on the same single frame ``(r, D)``. Raises
        :class:`NumericalError`, keeping the row as it is, for a payload
        with a non-finite entry and for a correction that fails its check.
        """
        if msg.recipient != self.robot:
            raise ProtocolError(f"robot {self.robot} received update for {msg.recipient}")
        if msg.time != self.team.time:
            return False
        split_ekf.apply_update(self.team, self.robot, msg.residual_payload, msg.gain_payload)
        return True


class CooperationServer:
    """Holds the cross-correlation factors and produces update messages.

    The server learns which robots missed an epoch from the channel's
    delivery report (per-epoch acknowledgments); store blocks between two
    missed robots are frozen for that epoch so the store keeps mirroring the
    centralized filter's cross covariances.

    ``meas_noise_cov`` must be a finite, exactly symmetric, positive
    semidefinite 2x2 (zero allowed), else ``ValueError``; it is read once.

    ``corrupt_cross_sign`` is a negative-control hook for the verification
    suite: it flips the sign of every store update, which must break the
    equivalence checks.
    """

    def __init__(
        self,
        team: Iterable[int],
        meas_noise_cov: np.ndarray,
        *,
        corrupt_cross_sign: bool = False,
    ):
        self.store = CrossFactorStore(team)
        noise = np.asarray(meas_noise_cov, dtype=float)
        if noise.shape != (2, 2) or not np.isfinite(noise).all():
            raise ValueError(f"measurement noise covariance is not a finite 2x2: {noise.tolist()}")
        (n00, n01), (n10, n11) = noise.tolist()
        if not (n01 == n10 and n00 >= 0.0 and n11 >= 0.0 and n00 * n11 >= n01 * n01):
            raise ValueError(f"measurement noise covariance is not symmetric PSD: {noise.tolist()}")
        self.meas_noise = (n00, n01, n11)
        self.events: list[ProtocolEvent] = []
        if corrupt_cross_sign:
            self.store._update_sign = 1.0

    def handle_epoch(
        self,
        msgs: Sequence[LandmarkMessage],
        time: int,
        missed: AbstractSet[int] = frozenset(),
    ) -> dict[int, UpdateMessage]:
        """Process every measurement announced for ``time``.

        Returns one update message per robot outside ``missed`` whose update
        factor ``D_i`` is non-zero in some processed measurement (empty when
        there is none; the store is untouched when every ``D_i`` is zero). ``D_i``
        is exactly zero for a robot that is neither measured nor correlated
        with a measured robot; its correction would be an exact no-op, so it
        gets no message. A ``missed`` robot gets none either: the channel
        does not reach it. Measurements whose endpoints did not all reach
        the server are discarded with a logged event, as are measurements
        with a numerically invalid innovation.

        The senders' shadow states are :data:`split_ekf.Row` floats, one per
        sender, in the order of their first messages. A measurement is
        linearized at the shadows as the earlier measurements left them,
        and corrects each with :func:`split_ekf.correct_row`, given ``r``
        and its ``D_i``, before it keeps any: a shadow that fails its check
        (the first names the robot in the logged event) discards the
        measurement whole, and no shadow, store block or frame takes any
        part of it. A sender or landmark outside the team raises
        :class:`ProtocolError`, and a ``missed`` robot outside the team
        ``KeyError``, before any block changes.
        """
        for msg in msgs:
            if msg.time != time:
                raise ProtocolError(
                    f"message from robot {msg.sender} is for t={msg.time}, epoch is t={time}"
                )
            if msg.sender not in self.store.index:
                raise ProtocolError(f"unknown robot {msg.sender}")
            if msg.landmark is not None and msg.landmark not in self.store.index:
                raise ProtocolError(f"robot {msg.sender} names unknown landmark {msg.landmark}")

        # Latest state snapshot per sender; observers may send several
        # announcements but their (mean, cov, jac_accum) snapshots agree.
        snapshots = {msg.sender: msg for msg in msgs}
        announced = sorted(
            (m for m in msgs if m.z is not None),
            key=lambda m: (m.sender, m.landmark),
        )

        usable: list[LandmarkMessage] = []
        for m in announced:
            bad = [r for r in (m.sender, m.landmark) if r in missed or r not in snapshots]
            if bad:
                self.events.append(ProtocolEvent(
                    time, EVENT_PAIR_UNREACHABLE,
                    f"observer={m.sender} landmark={m.landmark} unreachable={sorted(bad)}",
                ))
                continue
            usable.append(m)

        # Shadow copies of the senders' states as floats, in the order of
        # their first messages. Every processed measurement corrects all of
        # them, so later ones are linearized at corrected values.
        shadows = {rid: (msg.mean, msg.cov, msg.jac_accum) for rid, msg in snapshots.items()}
        sender_pos = np.array([self.store.index[rid] for rid in shadows])
        frozen = self.store.mask(missed) if missed else None

        touched = np.zeros(len(self.store.team), dtype=bool)
        singles: list[tuple[np.ndarray, np.ndarray]] = []
        # The measured pair's arithmetic runs on floats, which do not warn;
        # the team-sized products can still overflow on finite frames, and
        # the checks then refuse the result.
        with np.errstate(over="ignore", invalid="ignore"):
            for m in usable:
                a, b = m.sender, m.landmark
                try:
                    innov = split_ekf.innovation(
                        shadows, a, b, self.store.factor(a, b), m.z, self.meas_noise
                    )
                    factors = split_ekf.update_factors(self.store, innov)
                    white = innov.white_residual.tolist()
                    gains = factors.reshape(-1, 6).take(sender_pos, axis=0).tolist()
                    corrected = [
                        split_ekf.correct_row(rid, *row, white, gain)
                        for (rid, row), gain in zip(shadows.items(), gains)
                    ]
                except NumericalError as exc:
                    # Skip the measurement atomically: neither the shadows
                    # nor the store absorb any part of it.
                    self.events.append(ProtocolEvent(
                        time, EVENT_NUMERIC_S, f"observer={a} landmark={b} reason={exc}",
                    ))
                    continue
                shadows = dict(zip(shadows, corrected))
                # The store returns the robots with a non-zero D_i: the only
                # ones whose blocks, payloads and messages this measurement
                # changes.
                touched |= self.store.update(factors, frozen)
                singles.append((innov.white_residual, factors))

        # A missed robot gets no frame, though its store rows may have changed.
        positions = (touched if frozen is None else touched & ~frozen).nonzero()[0]
        k = len(positions)
        if not k:
            return {}
        if len(singles) == 1:
            ((white_residual, factors),) = singles
            kind, vecs, mats = "single", [white_residual.tolist()] * k, factors[positions]
        else:
            # Each recipient's corrections summed over the epoch's
            # measurements, as one product: with the measurements' factors
            # side by side and their whitened residuals stacked, D r and D D'
            # are the sums. Only the recipients' rows are gathered.
            kind = "summed"
            vecs, mats = split_ekf.correction(
                np.concatenate([factors[positions] for _, factors in singles], axis=2),
                np.concatenate([white_residual for white_residual, _ in singles]),
            )
            vecs = vecs.tolist()
        recipients = [self.store.team[pos] for pos in positions]
        return {
            i: UpdateMessage(i, time, kind, tuple(vec), tuple(mat))
            for i, vec, mat in zip(recipients, vecs, mats.reshape(k, -1).tolist())
        }
