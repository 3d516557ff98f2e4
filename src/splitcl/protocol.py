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
Robots that receive the message apply it; robots that miss it simply keep
their propagated estimate, and the server skips the store blocks between
pairs of missed robots. A message checks its payload shapes when it is
constructed, a decoded one included (:mod:`messages`), so the server and
the robots do not check them again.

Multiple measurements in the same epoch are processed one at a time in a
fixed order (ascending ``(observer, landmark)``).
The server keeps shadow copies of the reporting robots' states, a
:class:`split_ekf.SplitTeamState` of the senders with one row per robot, so
later measurements in the epoch are linearized against already-corrected
values. Each processed measurement corrects all rows in place with
:func:`split_ekf.apply_update`, the call each robot makes on itself, given
the measurement's single frame ``(r, D)``; the call forms each row's pair
``(D_i r, D_i D_i')`` on floats, so a row is bit for bit what its robot
computes from that frame. Every row must pass its
check, or the measurement is skipped whole. The server sends each touched
robot that frame or, after several measurements, one summed update
message, the sum of its pairs over the epoch.
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

    Holds its state as a :class:`split_ekf.SplitTeamState` of one row (pose
    estimate, 3x3 covariance, the accumulated Jacobian's 2-vector shear),
    independent of the team size. A correction changes the state's mean and
    covariance in place. The simulator advances the whole team, each split
    filter's copy a lane of one :class:`split_ekf.SplitTeamState`, a segment
    between two epochs per kernel call, and at an epoch wraps a robot's view
    of its lane at the segment's end in a node (:meth:`over`) to apply its
    :class:`UpdateMessage` there, in place. Only robots whose update factor
    is non-zero receive a message; for the others the correction would be
    an exact no-op. :meth:`step` is the same propagation for a node on its
    own, as a team of one.
    """

    __slots__ = ("state",)

    def __init__(self, robot_id: int, mean: np.ndarray, cov: np.ndarray, time: int = 0):
        self.state = SplitTeamState.initialize((robot_id,), mean, cov, time)

    @classmethod
    def over(cls, state: SplitTeamState) -> "RobotNode":
        """A node holding the one-row ``state`` as it is, e.g. a robot's
        view of a team state (:meth:`split_ekf.SplitTeamState.robot`)."""
        node = cls.__new__(cls)
        node.state = state
        return node

    @property
    def time(self) -> int:
        return self.state.time

    def step(
        self, controls: np.ndarray, noise_diags: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dead-reckon ``L`` timesteps; requires no communication.

        ``controls`` are the ``(L, 2)`` measured velocities and
        ``noise_diags`` the ``(L, 2)`` process-noise diagonals
        ``[q_v, q_omega]`` of the steps (``L = 1`` for a single step). The
        node's state is a team of one for :func:`split_ekf.propagate_team`,
        so it gets exactly its row's arithmetic in a team, the closed-form
        covariances of the whole stretch included. Returns its row of the
        segment's block; the node keeps a copy of the block's last step as
        its state, which its corrections change.
        """
        s = self.state
        means, covs, accs = split_ekf.propagate_team(
            s, np.asarray(controls)[None], np.asarray(noise_diags)[None], dt
        )
        self.state = SplitTeamState(
            s.team, s.index, means[:, -1].copy(), covs[-1].copy(), accs[:, -1], s.time + len(covs)
        )
        return means[0], covs[:, 0], accs[0]

    def landmark_message(
        self, z: np.ndarray | None = None, landmark: int | None = None
    ) -> LandmarkMessage:
        """Snapshot the local state for the server.

        Called with ``z`` and ``landmark`` when this robot observed, without
        arguments when it was observed.
        """
        s = self.state
        return LandmarkMessage(
            sender=s.team[0],
            time=s.time,
            mean=s.mean[0].copy(),
            cov=s.cov[0].copy(),
            jac_accum=s.jac_accum[0].copy(),
            landmark=landmark,
            z=None if z is None else np.asarray(z, dtype=float).copy(),
        )

    def apply_update(self, msg: UpdateMessage) -> bool:
        """Apply a server correction; returns ``False`` for a stale message.

        A message for a past timestep is discarded (the robot behaves as if
        it had missed the epoch); delayed-measurement replay is out of scope.
        The payloads go to :func:`split_ekf.apply_update` as they are, which
        corrects the state in place; a single frame ``(r, D)`` becomes its
        pair ``(D r, D D')`` there, exactly as on the server's shadow of this
        robot. Raises :class:`NumericalError`, keeping the state as it is,
        for a payload with a non-finite entry and for a correction that
        fails its check.
        """
        (robot_id,) = self.state.team
        if msg.recipient != robot_id:
            raise ProtocolError(f"robot {robot_id} received update for {msg.recipient}")
        if msg.time != self.state.time:
            return False
        split_ekf.apply_update(self.state, msg.residual_payload, msg.gain_payload)
        return True


class CooperationServer:
    """Holds the cross-correlation factors and produces update messages.

    The server learns which robots missed an epoch from the channel's
    delivery report (per-epoch acknowledgments); store blocks between two
    missed robots are frozen for that epoch so the store keeps mirroring the
    centralized filter's cross covariances.

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
        self.meas_noise_cov = np.asarray(meas_noise_cov, dtype=float).copy()
        self.events: list[ProtocolEvent] = []
        if corrupt_cross_sign:
            self.store._update_sign = 1.0

    @property
    def team(self) -> tuple[int, ...]:
        return self.store.team

    def handle_epoch(
        self,
        msgs: Sequence[LandmarkMessage],
        time: int,
        missed: AbstractSet[int] = frozenset(),
    ) -> dict[int, UpdateMessage]:
        """Process every measurement announced for ``time``.

        Returns one update message per robot whose update factor ``D_i`` is
        non-zero in some processed measurement (empty when nothing was
        processed, in which case the store is untouched). ``D_i`` is exactly
        zero for a robot that is neither measured nor correlated with a
        measured robot; its correction would be an exact no-op, so it gets
        no message. Measurements whose endpoints did not all reach the
        server are discarded with a logged event, as are measurements with
        a numerically invalid innovation.

        The senders' shadow states are the rows of one
        :class:`split_ekf.SplitTeamState`, in the order of their first
        messages. A measurement is linearized at the rows as the earlier
        measurements left them, and corrects every row at once in
        :func:`split_ekf.apply_update`, given ``r`` and the rows' ``D``. A
        row that fails its check (the first in row order names the robot
        in the logged event) discards the measurement whole: no row, no
        store block and no frame takes any part of it.
        """
        for msg in msgs:
            if msg.time != time:
                raise ProtocolError(
                    f"message from robot {msg.sender} is for t={msg.time}, epoch is t={time}"
                )
            if msg.sender not in self.store.index:
                raise ProtocolError(f"unknown robot {msg.sender}")

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
        if not usable:
            return {}

        # Shadow copies of the senders' states, one row per sender, in the
        # order of their first messages. Every processed measurement corrects
        # all rows at once, so later ones are linearized at corrected values.
        senders = tuple(snapshots)
        rows = SplitTeamState(
            senders,
            {rid: r for r, rid in enumerate(senders)},
            np.array([snapshots[rid].mean for rid in senders]),
            np.array([snapshots[rid].cov for rid in senders]),
            np.array([snapshots[rid].jac_accum for rid in senders]),
            time,
        )
        sender_pos = np.array([self.store.index[rid] for rid in senders])

        touched = np.zeros(len(self.team), dtype=bool)
        singles: list[tuple[np.ndarray, np.ndarray]] = []
        # The measured pair's arithmetic runs on floats, which do not warn;
        # the team-sized products can still overflow on finite frames, and
        # the checks then refuse the result.
        with np.errstate(over="ignore", invalid="ignore"):
            for m in usable:
                a, b = m.sender, m.landmark
                try:
                    innov = split_ekf.innovation(
                        rows, a, b, self.store.factor(a, b), m.z, self.meas_noise_cov
                    )
                    factors = split_ekf.update_factors(self.store, innov)
                    split_ekf.apply_update(rows, innov.white_residual, factors[sender_pos])
                except NumericalError as exc:
                    # Skip the measurement atomically: neither the shadow
                    # rows nor the store absorb any part of it.
                    self.events.append(ProtocolEvent(
                        time, EVENT_NUMERIC_S, f"observer={a} landmark={b} reason={exc}",
                    ))
                    continue
                # The store returns the robots with a non-zero D_i: the only
                # ones whose blocks, payloads and messages this measurement
                # changes.
                touched |= self.store.update(factors, missed)
                singles.append((innov.white_residual, factors))

        if not singles:
            return {}
        positions = touched.nonzero()[0]
        recipients = [(pos, self.store.team[pos]) for pos in positions]
        if len(singles) == 1:
            white_residual, factors = singles[0]
            return {
                i: UpdateMessage(
                    recipient=i,
                    time=time,
                    kind="single",
                    residual_payload=white_residual,
                    gain_payload=factors[pos],
                )
                for pos, i in recipients
            }
        # Each recipient's corrections summed over the epoch's measurements,
        # as one product: with the measurements' factors side by side and
        # their whitened residuals stacked, D r and D D' are the sums.
        factors = np.concatenate([factors for _, factors in singles], axis=2)[positions]
        vec_sum, mat_sum = split_ekf.correction(
            factors, np.concatenate([white_residual for white_residual, _ in singles])
        )
        return {
            i: UpdateMessage(
                recipient=i,
                time=time,
                kind="summed",
                residual_payload=vec_sum[row],
                gain_payload=mat_sum[row],
            )
            for row, (_, i) in enumerate(recipients)
        }
