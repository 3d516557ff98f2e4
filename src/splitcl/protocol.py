"""Robot and server state machines for server-assisted cooperative localization.

One epoch goes as follows: every robot propagates locally. If a robot took a
relative (or absolute) measurement it announces it, and every robot involved
in any measurement sends the server a :class:`LandmarkMessage`. The server,
which is the only party holding the cross-correlation factors, computes one
whitened residual and one update factor per measurement, folds the factors
into its store, and sends a fixed-size :class:`UpdateMessage` only to the
robots whose update factor is non-zero: the measured robots and those
correlated with them. Every other robot's factor is exactly zero, so its
correction would be an exact no-op; it gets no message and does no work.
Those robots are the measurement's support. The store adds only the block
pairs between two of them and returns the support, so the server collects
the recipients without scanning the factors again.
The summed payloads of a multi-measurement epoch are formed once, at the
end, over the recipients' rows only.
Robots that receive the message apply it; robots that miss it simply keep
their propagated estimate, and the server skips the store blocks between
pairs of missed robots.

Multiple measurements in the same epoch are processed one at a time in a
fixed order (ascending ``(observer, landmark)``, absolutes after relatives).
The server keeps a scratch copy of the measured robots' estimates so later
measurements in the epoch are linearized against already-corrected values,
and sends a single summed update message per touched robot at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from . import split_ekf
from .linalg import NumericalError
from .messages import LandmarkMessage, ProtocolError, UpdateMessage
from .split_ekf import CrossFactorStore, SplitRobotState

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

    Holds one :class:`SplitRobotState` (pose estimate, 3x3 covariance, the
    accumulated Jacobian's 2-vector shear), independent of the team size.
    The simulator does not step nodes one by one: it advances the whole
    team as one :class:`split_ekf.SplitTeamState`, a whole segment between
    two measurement epochs per kernel call, and, at an epoch, wraps each
    robot's rows in a node (:meth:`over`) to
    build its :class:`LandmarkMessage` and apply its :class:`UpdateMessage`,
    then writes the corrected state back. Only robots whose update factor is
    non-zero receive a message; for the others the correction would be an
    exact no-op, so they keep their propagated rows. :meth:`step` is the
    same propagation for a node on its own, a segment of one step.
    """

    __slots__ = ("state",)

    def __init__(self, robot_id: int, mean: np.ndarray, cov: np.ndarray, time: int = 0):
        self.state = SplitRobotState.initialize(robot_id, mean, cov, time)

    @classmethod
    def over(cls, state: SplitRobotState) -> "RobotNode":
        """A node holding ``state`` as it is, e.g. a row of a team state."""
        node = cls.__new__(cls)
        node.state = state
        return node

    @property
    def robot_id(self) -> int:
        return self.state.robot_id

    @property
    def time(self) -> int:
        return self.state.time

    def step(self, control: np.ndarray, noise_diag: np.ndarray, dt: float) -> None:
        """Dead-reckon one timestep; requires no communication.

        ``noise_diag`` is the diagonal ``[q_v, q_omega]`` of the process
        noise covariance (see :func:`split_ekf.propagate`).
        """
        self.state = split_ekf.propagate(self.state, control, noise_diag, dt)

    def landmark_message(
        self, z: np.ndarray | None = None, landmark: int | None = None
    ) -> LandmarkMessage:
        """Snapshot the local state for the server.

        Called with ``z`` (and ``landmark`` for a relative measurement) when
        this robot observed, without arguments when it was observed.
        """
        return LandmarkMessage(
            sender=self.state.robot_id,
            time=self.state.time,
            mean=self.state.mean.copy(),
            cov=self.state.cov.copy(),
            jac_accum=self.state.jac_accum.copy(),
            landmark=landmark,
            z=None if z is None else np.asarray(z, dtype=float).copy(),
        )

    def apply_update(self, msg: UpdateMessage) -> bool:
        """Apply a server correction; returns ``False`` for a stale message.

        A message for a past timestep is discarded (the robot behaves as if
        it had missed the epoch); delayed-measurement replay is out of scope.
        """
        if msg.recipient != self.state.robot_id:
            raise ProtocolError(
                f"robot {self.state.robot_id} received update for {msg.recipient}"
            )
        if msg.time != self.state.time:
            return False
        if msg.kind == "single":
            self.state = split_ekf.apply_update(
                self.state, msg.gain_payload, msg.residual_payload
            )
        else:
            self.state = split_ekf.apply_summed_update(
                self.state, msg.residual_payload, msg.gain_payload
            )
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
        """
        for msg in msgs:
            if msg.time != time:
                raise ProtocolError(
                    f"message from robot {msg.sender} is for t={msg.time}, epoch is t={time}"
                )
            if msg.sender not in self.team:
                raise ProtocolError(f"unknown robot {msg.sender}")

        # Latest state snapshot per sender; observers may send several
        # announcements but their (mean, cov, jac_accum) snapshots agree.
        snapshots = {msg.sender: msg for msg in msgs}
        announcements = [m for m in msgs if m.z is not None]
        relative = sorted(
            (m for m in announcements if m.landmark is not None),
            key=lambda m: (m.sender, m.landmark),
        )
        absolute = sorted(
            (m for m in announcements if m.landmark is None),
            key=lambda m: m.sender,
        )

        usable: list[LandmarkMessage] = []
        for m in relative + absolute:
            endpoints = (m.sender,) if m.landmark is None else (m.sender, m.landmark)
            bad = [r for r in endpoints if r in missed or r not in snapshots]
            if bad:
                self.events.append(ProtocolEvent(
                    time, EVENT_PAIR_UNREACHABLE,
                    f"observer={m.sender} landmark={m.landmark} unreachable={sorted(bad)}",
                ))
                continue
            usable.append(m)
        if not usable:
            return {}

        # Scratch copies of the measured robots, refreshed after every
        # sub-measurement so later ones are linearized at corrected values.
        shadow = {
            rid: SplitRobotState(rid, s.mean.copy(), s.cov.copy(), s.jac_accum, time)
            for rid, s in snapshots.items()
        }

        index = self.store.index
        touched = np.zeros(len(self.team), dtype=bool)
        singles: list[tuple[np.ndarray, np.ndarray]] = []
        for m in usable:
            a = m.sender
            observer = shadow[a]
            if m.landmark is None:
                landmark = None
                cross = None
            else:
                landmark = shadow[m.landmark]
                cross = self.store.factor(a, m.landmark)
            try:
                innov = split_ekf.innovation(
                    observer, landmark, cross, m.z, self.meas_noise_cov
                )
                factors = split_ekf.update_factors(self.store, observer, landmark, innov)
                new_shadow = {
                    rid: split_ekf.apply_update(state, factors[index[rid]], innov.white_residual)
                    for rid, state in shadow.items()
                }
            except NumericalError as exc:
                # Skip the measurement atomically: neither the scratch
                # beliefs nor the store absorb any part of it.
                self.events.append(ProtocolEvent(
                    time, EVENT_NUMERIC_S,
                    f"observer={a} landmark={m.landmark} reason={exc}",
                ))
                continue
            shadow = new_shadow
            # The store returns the robots with a non-zero D_i: the only
            # ones whose blocks, payloads and messages this measurement
            # changes.
            touched |= self.store.update(factors, missed)
            singles.append((innov.white_residual, factors))

        if not singles:
            return {}
        positions = touched.nonzero()[0]
        recipients = [(pos, self.team[pos]) for pos in positions]
        if len(singles) == 1:
            white_residual, factors = singles[0]
            return {
                i: UpdateMessage(
                    recipient=i,
                    time=time,
                    kind="single",
                    residual_payload=white_residual.copy(),
                    gain_payload=factors[pos].copy(),
                )
                for pos, i in recipients
            }
        # Each recipient's corrections summed over the epoch's measurements,
        # in their processing order.
        vec_sum = np.zeros((len(positions), 3))
        mat_sum = np.zeros((len(positions), 3, 3))
        for white_residual, factors in singles:
            rows = factors[positions]
            vec_sum += rows @ white_residual
            mat_sum += rows @ rows.transpose(0, 2, 1)
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
