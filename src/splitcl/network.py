"""Deterministic robot-to-server channel with scheduled and random dropouts.

A robot is either fully connected or fully disconnected for a whole epoch
(both the uplink landmark message and the downlink update message), matching
the single per-epoch missed set the server works with. Disconnection causes:

- a scheduled window ``(start_step, end_step]`` for that robot,
- the robot's true position lying inside a dropout zone,
- an independent Bernoulli loss draw.

Loss draws come from one generator stream per ``(seed, timestep)`` (numpy
``SeedSequence``/``default_rng``), indexed by robot id: robot ``r`` gets
the stream's ``r``-th uniform. The stream is prefix-stable, so a robot's
outcome depends on neither the evaluation order nor the rest of the team,
and it is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import RelativeMeasurement


@dataclass(frozen=True)
class DropoutWindow:
    """Robot ``robot`` is disconnected for steps ``start_step < k <= end_step``."""

    robot: int
    start_step: int
    end_step: int

    def __post_init__(self) -> None:
        if self.start_step > self.end_step:
            raise ValueError("dropout window must not end before it starts")

    def active(self, t: int) -> bool:
        return self.start_step < t <= self.end_step


@dataclass(frozen=True)
class DropoutZone:
    """Axis-aligned rectangle (meters) inside which robots lose the server link."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, pose: np.ndarray) -> bool:
        return bool(
            self.x_min <= pose[0] <= self.x_max
            and self.y_min <= pose[1] <= self.y_max
        )


@dataclass(frozen=True)
class DropoutSchedule:
    """Everything that can take a robot off the network."""

    windows: tuple[DropoutWindow, ...] = ()
    bernoulli_p: float = 0.0
    zones: tuple[DropoutZone, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.bernoulli_p < 1.0:
            raise ValueError("loss probability must be in [0, 1)")


@dataclass(frozen=True)
class DeliveryReport:
    """Connectivity outcome of one epoch: a partition of the team."""

    time: int
    delivered: frozenset[int]
    missed: frozenset[int]

    def __post_init__(self) -> None:
        if self.delivered & self.missed:
            raise ValueError("a robot cannot be both delivered and missed")


def perfect_report(team: Sequence[int], t: int) -> DeliveryReport:
    return DeliveryReport(time=t, delivered=frozenset(team), missed=frozenset())


def channel_epoch(
    schedule: DropoutSchedule,
    poses: Mapping[int, np.ndarray],
    t: int,
    seed: int | Sequence[int],
) -> DeliveryReport:
    """Connectivity of every robot at step ``t``; deterministic given ``seed``."""
    missed = {w.robot for w in schedule.windows if w.active(t)} & poses.keys()
    if schedule.zones:
        missed.update(
            robot for robot, pose in poses.items()
            if any(zone.contains(pose) for zone in schedule.zones)
        )
    if schedule.bernoulli_p > 0.0:
        seed_key = [seed] if isinstance(seed, int) else list(seed)
        draws = np.random.default_rng(seed_key + [t]).random(max(poses, default=-1) + 1)
        ids = np.fromiter(poses, dtype=np.intp, count=len(poses))
        missed.update(ids[draws[ids] < schedule.bernoulli_p].tolist())
    delivered = frozenset(poses) - missed
    return DeliveryReport(time=t, delivered=delivered, missed=frozenset(missed))


def gate_measurement(report: DeliveryReport, meas: RelativeMeasurement) -> bool:
    """True iff both endpoints of the measurement can reach the server."""
    return meas.observer in report.delivered and meas.landmark in report.delivered
