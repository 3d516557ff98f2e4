"""Deterministic robot-to-server channel with scheduled and random dropouts.

A robot is either fully connected or fully disconnected for a whole epoch
(both the uplink landmark message and the downlink update message), matching
the single per-epoch missed set the server works with. The scenario
(:class:`scenario.Scenario`) is the one description of the channel; robot
``r`` is disconnected at step ``t`` when any of these holds:

- ``t`` lies in one of its ``dropout_windows`` ``(start_s, end_s]``, both
  ends rounded to steps by :func:`scenario.seconds_to_step`,
- its true position lies inside one of the ``zones`` rectangles, edges
  included,
- its loss draw falls below ``bernoulli_p``.

``channel_epoch(sc, positions, t, seed)`` takes the team's true poses at
``t`` as ``(N, 3)`` rows in team order (row ``r - 1`` is robot ``r``). Loss
draws come from one generator stream per ``(seed, t)`` (numpy
``SeedSequence``/``default_rng``): robot ``r`` gets the stream's ``r``-th
uniform. The stream is prefix-stable, so a robot's outcome does not depend
on the size of the team, and it is replayable.

A split filter's lane adds to an epoch's missed set each unmeasured robot
that refused its update frame (:func:`harness.split_steps`), so the set
is the one record of who did not take the epoch's correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import RelativeMeasurement
from .scenario import Scenario, check_seed_key, seconds_to_step


@dataclass(frozen=True)
class DeliveryReport:
    """Connectivity outcome of one epoch: a partition of the team."""

    time: int
    delivered: frozenset[int]
    missed: frozenset[int]

    def __post_init__(self) -> None:
        if self.delivered & self.missed:
            raise ValueError("a robot cannot be both delivered and missed")


def channel_epoch(
    sc: Scenario,
    positions: np.ndarray,
    t: int,
    seed: int | Sequence[int],
) -> DeliveryReport:
    """Connectivity of every robot of ``sc`` at step ``t``, given the team's
    true poses ``positions`` ``(N, 3)`` at ``t``; deterministic given ``seed``,
    an int or a tuple or list of ints (:func:`scenario.check_seed_key`)."""
    key = check_seed_key(seed)
    missed = {
        w.robot for w in sc.dropout_windows
        if seconds_to_step(w.start_s, sc.dt_s) < t <= seconds_to_step(w.end_s, sc.dt_s)
    }
    if sc.zones or sc.bernoulli_p > 0.0:
        lost = np.zeros(sc.n_robots, dtype=bool)
        x, y = positions[:, 0], positions[:, 1]
        for x_min, y_min, x_max, y_max in sc.zones:
            lost |= (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)
        if sc.bernoulli_p > 0.0:
            draws = np.random.default_rng([*key, t]).random(sc.n_robots + 1)
            lost |= draws[1:] < sc.bernoulli_p
        missed.update((np.flatnonzero(lost) + 1).tolist())
    return DeliveryReport(
        time=t, delivered=frozenset(sc.robot_ids) - missed, missed=frozenset(missed)
    )


def gate_measurement(report: DeliveryReport, meas: RelativeMeasurement) -> bool:
    """True iff both endpoints of the measurement can reach the server."""
    return meas.observer in report.delivered and meas.landmark in report.delivered
