"""Executable equivalence checks for the split protocol stack.

``check_exact_equivalence`` runs the full message-passing stack and the
centralized EKF side by side on one realization under perfect communication,
the channel of the scenario without its dropouts, and reports the largest
deviation between them over the whole run. The two
must agree to floating-point accumulation error; a tolerance of 1e-8 over
hundreds of steps is the acceptance gate.

``check_dropout_equivalence`` does the same under the scenario's dropout
schedule, comparing against the centralized filter's partial-update rule
driven by the identical per-epoch missed sets, and additionally verifies
that a robot that misses an epoch keeps exactly its propagated state.

Verify runs no filter of its own: it drives the loops that
:func:`harness.run_once` runs, :func:`harness.split_steps` with one lane
and :func:`harness.joint_steps`, on one realization and one channel,
which both read a report from at every epoch (the split side first, which
records a refused frame there as a miss), and only compares what they
hand over: the split side one block per segment
(:func:`harness.segments`), the joint side one belief per step, taken as
the step comes, so no more than one step's joint covariance is held. At
each step that covariance gets its positive-semidefiniteness test, and
the store's reconstruction ``A C A'`` is compared with its every
off-diagonal block. The store changes only at an epoch, so it is
snapshotted after each epoch, not after every segment, and the steps
before a segment's last are compared with that snapshot. After a
segment's last step the robots' stacked means and own covariances are
compared with the joint means and diagonal blocks of the whole segment at
once. Each deviation is reduced to one per step and robot (a cross block
counts for its lower-id robot), and the step and robot of the largest are
reported.

Both checks also police three properties along the way: the centralized
joint covariance stays positive semidefinite (to tolerance), no received
update ever increases a robot's covariance trace, and per segment one
robot in turn, stepped alone through the whole segment by one
:meth:`RobotNode.step` call from its rows of the team the segment starts
from, lands bit for bit on its row of the segment's block. The split side
forms a segment's covariances in closed form while the centralized filter
runs its ``F P F' + G Q G'`` recurrence step by step, so the comparison
also checks the closed form against an independent recursion. Both draw
the realization of ``sc``, whose truth is simulated once per scenario
(:func:`harness.simulate_truth`). A scenario is checked when it is built
(:class:`scenario.Scenario`), and not again here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import scenario as scen
from .harness import (
    JOINT_EKF,
    PARTIAL_ORACLE,
    build_realization,
    delivery_reports,
    joint_steps,
    seed_key,
    split_steps,
)
from .linalg import EIG_TOL
from .network import gate_measurement
from .protocol import CooperationServer, ProtocolEvent, RobotNode
from .split_ekf import SplitTeamState

DEFAULT_TOLERANCE = 1e-8


@dataclass(slots=True)
class EquivalenceReport:
    """Outcome of one side-by-side run.

    ``events`` holds what both filters' loops and the server logged.
    Every step's joint covariance ``P`` must pass a Cholesky test of
    ``P + EIG_TOL I``; ``min_joint_eigenvalue`` is the minimum over the
    measurement epochs, the last step and any step failing that test.
    """

    mode: str
    max_position_diff: float
    max_heading_diff: float
    max_cov_diff: float
    max_cross_diff: float
    worst_time: int
    worst_robot: int
    min_joint_eigenvalue: float
    max_trace_increase: float
    missed_updates_exact: bool
    lone_steps_exact: bool
    n_epochs: int
    n_measurements: int
    events: list[ProtocolEvent]

    def max_discrepancy(self) -> float:
        return max(
            self.max_position_diff,
            self.max_heading_diff,
            self.max_cov_diff,
            self.max_cross_diff,
        )

    def passed(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return (
            self.max_discrepancy() <= tol
            and self.missed_updates_exact
            and self.lone_steps_exact
            and self.min_joint_eigenvalue >= -EIG_TOL
            and self.max_trace_increase <= 1e-12
        )

    def summary(self) -> str:
        return (
            f"{self.mode}: max diff {self.max_discrepancy():.3e} "
            f"(position {self.max_position_diff:.3e}, heading {self.max_heading_diff:.3e}, "
            f"covariance {self.max_cov_diff:.3e}, cross {self.max_cross_diff:.3e}) "
            f"worst at t={self.worst_time} robot={self.worst_robot}; "
            f"min joint eig {self.min_joint_eigenvalue:.3e}; "
            f"max trace increase {self.max_trace_increase:.3e}; "
            f"lone steps {'exact' if self.lone_steps_exact else 'DIFFER'}; "
            f"{self.n_epochs} epochs, {self.n_measurements} measurements"
        )


def check_exact_equivalence(
    sc: scen.Scenario, seed=None, corrupt_cross_sign: bool = False
) -> EquivalenceReport:
    """Split stack vs centralized EKF under perfect communication: the
    channel of ``sc`` without its dropouts."""
    return _run_side_by_side(sc, seed, False, corrupt_cross_sign)


def check_dropout_equivalence(
    sc: scen.Scenario, seed=None, corrupt_cross_sign: bool = False
) -> EquivalenceReport:
    """Split stack vs partial-update centralized EKF under the scenario's dropouts."""
    return _run_side_by_side(sc, seed, True, corrupt_cross_sign)


def _cholesky_passes(belief, shift: np.ndarray) -> bool:
    """Whether the joint covariance plus ``shift = EIG_TOL I`` has a Cholesky factor."""
    try:
        np.linalg.cholesky(belief.joint_matrix() + shift)
    except np.linalg.LinAlgError:
        return False
    return True


def _run_side_by_side(
    sc: scen.Scenario, seed, dropouts: bool, corrupt_cross_sign: bool
) -> EquivalenceReport:
    key = seed_key(sc, seed)
    real = build_realization(sc, key)
    reports = delivery_reports(sc if dropouts else scen.strip_dropouts(sc), real, key)

    ids = sc.robot_ids
    server = CooperationServer(
        ids, sc.meas_noise_cov(), corrupt_cross_sign=corrupt_cross_sign
    )
    events: list[ProtocolEvent] = []
    split = split_steps(sc, real, [(reports, server, events)])
    joint = joint_steps(sc, real, reports, events, PARTIAL_ORACLE if dropouts else JOINT_EKF)
    n = len(ids)
    # Blocks on and below the block diagonal: a cross block counts for its lower-id robot.
    robot = np.arange(3 * n) // 3
    below = (robot <= robot[:, None]).reshape(n, 3, n, 3)
    shift = EIG_TOL * np.eye(3 * n)

    # Largest position, heading, own-covariance and cross-block deviation
    # over the run, and per step and robot the largest of the four.
    max_diffs = np.zeros(4)
    local = np.empty((sc.n_steps, n))
    min_eig = math.inf
    max_trace_increase = -math.inf
    missed_exact = True
    lone_exact = True
    n_epochs = n_meas = 0

    start = SplitTeamState.initialize(ids, real.init_means, sc.initial_cov())
    # The split loop hands a segment over after its epoch: the steps before
    # the epoch are checked against the store as the segment found it.
    prior = server.store.copy()
    for s, (k0, k1, (means, covs, accs), end) in enumerate(split):
        # One robot per segment, in turn, also steps the segment alone from its
        # rows of the team at its start; the team must match it at every step.
        a = s % n
        alone = RobotNode.over(start, ids[a]).step(
            real.controls_meas[a, k0:k1], real.filter_q[a, k0:k1], sc.dt_s
        )
        lone_exact &= all(map(np.array_equal, alone, (means[a], covs[:, a], accs[a])))

        if k1 in real.measurements:
            report = reports[k1]
            gated = [m for m in real.measurements[k1] if gate_measurement(report, m)]
            if gated:
                n_epochs += 1
                n_meas += len(gated)
                missed = np.isin(ids, list(report.missed))
                missed_exact = missed_exact and (
                    np.array_equal(end.mean[missed], means[missed, -1])
                    and np.array_equal(end.cov[missed], covs[-1, missed])
                )
                delta = np.trace(end.cov, axis1=1, axis2=2) - np.trace(covs[-1], axis1=1, axis2=2)
                max_trace_increase = max(max_trace_increase, float(delta[~missed].max()))

        # The joint stream is taken one belief at a time; the checks that
        # need its covariance run now, the rest once over the segment.
        steps = k1 - k0
        joint_mean, joint_own = np.empty((steps, n, 3)), np.empty((steps, n, 3, 3))
        cross_diff = np.empty((steps, n))
        for j, belief in enumerate(islice(joint, steps)):
            k = k0 + 1 + j
            if k in real.measurements or k == sc.n_steps or not _cholesky_passes(belief, shift):
                min_eig = min(min_eig, belief.min_eigenvalue())
            joint_mean[j], joint_own[j] = belief.mean, belief.own_covs()
            cross = (server.store if k == k1 else prior).reconstruct(accs[:, j])
            np.subtract(cross, belief.cov, out=cross)
            np.abs(cross, out=cross)
            # Zeros copied in, not multiplied in, which would make a masked inf a NaN.
            np.copyto(cross, 0.0, where=below)
            cross_diff[j] = cross.reshape(n, -1).max(axis=1)

        # Step k1 compares the segment's corrected end, the others its block.
        offset = means.swapaxes(0, 1) - joint_mean
        offset[-1] = end.mean - joint_mean[-1]
        own = np.abs(covs - joint_own)
        own[-1] = np.abs(end.cov - joint_own[-1])
        diffs = np.stack([
            np.abs(offset[..., :2]).max(axis=2),
            np.abs(np.arctan2(np.sin(offset[..., 2]), np.cos(offset[..., 2]))),
            own.max(axis=(2, 3)),
            cross_diff,
        ])
        max_diffs = np.maximum(max_diffs, diffs.max(axis=(1, 2)))
        local[k0:k1] = diffs.max(axis=0)
        start = end
        if k1 in real.measurements:
            prior = server.store.copy()

    worst_step, worst_pos = np.unravel_index(np.argmax(local), local.shape)

    return EquivalenceReport(
        mode="dropout" if dropouts else "exact",
        max_position_diff=float(max_diffs[0]),
        max_heading_diff=float(max_diffs[1]),
        max_cov_diff=float(max_diffs[2]),
        max_cross_diff=float(max_diffs[3]),
        worst_time=int(worst_step) + 1,
        worst_robot=ids[worst_pos],
        min_joint_eigenvalue=min_eig,
        max_trace_increase=(
            max_trace_increase if max_trace_increase > -math.inf else 0.0
        ),
        missed_updates_exact=missed_exact,
        lone_steps_exact=lone_exact,
        n_epochs=n_epochs,
        n_measurements=n_meas,
        events=events,
    )

