"""Ground-truth simulation, estimator execution and Monte-Carlo metrics.

One simulated run draws a single noise realization and feeds the identical
truth, self-motion measurements and exteroceptive measurements to every
requested estimator (common random numbers), so estimator differences are
attributable to the algorithms alone. Available estimators:

``dr``                  dead reckoning, propagation only
``joint_ekf``           centralized full-team EKF, perfect communication
``sa_split``            the server-assisted split filter stack (robot nodes,
                        binary messages, server), perfect communication
``sa_split_dropout``    the same stack with the scenario's dropout schedule
``partial_oracle``      centralized EKF applying the partial-update rule with
                        exactly the dropout run's missed sets

The simulator steps the whole team by segment, not by step. Between two
measurement epochs a robot only dead-reckons, so the poses of every robot
over a whole segment come from one :func:`model.propagate_pose` call
(:func:`segments`): the filters make one per stretch of steps between
epochs, and ground truth and dead reckoning one per stretch of the run. A
filter's segments hold at most about a thousand robot-steps, which bounds
the temporaries of a call (twelve calls for the truth of table1). Each
centralized filter has one step loop, :func:`joint_steps`, a stream of one
belief per step from one :func:`joint_ekf.propagate_segment` call per
segment, which keeps its covariance recurrence per step as the independent
reference and forms a step's dense covariance only when the step is asked
for. All split filters of a run share one loop, :func:`split_steps`: each
is a lane of one stacked :class:`split_ekf.SplitTeamState`, with its own
channel reports, server and event list, and one
:func:`split_ekf.propagate_team` call per segment, which forms the
segment's covariances in closed form, advances every lane.
:func:`run_once` writes each joint belief and each split block into its
records as it arrives, and :mod:`splitcl.verify` compares one split lane
with the joint stream step by step. The four
filtering estimators differ only in the channel they read, one
:class:`network.DeliveryReport` per epoch: that of the scenario without
its dropouts (perfect links, :func:`scenario.strip_dropouts`) or the
dropout run's. Only at a measurement epoch does a
robot act on its own, in its lane alone, as a :class:`RobotNode`, a view
of its row of the segment's end (see :func:`split_ekf.propagate_team`):
the node of a measured robot builds its landmark frame from the row's
floats, and that of a robot the server sends an update message (one
correlated with a measured robot) applies the decoded frame's floats to
the row, in place. The per-robot arithmetic is the same for a robot
stepped alone through :meth:`RobotNode.step`, as a team of one, so every
estimator's record is bit for bit its record in a run on its own.

Randomness is derived from a seed key (:func:`seed_key`); stream tags keep
motion noise, measurement noise, initial error and channel draws
independent, and Monte-Carlo run ``m`` appends ``m`` to the batch's key so
enlarging a batch never changes earlier runs. A scenario is checked when
it is built (:class:`scenario.Scenario`), and not again here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import joint_ekf, model, scenario as scen, split_ekf
from .linalg import NumericalError
from .messages import LandmarkMessage, UpdateMessage
from .network import DeliveryReport, channel_epoch, gate_measurement
from .protocol import (
    EVENT_NUMERIC_S,
    EVENT_PAIR_UNREACHABLE,
    CooperationServer,
    ProtocolEvent,
    RobotNode,
)

DR = "dr"
JOINT_EKF = "joint_ekf"
SA_SPLIT = "sa_split"
SA_SPLIT_DROPOUT = "sa_split_dropout"
PARTIAL_ORACLE = "partial_oracle"
ALL_ESTIMATORS = (DR, JOINT_EKF, SA_SPLIT, SA_SPLIT_DROPOUT, PARTIAL_ORACLE)

_STREAM_MOTION = 1
_STREAM_MEAS = 2
_STREAM_INIT = 3
_STREAM_CHANNEL = 4


def seed_key(sc: scen.Scenario, seed) -> tuple[int, ...]:
    """The run's seed key: the scenario's seed, an int, or a tuple or list of ints."""
    return (sc.seed,) if seed is None else scen.check_seed_key(seed)


# Robot-steps per kernel call: bounds the temporaries of a segment, about 300
# bytes per robot-step, to about 300 kB. Larger calls run no faster on
# table1 or a 32-robot team.
_SEGMENT_ROBOT_STEPS = 1024


def segments(sc: scen.Scenario, epochs: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The stretches of steps ``k0 + 1 .. k1`` that one kernel call covers,
    as ``(k0, k1)``, through steps ``1..T`` in order.

    Each ends at a measurement epoch, at the last step, or after at most
    ``_SEGMENT_ROBOT_STEPS / N`` steps, so no epoch falls inside one. The
    bound is per filter, for ``N`` robots, also where several filters run
    as lanes of one call: the closed-form covariances depend on where a
    segment starts, so a filter's segments, and with them its bits, do not
    depend on what it runs next to.
    """
    longest = max(1, _SEGMENT_ROBOT_STEPS // sc.n_robots)
    k0 = 0
    for stop in [*sorted(epochs), sc.n_steps]:
        while k0 < stop:
            k1 = min(stop, k0 + longest)
            yield k0, k1
            k0 = k1


def simulate_truth(sc: scen.Scenario) -> np.ndarray:
    """Noise-free trajectories from the commanded controls, shape (N, T+1, 3)."""
    return _trajectories(sc, scen.start_poses(sc), scen.true_controls(sc))


def _trajectories(sc: scen.Scenario, start: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """Poses ``(N, T+1, 3)`` from ``start`` under ``controls`` ``(N, T, 2)``,
    one kernel call per bounded stretch of the run (:func:`segments`)."""
    out = np.empty((sc.n_robots, sc.n_steps + 1, 3))
    out[:, 0] = start
    for k0, k1 in segments(sc, ()):
        out[:, k0:k1 + 1] = model.propagate_pose(out[:, k0], controls[:, k0:k1], sc.dt_s)[0]
    return out


@dataclass(slots=True)
class Realization:
    """Everything random about one run, drawn once and shared by all estimators."""

    truth: np.ndarray
    controls_meas: np.ndarray
    filter_q: np.ndarray
    measurements: dict[int, list[model.RelativeMeasurement]]
    init_means: np.ndarray


def build_realization(
    sc: scen.Scenario,
    key: tuple[int, ...],
    truth: np.ndarray | None = None,
) -> Realization:
    """Draw the randomness of run ``key`` of ``sc``, each part from its own
    stream of ``key``: the measured controls, the epochs' relative
    measurements and, if the scenario perturbs them, the initial means. The
    motion noise has the injected variances; the filters' ``filter_q`` are
    those floored at :data:`scenario.PROCESS_NOISE_FLOOR`. A batch passes
    ``truth``, :func:`simulate_truth` of ``sc``, in once for all its runs.
    """
    if truth is None:
        truth = simulate_truth(sc)
    controls = scen.true_controls(sc)
    inject_q = scen.process_noise_diags(sc, controls)
    rng_motion = np.random.default_rng([*key, _STREAM_MOTION])
    controls_meas = controls + rng_motion.standard_normal(controls.shape) * np.sqrt(inject_q)

    rng_meas = np.random.default_rng([*key, _STREAM_MEAS])
    measurements: dict[int, list[model.RelativeMeasurement]] = {}
    for k, pairs in scen.measurement_schedule(sc).items():
        realized = []
        for a, b in pairs:
            z = model.relative_position(truth[a - 1, k], truth[b - 1, k])
            z = z + sc.meas_noise_std * rng_meas.standard_normal(2)
            realized.append(model.RelativeMeasurement(observer=a, landmark=b, z=z, time=k))
        measurements[k] = realized

    init_means = truth[:, 0, :].copy()
    if sc.perturb_initial:
        rng_init = np.random.default_rng([*key, _STREAM_INIT])
        init_means += rng_init.standard_normal((sc.n_robots, 3)) * np.sqrt(
            np.asarray(sc.initial_cov_diag)
        )
    return Realization(
        truth=truth,
        controls_meas=controls_meas,
        filter_q=np.maximum(inject_q, scen.PROCESS_NOISE_FLOOR),
        measurements=measurements,
        init_means=init_means,
    )


def delivery_reports(
    sc: scen.Scenario, real: Realization, key: tuple[int, ...]
) -> dict[int, DeliveryReport]:
    """The channel's report at every measurement epoch, from the scenario's
    dropout windows, zones and loss rate and the team's true poses."""
    channel_seed = [*key, _STREAM_CHANNEL]
    return {k: channel_epoch(sc, real.truth[:, k], k, channel_seed) for k in real.measurements}


@dataclass(slots=True)
class RunRecord:
    """Per-timestep traces of one run for every requested estimator."""

    truth: np.ndarray
    estimates: dict[str, np.ndarray]
    covs: dict[str, np.ndarray | None]
    events: list[ProtocolEvent]
    flagged: dict[str, bool]

    def position_error(self, estimator: str) -> np.ndarray:
        """Euclidean position error per robot and timestep, shape (N, T+1)."""
        # Written out: np.linalg.norm's reduction over a length-2 axis costs
        # more than the arithmetic, and gives the same floats.
        est = self.estimates[estimator]
        dx = est[:, :, 0] - self.truth[:, :, 0]
        dy = est[:, :, 1] - self.truth[:, :, 1]
        return np.sqrt(dx * dx + dy * dy)


def _wanted(estimators: Iterable[str]) -> tuple[str, ...]:
    """The requested estimators, each once in request order; none or an unknown one is refused."""
    wanted = tuple(dict.fromkeys(estimators))
    if not wanted:
        raise ValueError("at least one estimator must be requested")
    unknown = [e for e in wanted if e not in ALL_ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; choose from {ALL_ESTIMATORS}")
    return wanted


def run_once(
    sc: scen.Scenario,
    estimators: Iterable[str],
    seed=None,
    _cached_truth: np.ndarray | None = None,
) -> RunRecord:
    """Simulate one noise realization and run the requested estimators on it.

    The split filters run as lanes of one :func:`split_steps` loop. The
    events come estimator by estimator, in the order requested, each
    estimator's in time order and as in a run of it alone.
    """
    wanted = _wanted(estimators)
    key = seed_key(sc, seed)
    real = build_realization(sc, key, truth=_cached_truth)

    # One channel per kind of link, read by both filters of the kind; the
    # perfect links' scenario is built only when one of its filters is wanted.
    links: dict[str, dict[int, DeliveryReport]] = {}
    for kind, perfect in (((JOINT_EKF, SA_SPLIT), True),
                          ((PARTIAL_ORACLE, SA_SPLIT_DROPOUT), False)):
        if any(name in wanted for name in kind):
            link_sc = scen.strip_dropouts(sc) if perfect else sc
            links.update(dict.fromkeys(kind, delivery_reports(link_sc, real, key)))

    logs: dict[str, list[ProtocolEvent]] = {name: [] for name in wanted}
    split = [name for name in wanted if name in (SA_SPLIT, SA_SPLIT_DROPOUT)]
    if split:
        lanes = [
            (links[name], CooperationServer(sc.robot_ids, sc.meas_noise_cov()), logs[name])
            for name in split
        ]
        # One record per lane, written for every lane at once through its
        # flat view, in which lane e holds rows e N .. (e + 1) N as in the stack.
        shape = (len(split), sc.n_robots, sc.n_steps + 1)
        lane_est, lane_cov = np.empty((*shape, 3)), np.empty((*shape, 3, 3))
        lane_est[:, :, 0], lane_cov[:, :, 0] = real.init_means, sc.initial_cov()
        flat_est = lane_est.reshape(-1, shape[2], 3)
        flat_cov = lane_cov.reshape(-1, shape[2], 3, 3)
        for k0, k1, (means, team_covs, _), end in split_steps(sc, real, lanes):
            flat_est[:, k0 + 1:k1 + 1] = means
            flat_cov[:, k0 + 1:k1 + 1] = team_covs.swapaxes(0, 1)
            # The lanes at the segment's end, corrected if it is an epoch.
            flat_est[:, k1], flat_cov[:, k1] = end.mean, end.cov

    estimates: dict[str, np.ndarray] = {}
    covs: dict[str, np.ndarray | None] = {}
    flagged: dict[str, bool] = {}
    for name in wanted:
        if name == DR:
            est = _trajectories(sc, real.init_means, real.controls_meas)
            cov = None
        elif name in split:
            est, cov = lane_est[split.index(name)], lane_cov[split.index(name)]
        else:
            est = np.empty((sc.n_robots, sc.n_steps + 1, 3))
            cov = np.empty((sc.n_robots, sc.n_steps + 1, 3, 3))
            est[:, 0], cov[:, 0] = real.init_means, sc.initial_cov()
            for belief in joint_steps(sc, real, links[name], logs[name], name):
                est[:, belief.time] = belief.mean
                cov[:, belief.time] = belief.own_covs()
        estimates[name] = est
        covs[name] = cov
        flagged[name] = not bool(np.isfinite(est).all())

    return RunRecord(
        truth=real.truth,
        estimates=estimates,
        covs=covs,
        events=[ev for name in wanted for ev in logs[name]],
        flagged=flagged,
    )


def joint_steps(
    sc: scen.Scenario,
    real: Realization,
    reports: Mapping[int, DeliveryReport],
    events: list[ProtocolEvent],
    name: str,
) -> Iterator[joint_ekf.JointBelief]:
    """The centralized belief at every step ``1..T``, one step at a time.

    One loop per segment (:func:`segments`) runs over the beliefs of one
    :func:`joint_ekf.propagate_segment` call, each formed only when it is
    asked for. A belief whose step is a measurement epoch is updated by the
    partial-update rule before it is yielded; an invalid update is skipped
    and logged under ``name``.
    """
    belief = joint_ekf.JointBelief.initialize(sc.robot_ids, real.init_means, sc.initial_cov())
    noise = sc.meas_noise_cov()
    for k0, k1 in segments(sc, real.measurements):
        steps = joint_ekf.propagate_segment(
            belief, real.controls_meas[:, k0:k1], real.filter_q[:, k0:k1], sc.dt_s
        )
        # Only a segment's last step can be an epoch, so the next segment
        # propagates from that step's updated belief and no update is lost.
        for belief in steps:
            k = belief.time
            for m in real.measurements.get(k, ()):
                if not gate_measurement(reports[k], m):
                    continue
                try:
                    belief, _ = joint_ekf.partial_update(belief, m, noise, reports[k].missed)
                except NumericalError as exc:
                    # Beliefs are values, so the failed update left no
                    # trace; skip the measurement as the server does.
                    events.append(ProtocolEvent(
                        k, EVENT_NUMERIC_S,
                        f"estimator={name} observer={m.observer} landmark={m.landmark} "
                        f"reason={exc}",
                    ))
            yield belief


# One split filter of a run: its channel, one report per epoch, its server
# and the list its epochs log to.
Lane = tuple[Mapping[int, DeliveryReport], CooperationServer, list[ProtocolEvent]]


def split_steps(
    sc: scen.Scenario, real: Realization, lanes: Sequence[Lane]
) -> Iterator[tuple[int, int, tuple[np.ndarray, ...], split_ekf.SplitTeamState]]:
    """Per segment ``(k0, k1, block, end)`` for every split filter of a run.

    Lane ``e`` of ``lanes`` owns rows ``e N .. (e + 1) N`` of one stacked
    :class:`split_ekf.SplitTeamState`, so one :func:`split_ekf.propagate_team`
    call per segment advances every lane and returns ``block``, steps
    ``k0 + 1 .. k1``, and ``end``, the stack at ``k1``, by the rules stated
    there. The segments are one filter's (:func:`segments` for ``N``
    robots, not ``E N``), however many lanes share the call. At an epoch
    each lane runs :func:`_run_split_epoch` on its own rows of ``end``,
    with its own reports and server, which corrects those rows in place.
    The next call returns a new ``end``, so no yielded ``end`` changes
    after its segment. A lane's epochs and its server log to its list, in
    time order. Every row gets its robot's arithmetic, so a lane's rows are
    bit for bit what that filter run alone gives.
    """
    ids = sc.robot_ids
    n, width = len(ids), len(lanes)
    start = split_ekf.SplitTeamState.initialize(ids, real.init_means, sc.initial_cov())
    stacked = (_lanes(x, width) for x in (start.mean, start.cov, start.jac_accum))
    team = split_ekf.SplitTeamState(start.team, start.index, *stacked)
    controls, noise = _lanes(real.controls_meas, width), _lanes(real.filter_q, width)
    rows = [slice(e * n, (e + 1) * n) for e in range(width)]
    for k0, k1 in segments(sc, real.measurements):
        # As in joint_steps, only the segment's last step can be an epoch.
        block, team = split_ekf.propagate_team(team, controls[:, k0:k1], noise[:, k0:k1], sc.dt_s)
        if k1 in real.measurements:
            for lane, (reports, server, events) in zip(rows, lanes):
                own = split_ekf.SplitTeamState(
                    team.team, team.index,
                    team.mean[lane], team.cov[lane], team.jac_accum[lane], team.time,
                )
                _run_split_epoch(own, server, real.measurements[k1], reports[k1], events)
        yield k0, k1, block, team


def _lanes(x: np.ndarray, width: int) -> np.ndarray:
    """``width`` copies of ``x`` stacked along its first axis; for one lane,
    a read-only view of ``x`` itself, with nothing copied."""
    return np.broadcast_to(x, (width, *x.shape)).reshape(width * len(x), *x.shape[1:])


def _run_split_epoch(
    team: split_ekf.SplitTeamState,
    server: CooperationServer,
    measurements: Sequence[model.RelativeMeasurement],
    report: DeliveryReport,
    events: list[ProtocolEvent],
) -> None:
    """One measurement epoch over the lossy channel, wire encoding included.

    Each robot of an accepted measurement, and each robot sent an update
    frame, acts through a :class:`RobotNode` over its row of ``team``, the
    segment's end: the node builds the robot's landmark frame and applies
    its update frame in place, where a single frame ``(r, D)`` becomes its
    pair ``(D r, D D')``. A rejected correction leaves the robot's row as
    it was, since :func:`split_ekf.apply_update` checks it before writing.
    What the epoch and the server log goes to ``events``, in that order.
    """
    k = report.time
    accepted = []
    for m in measurements:
        if gate_measurement(report, m):
            accepted.append(m)
        else:
            events.append(ProtocolEvent(
                k, EVENT_PAIR_UNREACHABLE,
                f"observer={m.observer} landmark={m.landmark} "
                f"unreachable={sorted(report.missed & {m.observer, m.landmark})}",
            ))
    if not accepted:
        return
    landmark_only = {m.landmark for m in accepted} - {m.observer for m in accepted}
    senders = [(m.observer, m.landmark, m.z) for m in accepted]
    senders += [(i, None, None) for i in sorted(landmark_only)]
    msgs = [
        LandmarkMessage.decode(RobotNode.over(team, i).landmark_message(z, b).encode())
        for i, b, z in senders
    ]
    updates = server.handle_epoch(msgs, k, missed=report.missed)
    events.extend(server.events)
    server.events.clear()
    for i, msg in updates.items():
        if i not in report.delivered:
            continue
        try:
            RobotNode.over(team, i).apply_update(UpdateMessage.decode(msg.encode()))
        except NumericalError as exc:
            # Keep the propagated state; an invalid correction is dropped
            # just like a lost message, but with its own reason code.
            events.append(ProtocolEvent(k, EVENT_NUMERIC_S, f"robot={i} reason={exc}"))


@dataclass(slots=True)
class MetricReport:
    """Aggregated Monte-Carlo metrics, per requested estimator.

    ``per_run_pos_err[name]`` holds each run's position errors, shape
    ``(runs_total, N, T+1)``, with a NaN row for each run flagged as
    diverged (non-finite); ``runs_flagged[name]`` counts those runs.
    ``rms_pos[name]`` is the RMS position error per robot and timestep over
    the other runs, NaN when every run is flagged. ``nees_mean[name]`` is
    the normalized estimation error squared averaged over the unflagged
    runs, for the estimators that report a covariance and have such a run.
    ``events`` pairs each event with its run index, in run order.
    """

    estimators: tuple[str, ...]
    times: np.ndarray
    rms_pos: dict[str, np.ndarray]
    per_run_pos_err: dict[str, np.ndarray]
    nees_mean: dict[str, np.ndarray]
    runs_total: int
    runs_flagged: dict[str, int]
    events: list[tuple[int, ProtocolEvent]]


def _wrapped_error(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    err = est - truth
    err[..., 2] = np.arctan2(np.sin(err[..., 2]), np.cos(err[..., 2]))
    return err


def _nees(err: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``e' P^-1 e`` for errors ``(..., 3)`` and covariances ``(..., 3, 3)``.

    Formed elementwise as ``e' C e / det(P)`` from ``P``'s cofactors ``C``,
    the transposed adjugate: over a run's ``(N, T+1)`` blocks a batched
    LAPACK solve costs several times as much.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(cov, (-2, -1), (0, 1))
    x, y, z = np.moveaxis(err, -1, 0)
    cof = (
        (e * i - f * h, f * g - d * i, d * h - e * g),
        (c * h - b * i, a * i - c * g, b * g - a * h),
        (b * f - c * e, c * d - a * f, a * e - b * d),
    )
    quad = sum(u * (row[0] * x + row[1] * y + row[2] * z) for u, row in zip((x, y, z), cof))
    return quad / (a * cof[0][0] + b * cof[0][1] + c * cof[0][2])


def _mc_worker(args) -> tuple[dict, dict, dict, list]:
    """One run of a batch, reduced: every estimator's position errors, the
    NEES of each unflagged estimator that has a covariance, the flags and
    the events."""
    sc, wanted, key, truth = args
    rec = run_once(sc, wanted, seed=key, _cached_truth=truth)
    nees = {
        name: _nees(_wrapped_error(rec.estimates[name], rec.truth), cov)
        for name, cov in rec.covs.items()
        if cov is not None and not rec.flagged[name]
    }
    return {name: rec.position_error(name) for name in wanted}, nees, rec.flagged, rec.events


def run_monte_carlo(
    sc: scen.Scenario,
    n_runs: int,
    estimators: Iterable[str],
    seed=None,
    jobs: int = 1,
) -> MetricReport:
    """Run ``n_runs`` independent realizations and aggregate error metrics.

    Run ``m`` uses seed key ``(*seed_key(sc, seed), m)``: results for the
    first runs do not change when the batch grows, and each equals its run
    alone. The batch is the list of its runs' reductions, aggregated once
    per estimator: a run whose estimate is not finite is flagged and holds
    a NaN row of position errors; the RMS error runs over the other runs
    and is NaN when every run is flagged; ``nees_mean`` averages the
    unflagged runs of the estimators that have a covariance; the events
    come in run order.
    """
    for arg, count in (("n_runs", n_runs), ("jobs", jobs)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{arg} must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"{arg} must be at least 1, got {count}")
    wanted = _wanted(estimators)
    base = seed_key(sc, seed)
    truth = simulate_truth(sc)
    tasks = [(sc, wanted, (*base, m), truth) for m in range(n_runs)]
    # A pool launches all its workers at the first task, so it gets no
    # more than there are runs.
    workers = min(jobs, n_runs)
    if workers > 1:
        # Imported here, not with the module: the pool and multiprocessing
        # slow every launch, also the launches that start no pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reductions = list(pool.map(_mc_worker, tasks))
    else:
        reductions = [_mc_worker(task) for task in tasks]

    pos_errs, run_nees, flags, run_events = zip(*reductions)
    per_run, rms, nees_mean, flagged = {}, {}, {}, {}
    for name in wanted:
        per_run[name] = np.stack([
            np.full_like(err[name], np.nan) if flag[name] else err[name]
            for err, flag in zip(pos_errs, flags)
        ])
        flagged[name] = sum(flag[name] for flag in flags)
        # Flagged runs hold NaN, so the mean runs over the others; with every
        # run flagged there is no RMS error at all, and it stays NaN.
        rms[name] = (
            np.full(per_run[name].shape[1:], np.nan)
            if flagged[name] == n_runs
            else np.sqrt(np.nanmean(per_run[name] ** 2, axis=0))
        )
        reported = [nees[name] for nees in run_nees if name in nees]
        if reported:
            nees_mean[name] = sum(reported) / len(reported)
    return MetricReport(
        estimators=wanted,
        times=np.arange(sc.n_steps + 1) * sc.dt_s,
        rms_pos=rms,
        per_run_pos_err=per_run,
        nees_mean=nees_mean,
        runs_total=n_runs,
        runs_flagged=flagged,
        events=[(m, ev) for m, events in enumerate(run_events) for ev in events],
    )


def export_metrics(report: MetricReport, path: str | Path) -> None:
    """Write the RMS position errors as CSV, one row per (time, robot).

    Columns are ``time_s``, ``robot`` and one ``rms_<estimator>`` column per
    estimator; values are formatted with 12 significant digits so a fixed
    seed yields a byte-identical file. The RMS errors run over the
    estimator's unflagged runs; when every run of an estimator was flagged,
    its column reads ``nan`` in every row.
    """
    path = Path(path)
    header = ["time_s", "robot"] + [f"rms_{name}" for name in report.estimators]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if not report.estimators:
            return
        n_robots = next(iter(report.rms_pos.values())).shape[0]
        for ti, t in enumerate(report.times):
            for r in range(n_robots):
                row = [format(t, ".12g"), str(r + 1)]
                row += [
                    format(report.rms_pos[name][r, ti], ".12g")
                    for name in report.estimators
                ]
                writer.writerow(row)


def write_event_log(events: Sequence[tuple[int, ProtocolEvent]], path: str | Path) -> None:
    """One line per discarded measurement or skipped update, prefixed by run index."""
    lines = [f"run={m} {ev.as_line()}" for m, ev in events]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
