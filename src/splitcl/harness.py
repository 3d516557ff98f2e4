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
robot act on its own, in its lane alone, as a :class:`RobotNode` over its
rows of the segment's end (see :func:`split_ekf.propagate_team`): the
node of a measured robot builds its landmark frame, and that of a robot
the server sends an update message (one correlated with a measured robot)
applies it, in place. The per-robot arithmetic is the same for a robot
stepped alone through :meth:`RobotNode.step`, as a team of one, so every
estimator's record is bit for bit its record in a run on its own.

Randomness is derived from a seed key; stream tags keep motion noise,
measurement noise, initial error and channel draws independent, and
Monte-Carlo run ``m`` uses key ``(base_seed, m)`` so enlarging a batch never
changes earlier runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice
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
    """The run's seed key: the scenario's seed, an int, or a tuple of ints."""
    if seed is None:
        return (sc.seed,)
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


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
        filter_q=scen.filter_noise_diags(sc, controls),
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
    sc.validate()
    key = seed_key(sc, seed)
    real = build_realization(sc, key, truth=_cached_truth)

    # One channel per kind of link, read by both filters of the kind.
    links: dict[str, dict[int, DeliveryReport]] = {}
    for kind, link_sc in (((JOINT_EKF, SA_SPLIT), scen.strip_dropouts(sc)),
                          ((PARTIAL_ORACLE, SA_SPLIT_DROPOUT), sc)):
        if any(name in wanted for name in kind):
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

    The beliefs come from :func:`joint_ekf.propagate_segment`, one call per
    segment (:func:`segments`), and each is formed only when it is asked
    for. The belief at a measurement epoch comes out updated by the
    partial-update rule; an invalid update is skipped and logged under
    ``name``.
    """
    ids = sc.robot_ids
    belief = joint_ekf.JointBelief.initialize(ids, real.init_means, sc.initial_cov())
    noise = sc.meas_noise_cov()
    for k0, k1 in segments(sc, real.measurements):
        steps = joint_ekf.propagate_segment(
            belief, real.controls_meas[:, k0:k1], real.filter_q[:, k0:k1], sc.dt_s
        )
        # Only the segment's last step can be an epoch, so no update is lost;
        # the next segment propagates from that step's updated belief.
        yield from islice(steps, k1 - k0 - 1)
        belief = next(steps)
        if k1 in real.measurements:
            report = reports[k1]
            for m in real.measurements[k1]:
                if not gate_measurement(report, m):
                    continue
                try:
                    belief, _ = joint_ekf.partial_update(belief, m, noise, report.missed)
                except NumericalError as exc:
                    # Beliefs are values, so the failed update left no
                    # trace; skip the measurement as the server does.
                    events.append(ProtocolEvent(
                        k1, EVENT_NUMERIC_S,
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
    frame, acts through a :class:`RobotNode` over its rows of ``team``, the
    segment's end: the node builds the robot's landmark frame and applies
    its update frame in place, where a single frame ``(r, D)`` becomes its
    pair ``(D r, D D')``. A rejected correction leaves the robot's rows as
    they were, since :func:`split_ekf.apply_update` checks every row before
    it writes any. What the epoch and the server log goes to ``events``, in
    that order.
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
    frames = [RobotNode.over(team.robot(i)).landmark_message(z, b) for i, b, z in senders]
    msgs = [LandmarkMessage.decode(frame.encode()) for frame in frames]
    updates = server.handle_epoch(msgs, k, missed=report.missed)
    events.extend(server.events)
    server.events.clear()
    for i, msg in updates.items():
        if i not in report.delivered:
            continue
        node = RobotNode.over(team.robot(i))
        try:
            node.apply_update(UpdateMessage.decode(msg.encode()))
        except NumericalError as exc:
            # Keep the propagated state; an invalid correction is dropped
            # just like a lost message, but with its own reason code.
            events.append(ProtocolEvent(k, EVENT_NUMERIC_S, f"robot={i} reason={exc}"))


@dataclass(slots=True)
class MetricReport:
    """Aggregated Monte-Carlo metrics.

    ``rms_pos[name]`` is the RMS position error over non-flagged runs per
    robot and timestep; ``per_run_pos_err[name]`` keeps the raw per-run error
    norms (flagged runs hold NaN); ``nees_mean`` is the run-averaged
    normalized estimation error squared for estimators that report a
    covariance.
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


def _reduce_run(rec: RunRecord) -> tuple[dict, dict, dict, list]:
    pos_err = {}
    nees = {}
    for name in rec.estimates:
        pos_err[name] = rec.position_error(name)
        c = rec.covs[name]
        if c is not None and not rec.flagged[name]:
            e = _wrapped_error(rec.estimates[name], rec.truth)
            nees[name] = _nees(e, c)
    return pos_err, nees, dict(rec.flagged), list(rec.events)


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


def _mc_worker(args) -> tuple[int, dict, dict, dict, list]:
    sc, estimators, base_seed, m, truth = args
    rec = run_once(sc, estimators, seed=(base_seed, m), _cached_truth=truth)
    return (m, *_reduce_run(rec))


def run_monte_carlo(
    sc: scen.Scenario,
    n_runs: int,
    estimators: Iterable[str],
    seed=None,
    jobs: int = 1,
) -> MetricReport:
    """Run ``n_runs`` independent realizations and aggregate error metrics.

    Run ``m`` uses seed key ``(base, m)``: results for the first runs do not
    change when the batch grows. Diverged (non-finite) estimator runs are
    excluded from the aggregates and counted in ``runs_flagged``; an
    estimator whose every run was flagged has NaN RMS errors.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    sc.validate()
    wanted = _wanted(estimators)
    base = sc.seed if seed is None else int(seed)
    truth = simulate_truth(sc)
    n = sc.n_robots
    t1 = sc.n_steps + 1

    per_run = {name: np.full((n_runs, n, t1), np.nan) for name in wanted}
    nees_sum = {name: np.zeros((n, t1)) for name in wanted}
    nees_count = {name: 0 for name in wanted}
    flagged_count = {name: 0 for name in wanted}
    events: list[tuple[int, ProtocolEvent]] = []

    tasks = [(sc, wanted, base, m, truth) for m in range(n_runs)]
    # A pool launches all its workers at the first task, so it gets no
    # more than there are runs.
    workers = min(jobs, n_runs)
    if workers > 1:
        # Imported here, not with the module: the pool and multiprocessing
        # slow every launch, also the launches that start no pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_worker, tasks))
    else:
        results = [_mc_worker(task) for task in tasks]

    for m, pos_err, nees, flagged, run_events in results:
        for name in wanted:
            if flagged[name]:
                flagged_count[name] += 1
                continue
            per_run[name][m] = pos_err[name]
            if name in nees:
                nees_sum[name] += nees[name]
                nees_count[name] += 1
        events.extend((m, ev) for ev in run_events)

    # Flagged runs hold NaN, so the mean runs over the others; with every
    # run flagged there is no RMS error at all, and it stays NaN.
    rms = {
        name: (
            np.full((n, t1), np.nan)
            if flagged_count[name] == n_runs
            else np.sqrt(np.nanmean(per_run[name] ** 2, axis=0))
        )
        for name in wanted
    }
    return MetricReport(
        estimators=wanted,
        times=np.arange(t1) * sc.dt_s,
        rms_pos=rms,
        per_run_pos_err=per_run,
        nees_mean={
            name: nees_sum[name] / nees_count[name]
            for name in wanted
            if nees_count[name] > 0
        },
        runs_total=n_runs,
        runs_flagged=flagged_count,
        events=events,
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
