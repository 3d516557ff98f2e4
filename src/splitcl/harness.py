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

Each filter has one step loop, a generator of its state at steps
``0..T``: :func:`joint_steps` (centralized) and :func:`split_steps` (split
stack). :func:`run_once` records what they yield and :mod:`splitcl.verify`
compares them. The four filtering estimators differ only in the channel
reports they get: none (perfect links) or the dropout run's.

The simulator steps the whole team as one batch: ground truth and dead
reckoning advance every robot's pose with one :func:`model.propagate_pose`
call per step, the split stack holds the robots' local states as one
:class:`split_ekf.SplitTeamState` advanced by :func:`split_ekf.propagate_team`,
and the centralized filter propagates the joint belief in one call. Only at
a measurement epoch does a robot act on its own, as a :class:`RobotNode`
over its rows of the team state: a measured robot builds its landmark
message, and a robot the server sends an update message (one correlated
with a measured robot) applies it, and its corrected rows go into a copy
of the team. The per-robot arithmetic is the same either way.

Randomness is derived from a seed key; stream tags keep motion noise,
measurement noise, initial error and channel draws independent, and
Monte-Carlo run ``m`` uses key ``(base_seed, m)`` so enlarging a batch never
changes earlier runs.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import joint_ekf, model, scenario as scen, split_ekf
from .linalg import NumericalError
from .messages import LandmarkMessage, UpdateMessage
from .network import DeliveryReport, channel_epoch, gate_measurement, perfect_report
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


def simulate_truth(sc: scen.Scenario) -> np.ndarray:
    """Noise-free trajectories from the commanded controls, shape (N, T+1, 3)."""
    controls = scen.true_controls(sc)
    return _propagate_trajectories(scen.start_poses(sc), controls, sc.dt_s)


def _propagate_trajectories(start: np.ndarray, controls: np.ndarray, dt: float) -> np.ndarray:
    """Poses ``(N, T+1, 3)`` from ``start`` under ``controls`` ``(N, T, 2)``, team by step."""
    n, t = controls.shape[:2]
    out = np.empty((n, t + 1, 3))
    out[:, 0] = start
    pose = out[:, 0]
    for k in range(t):
        pose = model.propagate_pose(pose, controls[:, k], dt)
        out[:, k + 1] = pose
    return out


@dataclass(slots=True)
class Realization:
    """Everything random about one run, drawn once and shared by all estimators."""

    truth: np.ndarray
    controls_true: np.ndarray
    controls_meas: np.ndarray
    filter_q: np.ndarray
    measurements: dict[int, list[model.RelativeMeasurement]]
    init_means: np.ndarray


def build_realization(
    sc: scen.Scenario,
    key: tuple[int, ...],
    truth: np.ndarray | None = None,
) -> Realization:
    controls = scen.true_controls(sc)
    if truth is None:
        truth = _propagate_trajectories(scen.start_poses(sc), controls, sc.dt_s)
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
        controls_true=controls,
        controls_meas=controls_meas,
        filter_q=scen.filter_noise_diags(sc, controls),
        measurements=measurements,
        init_means=init_means,
    )


def delivery_reports(
    sc: scen.Scenario, real: Realization, key: tuple[int, ...]
) -> dict[int, DeliveryReport]:
    """Per-epoch connectivity for the scenario's dropout configuration."""
    sched = scen.dropout_schedule(sc)
    channel_seed = [*key, _STREAM_CHANNEL]
    reports = {}
    for k in real.measurements:
        poses = dict(zip(sc.robot_ids, real.truth[:, k]))
        reports[k] = channel_epoch(sched, poses, k, channel_seed)
    return reports


@dataclass(slots=True)
class RunRecord:
    """Per-timestep traces of one run for every requested estimator."""

    times: np.ndarray
    truth: np.ndarray
    controls_meas: np.ndarray
    estimates: dict[str, np.ndarray]
    covs: dict[str, np.ndarray | None]
    events: list[ProtocolEvent]
    missed_history: dict[int, frozenset[int]]
    flagged: dict[str, bool]

    def position_error(self, estimator: str) -> np.ndarray:
        """Euclidean position error per robot and timestep, shape (N, T+1)."""
        diff = self.estimates[estimator][:, :, :2] - self.truth[:, :, :2]
        return np.linalg.norm(diff, axis=2)


def run_once(
    sc: scen.Scenario,
    estimators: Iterable[str],
    seed=None,
    _cached_truth: np.ndarray | None = None,
) -> RunRecord:
    """Simulate one noise realization and run the requested estimators on it."""
    wanted = tuple(dict.fromkeys(estimators))
    if not wanted:
        raise ValueError("at least one estimator must be requested")
    unknown = [e for e in wanted if e not in ALL_ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; choose from {ALL_ESTIMATORS}")
    sc.validate()
    key = seed_key(sc, seed)
    real = build_realization(sc, key, truth=_cached_truth)

    reports: dict[int, DeliveryReport] = {}
    if SA_SPLIT_DROPOUT in wanted or PARTIAL_ORACLE in wanted:
        reports = delivery_reports(sc, real, key)

    estimates: dict[str, np.ndarray] = {}
    covs: dict[str, np.ndarray | None] = {}
    events: list[ProtocolEvent] = []
    flagged: dict[str, bool] = {}
    for name in wanted:
        links = reports if name in (SA_SPLIT_DROPOUT, PARTIAL_ORACLE) else {}
        if name == DR:
            est = _propagate_trajectories(real.init_means, real.controls_meas, sc.dt_s)
            cov = None
        elif name in (JOINT_EKF, PARTIAL_ORACLE):
            beliefs = joint_steps(sc, real, links, events, name)
            est, cov = _stack(sc, ((b.mean, b.own_covs()) for b in beliefs))
        else:
            server = CooperationServer(sc.robot_ids, sc.meas_noise_cov())
            teams = split_steps(sc, real, links, server, events)
            est, cov = _stack(sc, ((t.mean, t.cov) for _, t in teams))
            events.extend(server.events)
        estimates[name] = est
        covs[name] = cov
        flagged[name] = not bool(np.isfinite(est).all())

    missed_history = {k: r.missed for k, r in reports.items()}
    times = np.arange(sc.n_steps + 1) * sc.dt_s
    return RunRecord(
        times=times,
        truth=real.truth,
        controls_meas=real.controls_meas,
        estimates=estimates,
        covs=covs,
        events=events,
        missed_history=missed_history,
        flagged=flagged,
    )


def _stack(
    sc: scen.Scenario, states: Iterable[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step ``(mean, own covariances)`` pairs as ``(N, T+1, ...)`` traces."""
    est = np.empty((sc.n_robots, sc.n_steps + 1, 3))
    cov = np.empty((sc.n_robots, sc.n_steps + 1, 3, 3))
    for k, (mean, own) in enumerate(states):
        est[:, k] = mean
        cov[:, k] = own
    return est, cov


def epoch_report(
    reports: Mapping[int, DeliveryReport], team: Sequence[int], k: int
) -> DeliveryReport:
    """Connectivity at measurement epoch ``k``; empty ``reports`` mean perfect links."""
    return reports[k] if reports else perfect_report(team, k)


def joint_steps(
    sc: scen.Scenario,
    real: Realization,
    reports: Mapping[int, DeliveryReport],
    events: list[ProtocolEvent],
    name: str,
) -> Iterator[joint_ekf.JointBelief]:
    """The centralized belief at steps ``0..T``, updated with the partial-update
    rule; a numerically invalid update is skipped and logged under ``name``."""
    ids = sc.robot_ids
    belief = joint_ekf.JointBelief.initialize(
        means={i: real.init_means[i - 1] for i in ids},
        covs={i: sc.initial_cov() for i in ids},
    )
    noise = sc.meas_noise_cov()
    yield belief
    for k in range(1, sc.n_steps + 1):
        belief = joint_ekf.propagate(
            belief, real.controls_meas[:, k - 1], real.filter_q[:, k - 1], sc.dt_s
        )
        if k in real.measurements:
            report = epoch_report(reports, ids, k)
            for m in real.measurements[k]:
                if not gate_measurement(report, m):
                    continue
                try:
                    belief, _ = joint_ekf.partial_update(belief, m, noise, report.missed)
                except NumericalError as exc:
                    # Beliefs are values, so the failed update left no trace;
                    # skip the measurement as the server does.
                    events.append(ProtocolEvent(
                        k, EVENT_NUMERIC_S,
                        f"estimator={name} observer={m.observer} landmark={m.landmark} "
                        f"reason={exc}",
                    ))
        yield belief


def split_steps(
    sc: scen.Scenario,
    real: Realization,
    reports: Mapping[int, DeliveryReport],
    server: CooperationServer,
    events: list[ProtocolEvent],
) -> Iterator[tuple[split_ekf.SplitTeamState, split_ekf.SplitTeamState]]:
    """The split team at steps ``0..T`` as ``(propagated, corrected)`` pairs;
    ``corrected`` is ``propagated`` itself when no measurement reached the
    server. The epochs log to ``events``, the server to ``server.events``."""
    ids = sc.robot_ids
    team = split_ekf.SplitTeamState.initialize(ids, real.init_means, sc.initial_cov())
    yield team, team
    for k in range(1, sc.n_steps + 1):
        propagated = split_ekf.propagate_team(
            team, real.controls_meas[:, k - 1], real.filter_q[:, k - 1], sc.dt_s
        )
        team = propagated
        if k in real.measurements:
            report = epoch_report(reports, ids, k)
            team = _run_split_epoch(team, server, real.measurements[k], report, events)
        yield propagated, team


def _run_split_epoch(
    team: split_ekf.SplitTeamState,
    server: CooperationServer,
    measurements: Sequence[model.RelativeMeasurement],
    report: DeliveryReport,
    events: list[ProtocolEvent],
) -> split_ekf.SplitTeamState:
    """One measurement epoch over the lossy channel, wire encoding included.

    Each robot takes part through a :class:`RobotNode` over its rows of
    ``team``. Returns a corrected copy of ``team``, or ``team`` itself when
    no measurement reached the server.
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
        return team
    wire: list[bytes] = []
    landmark_only = {m.landmark for m in accepted} - {m.observer for m in accepted}
    for m in accepted:
        node = RobotNode.over(team.robot(m.observer))
        wire.append(node.landmark_message(z=m.z, landmark=m.landmark).encode())
    for i in sorted(landmark_only):
        wire.append(RobotNode.over(team.robot(i)).landmark_message().encode())
    msgs = [LandmarkMessage.decode(raw) for raw in wire]
    updates = server.handle_epoch(msgs, k, missed=report.missed)
    corrected = replace(team, mean=team.mean.copy(), cov=team.cov.copy())
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
            continue
        corrected.write_back(node.state)
    return corrected


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
    final_rms: dict[str, np.ndarray]
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
            nees[name] = np.einsum("rti,rti->rt", e, np.linalg.solve(c, e[..., None])[..., 0])
    return pos_err, nees, dict(rec.flagged), list(rec.events)


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
    wanted = tuple(dict.fromkeys(estimators))
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
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
        final_rms={name: rms[name][:, -1].copy() for name in wanted},
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
