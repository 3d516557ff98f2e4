"""Workload inputs, the timed calls that drive them, and output checks.

Every workload is driven only through splitcl's public entry points
(``harness.run_monte_carlo``, ``verify.check_exact_equivalence`` and
``verify.check_dropout_equivalence``), in one process with ``jobs=1``. Its
inputs are a pure function of the workload name and the benchmark seed.

``table1_mc``       the paper's four-robot scenario, Monte-Carlo over the
                    CLI's default estimators; robot propagation dominates.
``team128_server``  128 robots, two seeded robots measuring each other
                    twice per epoch over the whole run, 10% random link
                    loss; the server's O(N^2) cross-factor store update
                    dominates.
``verify_team32``   a random 32-robot scenario through both equivalence
                    checks; the centralized joint EKF dominates.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference
from splitcl import harness, verify
from splitcl.messages import UpdateMessage
from splitcl.protocol import (
    EVENT_NUMERIC_S,
    EVENT_PAIR_UNREACHABLE,
    RobotNode,
)
from splitcl.scenario import (
    MeasurementWindow,
    Scenario,
    build_table1_scenario,
    random_scenario,
    strip_dropouts,
)

WORKLOADS = ("table1_mc", "team128_server", "verify_team32")

# A Monte-Carlo call is one run: about 0.5 s and 60 server epochs on
# table1_mc, 3 s and 20 epochs on team128_server, so a measurement holds
# enough calls for a median.
_VERIFY_CHECKS = ("exact", "dropout")
_ESTIMATORS = {
    "table1_mc": (harness.DR, harness.SA_SPLIT, harness.SA_SPLIT_DROPOUT),
    "team128_server": (harness.SA_SPLIT_DROPOUT,),
}
VERIFY_TOLERANCE = 1e-8
MIN_EPOCHS = 100
_SPLIT_ESTIMATORS = frozenset({harness.SA_SPLIT, harness.SA_SPLIT_DROPOUT})


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run feeds the program.

    ``estimators`` is empty for the verify workload, which runs the two
    equivalence checks instead of ``run_monte_carlo``.
    """

    workload: str
    scenario: Scenario
    seed: int
    estimators: tuple[str, ...] = ()


def team_scenario(n_robots: int, seed: int, windows: int, duration_s: float) -> Scenario:
    """Two seeded robots a and b measure each other over the whole run.

    The ``windows`` measurement windows alternate a->b and b->a, each pair
    measuring every 0.5 s, and each robot's link is lost with probability
    0.1 per epoch. A measurement needs both robots connected, so an epoch
    reaches the server with all ``windows`` measurements (81% of epochs) or
    with none: every server epoch does the same work, and its latency
    percentiles read one cost level instead of a mix that moves with the
    seed.
    """
    rng = np.random.default_rng([seed, n_robots])
    a, b = (int(r) for r in rng.choice(np.arange(1, n_robots + 1), size=2, replace=False))
    pairs = [(a, b) if i % 2 == 0 else (b, a) for i in range(windows)]
    fracs = rng.uniform(0.15, 0.35, size=(2, n_robots))
    sc = Scenario(
        n_robots=n_robots,
        duration_s=duration_s,
        v_noise_frac=tuple(round(float(f), 3) for f in fracs[0]),
        w_noise_frac=tuple(round(float(f), 3) for f in fracs[1]),
        meas_windows=tuple(MeasurementWindow(0.0, duration_s, o, lm) for o, lm in pairs),
        meas_period_s=0.5,
        bernoulli_p=0.1,
        seed=seed,
    )
    sc.validate()
    return sc


def build_inputs(workload: str, seed: int) -> Inputs:
    if workload == "table1_mc":
        sc = build_table1_scenario()
    elif workload == "team128_server":
        sc = team_scenario(128, seed, windows=4, duration_s=10.0)
    elif workload == "verify_team32":
        sc = random_scenario(32, seed, duration_s=60, window_every_s=10, bernoulli_p=0.1)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return Inputs(
        workload=workload,
        scenario=sc,
        seed=seed,
        estimators=_ESTIMATORS.get(workload, ()),
    )


@dataclass
class Call:
    """One timed call into the program and what its outputs were checked for.

    ``kind`` is ``"mc"`` or the equivalence check that ran. ``runs`` counts
    Monte-Carlo runs, or the one side-by-side run of a check. ``epoch_ms``
    holds the server epoch latencies of the call, and ``host`` the host's
    ``reference.slowdown()`` around it.
    """

    kind: str
    runs: int
    seconds: float
    attempted: int
    failed: int
    unreachable: int
    numeric_server: int
    epoch_ms: list[float] = field(default_factory=list)
    host: float = 1.0


class ErrorTotals:
    """Running sums of squared position error and NEES per estimator.

    Summing as runs complete keeps memory flat however many runs fit in a
    measurement, so ``peak_rss_mb`` does not grow with throughput.
    """

    def __init__(self) -> None:
        self.sq_err: dict[str, np.ndarray] = {}
        self.runs: dict[str, int] = {}
        self.nees: dict[str, np.ndarray] = {}
        self.nees_runs: dict[str, int] = {}

    def add(self, report: harness.MetricReport) -> None:
        for name in report.estimators:
            err = report.per_run_pos_err[name]
            kept = ~np.isnan(err).any(axis=(1, 2))
            self.sq_err[name] = self.sq_err.get(name, 0.0) + (err[kept] ** 2).sum(axis=0)
            self.runs[name] = self.runs.get(name, 0) + int(kept.sum())
            if name in report.nees_mean:
                weight = report.runs_total - report.runs_flagged[name]
                self.nees[name] = self.nees.get(name, 0.0) + report.nees_mean[name] * weight
                self.nees_runs[name] = self.nees_runs.get(name, 0) + weight

    def rms_pos(self, name: str) -> float:
        """RMS position error (m) over runs per robot and timestep, averaged over both."""
        return float(np.sqrt(self.sq_err[name] / self.runs[name]).mean())

    def nees_gap(self, name: str) -> float:
        """|mean NEES / 3 - 1|, NEES averaged over unflagged runs, robots and time."""
        return abs(float((self.nees[name] / self.nees_runs[name]).mean()) / 3.0 - 1.0)


def _run_call(
    inputs: Inputs, index: int, totals: ErrorTotals, corrupt_cross_sign: bool = False
) -> Call:
    if inputs.estimators:
        return _mc_call(inputs, index, totals)
    return _verify_call(inputs, _VERIFY_CHECKS[index % 2], corrupt_cross_sign)


def _mc_call(inputs: Inputs, index: int, totals: ErrorTotals) -> Call:
    # Distinct base seeds per call, so every Monte-Carlo run draws new noise.
    base = inputs.seed * 10_000 + index
    t0 = perf_counter()
    report = harness.run_monte_carlo(inputs.scenario, 1, inputs.estimators, seed=base, jobs=1)
    seconds = perf_counter() - t0
    totals.add(report)
    return Call(
        kind="mc",
        runs=report.runs_total,
        seconds=seconds,
        attempted=report.runs_total * len(report.estimators),
        failed=mc_failed_operations(report),
        unreachable=_count_unreachable(ev for _, ev in report.events),
        numeric_server=_count_server_numeric(ev for _, ev in report.events),
    )


def mc_failed_operations(report: harness.MetricReport) -> int:
    """(run, estimator) pairs that went non-finite or logged a NUMERIC_S event.

    Events are not tagged with their estimator, so a NUMERIC_S event fails
    every split estimator of its run.
    """
    numeric_runs = {m for m, ev in report.events if ev.code == EVENT_NUMERIC_S}
    failed = 0
    for m in range(report.runs_total):
        for name in report.estimators:
            flagged = bool(np.isnan(report.per_run_pos_err[name][m]).any())
            if flagged or (m in numeric_runs and name in _SPLIT_ESTIMATORS):
                failed += 1
    return failed


def _verify_call(inputs: Inputs, kind: str, corrupt_cross_sign: bool) -> Call:
    sc = inputs.scenario
    t0 = perf_counter()
    if kind == "exact":
        report = verify.check_exact_equivalence(
            strip_dropouts(sc), corrupt_cross_sign=corrupt_cross_sign
        )
    else:
        report = verify.check_dropout_equivalence(sc, corrupt_cross_sign=corrupt_cross_sign)
    seconds = perf_counter() - t0
    return Call(
        kind=kind,
        runs=1,
        seconds=seconds,
        attempted=1,
        failed=int(not report.passed(VERIFY_TOLERANCE)),
        unreachable=_count_unreachable(report.events),
        numeric_server=_count_server_numeric(report.events),
    )


def _count_unreachable(events) -> int:
    return sum(ev.code == EVENT_PAIR_UNREACHABLE for ev in events)


def _count_server_numeric(events) -> int:
    # The server logs a skipped measurement as "observer=..."; a robot that
    # rejects its correction logs "robot=...".
    return sum(ev.code == EVENT_NUMERIC_S and ev.detail.startswith("observer=") for ev in events)


@dataclass
class Measurement:
    """The calls of one measurement, and their times on an unloaded host.

    Every call's time and server epoch latencies are divided by the host's
    slowdown measured right before and after it, so a stretch of other load
    on a shared host moves the figures far less than it moves the raw times.
    """

    calls: list[Call] = field(default_factory=list)
    errors: ErrorTotals = field(default_factory=ErrorTotals)
    reference_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.calls)

    def runs_per_s(self) -> float:
        """Runs per second of one round of call kinds, each at its median call."""
        per_run: dict[str, list[float]] = {}
        for c in self.calls:
            per_run.setdefault(c.kind, []).append(c.seconds / c.host / c.runs)
        return len(per_run) / sum(statistics.median(t) for t in per_run.values())

    def epoch_ms(self) -> list[float]:
        """Every server epoch latency of the measurement over its call's host factor."""
        return [ms / c.host for c in self.calls for ms in c.epoch_ms]

    def run_round(
        self,
        inputs: Inputs,
        epoch_ms: list[float] | None = None,
        corrupt_cross_sign: bool = False,
    ) -> None:
        """One call, or for the verify workload an exact and a dropout check.

        ``epoch_ms`` is the list a probe appends server epoch latencies to;
        each call keeps the latencies it added. The host's slowdown is
        measured before and after every call, for 5% of the last call's time
        on each side and at least ``reference.UNITS`` units.
        """
        for _ in range(1 if inputs.estimators else len(_VERIFY_CHECKS)):
            last = self.calls[-1].seconds if self.calls else 0.0
            units = max(reference.UNITS, int(0.05 * last / reference.UNIT_S))
            t0 = perf_counter()
            before = reference.slowdown(units)
            self.reference_s += perf_counter() - t0
            start = len(epoch_ms) if epoch_ms is not None else 0
            call = _run_call(inputs, len(self.calls), self.errors, corrupt_cross_sign)
            if epoch_ms is not None:
                call.epoch_ms = epoch_ms[start:]
            t0 = perf_counter()
            call.host = (before + reference.slowdown(units)) / 2.0
            self.reference_s += perf_counter() - t0
            self.calls.append(call)


def measure(
    inputs: Inputs,
    seconds: float,
    epoch_ms: list[float] | None = None,
    corrupt_cross_sign: bool = False,
) -> Measurement:
    """Run rounds of calls until ``seconds`` have passed; always at least one.

    With ``epoch_ms`` given, rounds also go on until ``MIN_EPOCHS`` server
    epochs were timed, so that ten lie beyond the p90 latency.
    """
    out = Measurement()
    t0 = perf_counter()
    while True:
        out.run_round(inputs, epoch_ms, corrupt_cross_sign)
        enough = epoch_ms is None or len(epoch_ms) >= MIN_EPOCHS
        if enough and perf_counter() - t0 >= seconds:
            return out


def reference_frame_lengths() -> dict[str, int]:
    """Encoded length of each frame kind for a two-robot team.

    The paper's claim is that frames do not grow with the team, so every
    frame a workload sends must have exactly these lengths.
    """
    node = RobotNode(1, np.zeros(3), np.eye(3))
    return {
        "landmark": len(node.landmark_message(z=np.zeros(2), landmark=2).encode()),
        "update_single": len(UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))).encode()),
        "update_summed": len(UpdateMessage(1, 0, "summed", np.zeros(3), np.zeros((3, 3))).encode()),
    }


def batch_checks(
    inputs: Inputs, measurement: Measurement, frame_lengths: dict[str, set[int]]
) -> list[bool]:
    """Whole-run output checks of a Monte-Carlo workload; each is one operation.

    Every frame of one kind has the two-robot length, and on table1 the
    split filter with dropouts has a lower RMS error than dead reckoning.
    """
    if not inputs.estimators:
        return []
    reference = reference_frame_lengths()
    checks = [all(lengths <= {reference[kind]} for kind, lengths in frame_lengths.items())]
    if harness.DR in inputs.estimators:
        errors = measurement.errors
        checks.append(errors.rms_pos(harness.SA_SPLIT_DROPOUT) < errors.rms_pos(harness.DR))
    return checks
