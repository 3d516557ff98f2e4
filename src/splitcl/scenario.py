"""Scenario definition: trajectories, measurement schedule, channel behavior.

A scenario is a plain JSON document (format tag ``splitcl-scenario/1``) that
follows the fields of :class:`Scenario`: an object per nested dataclass, a row
per listed dataclass with its fields in order, a list per other tuple. The
keys, with distances in meters, times in seconds and angles in radians:

``n_robots``            team size N, at most ``MAX_ROBOTS``; robots are
                        labelled 1..N
``duration_s``          simulated time span
``dt_s``                integration step
``path``                square-spiral geometry, object with ``side0``
                        (innermost edge length), ``growth`` (length added
                        per edge, at least 0), ``edge_time_s``,
                        ``turn_time_s``, ``center`` ([x, y])
``v_noise_frac``        per-robot std of linear-velocity noise as a fraction
                        of the commanded speed (list of N floats)
``w_noise_frac``        same for angular velocity
``meas_windows``        list of [start_s, end_s, observer, landmark]; during
                        each window the observer measures the landmark every
                        ``meas_period_s`` seconds, first at
                        ``start_s + meas_period_s`` and last at ``end_s``
``meas_period_s``       relative-measurement cadence inside windows
``meas_noise_std``      per-axis std of the relative-position measurement
``dropout_windows``     list of [robot, start_s, end_s]; the robot is
                        disconnected for times in (start_s, end_s]
``bernoulli_p``         extra i.i.d. per-robot, per-epoch loss probability
``zones``               list of [x_min, y_min, x_max, y_max] dropout areas;
                        a robot whose true position lies inside one, edges
                        included, is disconnected at that epoch
``initial_cov_diag``    diagonal of every robot's initial covariance
``perturb_initial``     draw the initial estimate error from the initial
                        covariance (true start poses are given by
                        ``start_poses``)
``seed``                default RNG seed for runs of this scenario, at least 0

Every robot starts at the spiral's center; in a team of N, robot r heads
out at (r-1) * 360/N degrees and drives its own copy of the outward square
spiral, rotated by that angle, so no two robots share a trajectory (four
robots head out 90 degrees apart). All robots reach their next corner at
the same instant (straight edges at constant speed, turns in place).
Cross-covariances always start at zero.

The 1e-6 floor on process-noise variances applies to the covariance the
filters use, not to the injected noise, so a zero-noise scenario really is
noise free.

A :class:`Scenario` is checked when it is built: construction runs
:meth:`Scenario.validate`, so no scenario that fails it exists.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .model import wrap_angle

FORMAT_TAG = "splitcl-scenario/1"

# Lower bound on filter-side process-noise variances, keeps Q positive
# definite through zero-velocity segments.
PROCESS_NOISE_FLOOR = 1e-6

# Largest team a scenario may hold. The server's factor store and the
# centralized filter's covariance are dense, 72 N^2 bytes each: 75 MB at
# this size, and a mistyped team size is refused before anything is built.
MAX_ROBOTS = 1024


class ScenarioError(ValueError):
    """Invalid scenario content."""


@dataclass(frozen=True)
class SpiralPath:
    """Outward square-spiral track shared by the whole team.

    Edge ``m`` is ``side0 + m * growth`` meters long. Every robot drives its
    own copy of this track from the center, rotated by (r-1) * 360/N degrees
    for robot r of N (see :func:`start_poses`), and all robots corner
    simultaneously.
    """

    side0: float = 1.0
    growth: float = 0.25
    edge_time_s: float = 24.0
    turn_time_s: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)

    def edge_length(self, m: int) -> float:
        return self.side0 + m * self.growth


@dataclass(frozen=True)
class MeasurementWindow:
    start_s: float
    end_s: float
    observer: int
    landmark: int


@dataclass(frozen=True)
class DropoutWindowSpec:
    robot: int
    start_s: float
    end_s: float


@dataclass(frozen=True)
class Scenario:
    n_robots: int = 4
    duration_s: float = 300.0
    dt_s: float = 0.1
    path: SpiralPath = field(default_factory=SpiralPath)
    v_noise_frac: tuple[float, ...] = (0.35, 0.30, 0.25, 0.20)
    w_noise_frac: tuple[float, ...] = (0.25, 0.20, 0.20, 0.15)
    meas_windows: tuple[MeasurementWindow, ...] = ()
    meas_period_s: float = 1.0
    meas_noise_std: float = 0.05
    dropout_windows: tuple[DropoutWindowSpec, ...] = ()
    bernoulli_p: float = 0.0
    zones: tuple[tuple[float, float, float, float], ...] = ()
    initial_cov_diag: tuple[float, float, float] = (0.0025, 0.0025, 0.00274)
    perturb_initial: bool = True
    seed: int = 1

    @property
    def robot_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_robots + 1))

    @property
    def n_steps(self) -> int:
        return int(round(self.duration_s / self.dt_s))

    def meas_noise_cov(self) -> np.ndarray:
        return np.eye(2) * self.meas_noise_std**2

    def initial_cov(self) -> np.ndarray:
        return np.diag(self.initial_cov_diag)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ScenarioError` unless the scenario can be run, and
        saved: every scalar, nested ones included, must be one its file holds.
        Construction runs it, so it passes on every built scenario."""
        non_finite = [
            name for name, kind in _field_types(type(self)).items()
            if not _finite_field(kind, getattr(self, name), name)
        ]
        if non_finite:
            raise ScenarioError(f"non-finite values in {non_finite}")
        _check_team_size(self.n_robots)
        if self.dt_s <= 0 or self.duration_s <= 0:
            raise ScenarioError("dt_s and duration_s must be positive")
        if self.n_steps < 1:
            raise ScenarioError("duration_s must span at least one step of dt_s")
        if self.meas_period_s <= 0:
            raise ScenarioError("meas_period_s must be positive")
        spans = {
            "meas_period_s": self.meas_period_s,
            "path.edge_time_s": self.path.edge_time_s,
            "path.turn_time_s": self.path.turn_time_s,
        }
        for name, seconds in spans.items():
            if seconds_to_step(seconds, self.dt_s) < 1:
                raise ScenarioError(f"{name} must be at least one step of dt_s")
        if self.meas_noise_std <= 0:
            raise ScenarioError("meas_noise_std must be positive")
        if len(self.v_noise_frac) != self.n_robots or len(self.w_noise_frac) != self.n_robots:
            raise ScenarioError("noise fraction lists must have one entry per robot")
        if any(f < 0 for f in self.v_noise_frac + self.w_noise_frac):
            raise ScenarioError("noise fractions must be non-negative")
        if not 0.0 <= self.bernoulli_p < 1.0:
            raise ScenarioError("bernoulli_p must be in [0, 1)")
        check_seed(self.seed)
        for name, entries, width in (("path.center", self.path.center, 2),
                                     ("initial_cov_diag", self.initial_cov_diag, 3)):
            if len(entries) != width:
                raise ScenarioError(f"{name} must have {width} entries, got {len(entries)}")
        if any(d <= 0 for d in self.initial_cov_diag):
            raise ScenarioError("initial covariance diagonal must be positive")
        if self.path.side0 <= 0:
            raise ScenarioError("spiral side0 must be positive")
        if self.path.growth < 0:
            raise ScenarioError(f"path.growth must be non-negative, got {self.path.growth}")
        ids = set(self.robot_ids)
        for w in self.meas_windows:
            if w.observer not in ids or w.landmark not in ids:
                raise ScenarioError(f"measurement window {w} names an unknown robot")
            if w.observer == w.landmark:
                raise ScenarioError(f"measurement window {w} is self-referential")
            if not 0 <= w.start_s < w.end_s <= self.duration_s:
                raise ScenarioError(f"measurement window {w} is outside the run")
        for d in self.dropout_windows:
            if d.robot not in ids:
                raise ScenarioError(f"dropout window {d} names an unknown robot")
            if not 0 <= d.start_s <= d.end_s <= self.duration_s:
                raise ScenarioError(f"dropout window {d} is outside the run")
        for z in self.zones:
            if len(z) != 4 or z[0] > z[2] or z[1] > z[3]:
                raise ScenarioError(f"zone {z} is not a valid rectangle")

    def to_dict(self) -> dict:
        return {"format": FORMAT_TAG, **_to_json(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError("scenario document must be a JSON object")
        tag = d.get("format")
        if tag != FORMAT_TAG:
            raise ScenarioError(f"unsupported scenario format {tag!r}")
        body = {key: value for key, value in d.items() if key != "format"}
        try:
            return _from_object(cls, body, "scenario keys", "")
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario field: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"scenario file not found: {p}")
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file {p} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


# A dataclass's field types by name, in field order, resolved once.
_field_types = functools.cache(get_type_hints)


def _from_object(cls: type, d: dict, what: str, prefix: str):
    """The dataclass ``cls`` from ``d``, keyed by exactly its fields; errors
    name the keys by ``what`` and each field by ``prefix`` and its name."""
    hints = _field_types(cls)
    unknown = d.keys() - hints.keys()
    if unknown:
        raise ScenarioError(f"unknown {what} {sorted(unknown)}")
    missing = hints.keys() - d.keys()
    if missing:
        raise ScenarioError(f"missing {what} {sorted(missing)}")
    return cls(**{name: _from_json(kind, d[name], prefix + name) for name, kind in hints.items()})


def _from_json(kind, value, name: str):
    """``value`` read from JSON as a field of type ``kind``, which errors call
    ``name``; see the module docstring for the form of each type."""
    if kind in _SCALARS:
        return _SCALARS[kind](value, name)
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ScenarioError(f"{name} must be a JSON object")
        return _from_object(kind, value, f"{name} keys", f"{name}.")
    item = get_args(kind)[0]
    if is_dataclass(item):
        # A row is an object keyed by position.
        columns = _field_types(item)
        return tuple(
            _from_object(item, dict(zip(columns, _row(row, len(columns), name))), "", f"{name} ")
            for row in value
        )
    return tuple(_from_json(item, entry, name) for entry in value)


def _to_json(value):
    """A field value in its JSON form, the inverse of :func:`_from_json`."""
    if is_dataclass(value):
        return {name: _to_json(getattr(value, name)) for name in _field_types(type(value))}
    if isinstance(value, tuple):
        return [list(_to_json(v).values()) if is_dataclass(v) else _to_json(v) for v in value]
    return value


def _check_team_size(n_robots: int) -> None:
    if n_robots < 1:
        raise ScenarioError("n_robots must be at least 1")
    if n_robots > MAX_ROBOTS:
        raise ScenarioError(f"n_robots must be at most {MAX_ROBOTS}, got {n_robots}")


def check_seed(seed) -> int:
    """``seed`` as an int, refused unless numpy can seed a generator from it:
    an integer, not a bool, and not negative."""
    if isinstance(seed, (bool, np.bool_)) or not hasattr(seed, "__index__"):
        raise ScenarioError(f"seed must be an integer, got {seed!r}")
    seed = operator.index(seed)
    if seed < 0:
        raise ScenarioError(f"seed must be non-negative, got {seed}")
    return seed


def check_seed_key(seed) -> tuple[int, ...]:
    """A seed key as a tuple of ints, from an int or a tuple or list of
    ints, each entry refused as :func:`check_seed` refuses it."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(check_seed(s) for s in entries)


def _integer(value, name: str) -> int:
    """A JSON integer field as an int; a bool or a fractional number is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ScenarioError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A JSON number field as a float; a bool, a string or another type is
    refused rather than converted. Non-finite values pass here and are
    refused by :meth:`Scenario.validate`, which names every such field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ScenarioError(f"{name} must be a number, got {value!r}")


def _row(value, width: int, name: str) -> list:
    """One row of a list field, refused unless it has exactly ``width`` entries."""
    if not isinstance(value, (list, tuple)) or len(value) != width:
        raise ScenarioError(f"{name} rows must have {width} entries, got {value!r}")
    return value


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{name} must be true or false, got {value!r}")
    return value


# The reader of each scalar field type, for the file and for validate.
_SCALARS = {bool: _flag, int: _integer, float: _real}


def _finite_field(kind, value, name: str) -> bool:
    """Whether every number in ``value``, a field of type ``kind`` that
    errors call ``name``, is finite. Each scalar, nested rows and tuples
    included, is read as :func:`_from_json` reads it from the file, so a
    value the file could not hold is refused here."""
    if kind in _SCALARS:
        read = _SCALARS[kind](value, name)
        # range() needs 4, not 4.0, and the file an int, not a numpy integer.
        if kind is int and read is not value:
            raise ScenarioError(f"{name} must be an integer, got {value!r}")
        return kind is not float or math.isfinite(read)
    if is_dataclass(kind):
        fields = _field_types(kind).items()
        return all([_finite_field(t, getattr(value, f), f"{name}.{f}") for f, t in fields])
    item = get_args(kind)[0]
    if is_dataclass(item):
        columns = _field_types(item).items()
        return all([
            _finite_field(t, getattr(row, f), f"{name} {f}") for row in value for f, t in columns
        ])
    return all([_finite_field(item, entry, name) for entry in value])


def seconds_to_step(t_s: float, dt_s: float) -> int:
    return int(round(t_s / dt_s))


def start_poses(sc: Scenario) -> np.ndarray:
    """True initial pose of each robot.

    Robot r of N drives its own copy of the base spiral, rotated by
    (r-1) * 360/N degrees about the shared center, so the team fans out
    from the center in N distinct directions while cornering in lockstep.
    For N = 4 the headings are the multiples of 90 degrees, bit for bit.
    """
    poses = np.zeros((sc.n_robots, 3))
    cx, cy = sc.path.center
    for r in range(sc.n_robots):
        poses[r, :2] = (cx, cy)
        poses[r, 2] = wrap_angle(r * math.tau / sc.n_robots)
    return poses


def true_controls(sc: Scenario) -> np.ndarray:
    """Commanded ``[v, omega]`` per robot and step, shape (N, T, 2).

    Each robot alternates a constant-speed straight edge with an in-place
    quarter turn on its own rotated copy of the spiral, so all robots get
    the same controls and corner at the same steps. Steps past the last
    full edge-turn cycle are zero (the robot waits).
    """
    dt = sc.dt_s
    n_steps = sc.n_steps
    edge_steps = seconds_to_step(sc.path.edge_time_s, dt)
    turn_steps = seconds_to_step(sc.path.turn_time_s, dt)
    cycle = edge_steps + turn_steps
    n_cycles = n_steps // cycle
    edge_lengths = np.array([sc.path.edge_length(m) for m in range(n_cycles)])
    turn_rate = (math.pi / 2) / (turn_steps * dt)
    controls = np.zeros((n_steps, 2))
    for c in range(n_cycles):
        k0 = c * cycle
        controls[k0:k0 + edge_steps, 0] = edge_lengths[c] / (edge_steps * dt)
        controls[k0 + edge_steps:k0 + cycle, 1] = turn_rate
    return np.repeat(controls[None], sc.n_robots, axis=0)


def process_noise_diags(sc: Scenario, controls: np.ndarray) -> np.ndarray:
    """Injected-noise variances per robot and step, shape (N, T, 2)."""
    v_frac = np.asarray(sc.v_noise_frac)[:, None]
    w_frac = np.asarray(sc.w_noise_frac)[:, None]
    out = np.empty_like(controls)
    out[:, :, 0] = (v_frac * np.abs(controls[:, :, 0])) ** 2
    out[:, :, 1] = (w_frac * np.abs(controls[:, :, 1])) ** 2
    return out


def measurement_schedule(sc: Scenario) -> dict[int, list[tuple[int, int]]]:
    """Map epoch step -> (observer, landmark) pairs in processing order."""
    period = seconds_to_step(sc.meas_period_s, sc.dt_s)
    schedule: dict[int, list[tuple[int, int]]] = {}
    for w in sc.meas_windows:
        start = seconds_to_step(w.start_s, sc.dt_s)
        end = seconds_to_step(w.end_s, sc.dt_s)
        for k in range(start + period, end + 1, period):
            schedule.setdefault(k, []).append((w.observer, w.landmark))
    for pairs in schedule.values():
        pairs.sort()
    return dict(sorted(schedule.items()))


def build_table1_scenario(**overrides) -> Scenario:
    """The four-robot benchmark scenario used by the verification suite.

    Six five-second measurement bursts spread over a 300 s run, twelve
    observer-landmark window entries in total, and two scheduled
    disconnection windows for robot 4. Any field can be overridden,
    the windows included.
    """
    windows = (
        MeasurementWindow(45.0, 50.0, 1, 2),
        MeasurementWindow(45.0, 50.0, 2, 3),
        MeasurementWindow(45.0, 50.0, 3, 4),
        MeasurementWindow(90.0, 95.0, 3, 4),
        MeasurementWindow(90.0, 95.0, 4, 1),
        MeasurementWindow(135.0, 140.0, 1, 2),
        MeasurementWindow(135.0, 140.0, 3, 4),
        MeasurementWindow(180.0, 185.0, 2, 3),
        MeasurementWindow(225.0, 230.0, 1, 2),
        MeasurementWindow(225.0, 230.0, 3, 4),
        MeasurementWindow(270.0, 275.0, 2, 3),
        MeasurementWindow(270.0, 275.0, 4, 1),
    )
    dropouts = (
        DropoutWindowSpec(4, 135.0, 140.0),
        DropoutWindowSpec(4, 180.0, 185.0),
    )
    return Scenario(**{"meas_windows": windows, "dropout_windows": dropouts, **overrides})


def random_scenario(
    n_robots: int,
    seed: int,
    duration_s: float = 120.0,
    window_every_s: float = 20.0,
    bernoulli_p: float = 0.0,
) -> Scenario:
    """A reproducible randomized scenario for an ``n_robots`` team.

    One measurement window per ``window_every_s`` of run time, each pairing
    two distinct randomly drawn robots. A negative ``seed``, a non-finite
    ``duration_s``, or a spacing that is not finite or under one step of
    ``dt_s``, is refused before any window is drawn.
    """
    if n_robots < 2:
        raise ScenarioError("random scenarios need at least 2 robots")
    _check_team_size(n_robots)
    check_seed(seed)
    if not math.isfinite(duration_s):
        raise ScenarioError(f"duration_s must be finite, got {duration_s}")
    if not math.isfinite(window_every_s) or seconds_to_step(window_every_s, Scenario.dt_s) < 1:
        raise ScenarioError(
            f"window_every_s must be at least one step of dt_s, got {window_every_s}"
        )
    rng = np.random.default_rng(seed)
    windows = []
    t = window_every_s
    while t + 5.0 <= duration_s:
        observer, landmark = rng.choice(np.arange(1, n_robots + 1), size=2, replace=False)
        windows.append(MeasurementWindow(t, t + 5.0, int(observer), int(landmark)))
        t += window_every_s
    fracs = rng.uniform(0.15, 0.35, size=(2, n_robots))
    return Scenario(
        n_robots=n_robots,
        duration_s=duration_s,
        v_noise_frac=tuple(round(f, 3) for f in fracs[0]),
        w_noise_frac=tuple(round(f, 3) for f in fracs[1]),
        meas_windows=tuple(windows),
        bernoulli_p=bernoulli_p,
        seed=seed,
    )


def strip_dropouts(sc: Scenario) -> Scenario:
    """The same scenario under perfect communication."""
    return replace(sc, dropout_windows=(), bernoulli_p=0.0, zones=())
