"""Planar unicycle motion model and relative-position measurement model.

Conventions shared by every estimator in the package:

- a robot pose is ``[x, y, theta]`` (meters, meters, radians), with ``theta``
  kept in ``(-pi, pi]`` after each propagation step;
- a control input is ``[v, omega]`` (m/s, rad/s), integrated with a fixed-step
  Euler scheme, so the pose Jacobian ``F`` is exactly a shear
  ``[[1, 0, a], [0, 1, b], [0, 0, 1]]`` with ``(a, b)`` the step's
  ``(-v dt sin(theta), v dt cos(theta))``; shears compose by adding their
  translations, which the split filter relies on;
- a measurement is relative, robot to robot: the landmark robot's position
  expressed in the observer's body frame (2-vector, meters).

The measurement model is defined once, on Python floats
(:func:`relative_terms`): the split filter's server and the centralized
filter both call this kernel directly, so the two filters linearize with
the same arithmetic. :func:`relative_position`, the one array wrapper,
draws the simulated truth's measurements.

The motion model steps a whole team through a whole stretch of time at
once: :func:`propagate_pose`, the one motion kernel, takes the team's
``(N, 3)`` poses and ``(N, L, 2)`` controls and returns every pose of the
``L`` steps with each step's motion Jacobians. Between two measurement
epochs a robot only dead-reckons, so a simulator calls it once per such
segment. Each robot's values are bit for bit what stepping that robot alone,
one step at a time, gives.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    """Invalid input to a motion or measurement model."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to ``(-pi, pi]``.

    ``wrap_angle(-pi)`` returns ``pi``; the result is congruent to ``a``
    modulo ``2*pi`` and the function is idempotent.
    """
    if not math.isfinite(a):
        raise ModelError(f"cannot wrap non-finite angle {a!r}")
    r = math.remainder(a, math.tau)
    return r + math.tau if r <= -math.pi else r


@dataclass(slots=True, frozen=True)
class RelativeMeasurement:
    """One robot observing another: landmark position in the observer frame.

    ``observer`` and ``landmark`` are 1-based robot ids and must differ;
    ``time`` is the discrete timestep index the measurement was taken at.
    """

    observer: int
    landmark: int
    z: np.ndarray
    time: int

    def __post_init__(self) -> None:
        if self.observer == self.landmark:
            raise ModelError("a robot cannot take a relative measurement of itself")
        if not np.all(np.isfinite(self.z)):
            raise ModelError("relative measurement value must be finite")


# A heading ``theta + omega dt`` of magnitude below ``3 pi`` wraps with one
# exact addition of ``-tau`` or ``tau``: by Sterbenz's lemma the sum is
# exact and so equals what ``math.remainder`` yields in :func:`wrap_angle`.
# Larger (or non-finite) headings go through it.
_SINGLE_TURN = 3.0 * math.pi

_IDENTITY = np.eye(3)
_NEGATE_FIRST = np.array([-1.0, 1.0])


def shear(translation: np.ndarray) -> np.ndarray:
    """The pose Jacobian ``[[1, 0, a], [0, 1, b], [0, 0, 1]]`` of a
    translation ``(a, b)``; a ``(..., 2)`` stack gives ``(..., 3, 3)``."""
    out = np.empty(translation.shape[:-1] + (3, 3))
    out[...] = _IDENTITY
    out[..., :2, 2] = translation
    return out


def propagate_pose(
    start: np.ndarray, controls: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The motion kernel: ``L`` Euler steps of a team of N robots in one call.

    ``start`` holds the ``(N, 3)`` poses and ``controls`` the ``(N, L, 2)``
    velocities of each step. Returns

    - the poses ``(N, L + 1, 3)``, row 0 being ``start``: per step
      ``[x + v dt cos(theta), y + v dt sin(theta), wrap(theta + omega dt)]``;
    - the translations ``(N, L, 2)`` of the steps' pose Jacobians
      ``F = shear((-v dt sin(theta), v dt cos(theta)))``;
    - ``G`` ``(N, L, 3, 2)``, each step's sensitivity to additive
      velocity-space noise.

    Both Jacobians are evaluated at the step's old pose. Every value is bit
    for bit what ``L`` single steps give, robot by robot: the headings are
    one running sum, re-summed from each step whose heading left
    ``(-pi, pi]`` once it is wrapped, and the positions are running sums of
    their steps. Raises :class:`ModelError` for a non-positive ``dt`` and
    when any pose or control is not finite.
    """
    if dt <= 0.0:
        raise ModelError(f"dt must be positive, got {dt}")
    start = np.asarray(start, dtype=float)
    controls = np.asarray(controls, dtype=float)
    n = start.shape[0] if start.ndim == 2 else -1
    if start.shape != (n, 3) or controls.ndim != 3 or controls.shape[::2] != (n, 2):
        raise ModelError(
            f"expected poses (N, 3) and controls (N, L, 2), got {start.shape} and {controls.shape}"
        )
    steps = controls.shape[1]
    poses = np.empty((n, steps + 1, 3))
    poses[:, 0] = start
    turns = controls[:, :, 1] * dt
    heading = poses[:, :, 2]
    heading[:, 1:] = turns
    np.add.accumulate(heading, axis=1, out=heading)
    # A non-finite input makes some sum non-finite; only then are the
    # inputs themselves checked (finite inputs may still overflow).
    if steps:
        max_heading = float(np.abs(heading[:, 1:]).max())
        if not max_heading < math.pi:
            if not math.isfinite(max_heading):
                _check_finite(start, controls)
            _wrap_headings(heading, turns)

    c = np.cos(heading[:, :-1])
    s = np.sin(heading[:, :-1])
    g_jacs = np.zeros((n, steps, 3, 2))
    np.multiply(c, dt, out=g_jacs[..., 0, 0])
    np.multiply(s, dt, out=g_jacs[..., 1, 0])
    g_jacs[..., 2, 1] = dt
    vdt = controls[:, :, 0] * dt
    np.multiply(vdt, c, out=poses[:, 1:, 0])
    np.multiply(vdt, s, out=poses[:, 1:, 1])
    # (-v dt sin(theta), v dt cos(theta)) from the steps (x, y) reversed.
    translations = poses[:, 1:, 1::-1] * _NEGATE_FIRST
    np.add.accumulate(poses[:, :, :2], axis=1, out=poses[:, :, :2])
    if not np.isfinite(poses[:, -1]).all():
        _check_finite(start, controls)
    return poses, translations, g_jacs


def _check_finite(start: np.ndarray, controls: np.ndarray) -> None:
    if not (np.isfinite(start).all() and np.isfinite(controls).all()):
        raise ModelError("non-finite pose or control input")


def _wrap_headings(heading: np.ndarray, turns: np.ndarray) -> None:
    """Wrap the running heading sums ``(N, L + 1)`` in place as stepping does.

    Each round finds, per robot, the earliest step whose heading left
    ``(-pi, pi]``, wraps it, and re-sums that robot's later headings from
    it over ``turns`` ``(N, L)``. The start heading is never wrapped.
    """
    rows = np.arange(heading.shape[0])
    while rows.size:
        tail = heading[rows, 1:]
        out = (tail > math.pi) | (tail <= -math.pi)
        hit = out.any(axis=1)
        rows, out, tail = rows[hit], out[hit], tail[hit]
        if not rows.size:
            return
        first = out.argmax(axis=1)
        h = tail[np.arange(rows.size), first]
        wrapped = np.where(h > math.pi, h - math.tau, h + math.tau)
        far = ~(np.abs(h) < _SINGLE_TURN)
        if far.any():
            wrapped[far] = [wrap_angle(a) for a in h[far]]
        # Re-sum from the earliest wrap of the round; -0.0 is the exact
        # additive identity, so it stands in for the steps before a row's
        # own wrap, whose sums are kept.
        lo = int(first.min())
        redo = turns[rows, lo:]
        before = np.arange(lo, turns.shape[1]) < first[:, None]
        redo[before] = -0.0
        redo[np.arange(rows.size), first - lo] = wrapped
        np.add.accumulate(redo, axis=1, out=redo)
        heading[rows, 1 + lo:] = np.where(before, tail[:, lo:], redo)


def process_noise(g_jacs: np.ndarray, q_diags: np.ndarray) -> np.ndarray:
    """``G diag(q) G'`` per robot and step, shape ``g_jacs.shape[:-1] + (3,)``.

    ``g_jacs`` are noise Jacobians of :func:`propagate_pose`, ``(..., 3, 2)``,
    and ``q_diags`` the matching ``(..., 2)`` variances of the linear and
    angular velocity noise. Such a ``G`` has zeros in its first column's
    last entry and its second column's first two, so the product has four
    distinct non-zero entries, ``(g_i q) g_j`` for ``i, j < 2`` from the
    first column and ``(g q) g`` in the heading corner from the second.
    They are written elementwise, associated as ``(G diag(q)) G'`` is, and
    every other term of that product is an exact zero, so this is the
    value of ``G @ diag(q) @ G'`` without a batched matrix product.
    """
    q_diags = np.asarray(q_diags, dtype=float)
    expected = g_jacs.shape[:-2] + (2,)
    if q_diags.shape != expected:
        raise ModelError(f"expected noise diagonals {expected}, got {q_diags.shape}")
    out = np.zeros(g_jacs.shape[:-1] + (3,))
    gx, gy, turn = g_jacs[..., 0, 0], g_jacs[..., 1, 0], g_jacs[..., 2, 1]
    gx_q, gy_q = gx * q_diags[..., 0], gy * q_diags[..., 0]
    np.multiply(gx_q, gx, out=out[..., 0, 0])
    np.multiply(gx_q, gy, out=out[..., 0, 1])
    np.multiply(gy_q, gx, out=out[..., 1, 0])
    np.multiply(gy_q, gy, out=out[..., 1, 1])
    np.multiply(turn * q_diags[..., 1], turn, out=out[..., 2, 2])
    return out


_Row = tuple[float, float, float]


def relative_terms(
    x: float, y: float, heading: float, xb: float, yb: float
) -> tuple[tuple[float, float], tuple[_Row, _Row], tuple[_Row, _Row]]:
    """The relative measurement of a landmark at ``(xb, yb)`` from an
    observer at ``(x, y, heading)``, on floats: the predicted value, then
    the rows of its Jacobians w.r.t. the observer's and the landmark's pose.

    This is the one definition of the relative model. The landmark
    Jacobian's heading column is identically zero: the model does not
    depend on the landmark's orientation. Float and ``np.float64``
    arithmetic round alike, so the result does not depend on which the
    caller passes.
    """
    c = math.cos(heading)
    s = math.sin(heading)
    dx = xb - x
    dy = yb - y
    return (
        (c * dx + s * dy, -s * dx + c * dy),
        ((-c, -s, -s * dx + c * dy), (s, -c, -c * dx - s * dy)),
        ((c, s, 0.0), (-s, c, 0.0)),
    )


def relative_position(observer_pose: np.ndarray, landmark_pose: np.ndarray) -> np.ndarray:
    """Landmark position in the observer body frame (:func:`relative_terms`)."""
    predicted, _, _ = relative_terms(*observer_pose[:3], *landmark_pose[:2])
    return np.array(predicted)
