"""Planar unicycle motion model and relative-position measurement models.

Conventions shared by every estimator in the package:

- a robot pose is ``[x, y, theta]`` (meters, meters, radians), with ``theta``
  kept in ``(-pi, pi]`` after each propagation step;
- a control input is ``[v, omega]`` (m/s, rad/s), integrated with a fixed-step
  Euler scheme, so the pose Jacobian ``F`` is exactly a shear
  ``[[1, 0, a], [0, 1, b], [0, 0, 1]]`` with ``(a, b)`` the step's
  ``(-v dt sin(theta), v dt cos(theta))``; shears compose by adding their
  translations, which the split filter relies on;
- a relative measurement is the landmark robot's position expressed in the
  observer's body frame (2-vector, meters);
- an absolute measurement is a direct readout of the robot's own position in
  the world frame.

The motion model steps a whole team at once: :func:`propagate_pose` takes
one robot's pose or a team's ``(N, 3)`` stack, and :func:`propagate_poses`,
the kernel of every filter's propagation, also returns the team's motion
Jacobians. Each robot's row is bit for bit what the same step gives that
robot alone.

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


@dataclass(slots=True, frozen=True)
class AbsoluteMeasurement:
    """Direct world-frame position measurement of a single robot."""

    observer: int
    z: np.ndarray
    time: int

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.z)):
            raise ModelError("absolute measurement value must be finite")


# A heading ``theta + omega dt`` of magnitude below ``3 pi`` wraps with one
# exact addition of ``-tau``, ``0`` or ``tau``: by Sterbenz's lemma the sum
# is exact and so equals what ``math.remainder`` yields in
# :func:`wrap_angle`. Larger (or non-finite) headings go through it.
_SINGLE_TURN = 3.0 * math.pi

# The 3x3 identity as one row of 9, repeated to start N pose Jacobians.
_IDENTITY_ROW = np.eye(3).reshape(1, 9)


def _step(
    poses: np.ndarray, controls: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """New poses ``(N, 3)``, with ``cos(theta)``, ``sin(theta)``,
    ``v dt cos(theta)`` and ``v dt sin(theta)`` of the old ones."""
    if dt <= 0.0:
        raise ModelError(f"dt must be positive, got {dt}")
    poses = np.asarray(poses, dtype=float)
    controls = np.asarray(controls, dtype=float)
    n = poses.shape[0]
    if poses.shape != (n, 3) or controls.shape != (n, 2):
        raise ModelError(
            f"expected poses (N, 3) and controls (N, 2), got {poses.shape} and {controls.shape}"
        )
    theta = poses[:, 2]
    c = np.cos(theta)
    s = np.sin(theta)
    vdt = controls[:, 0] * dt
    # Per robot [v dt cos(theta), v dt sin(theta), omega dt], added to the
    # old pose in one go.
    delta = np.empty((n, 3))
    np.multiply(vdt, c, out=delta[:, 0])
    np.multiply(vdt, s, out=delta[:, 1])
    np.multiply(controls[:, 1], dt, out=delta[:, 2])
    out = poses + delta
    # A non-finite input makes some output non-finite; only then are the
    # inputs themselves checked (a finite input may still overflow).
    max_x, max_y, max_heading = np.abs(out).max(axis=0).tolist()
    if not math.isfinite(max_x + max_y + max_heading) and not (
        np.isfinite(poses).all() and np.isfinite(controls).all()
    ):
        raise ModelError("non-finite pose or control input")
    if not max_heading < math.pi:
        heading = out[:, 2].copy()
        out[:, 2] = np.where(
            heading > math.pi,
            heading - math.tau,
            np.where(heading <= -math.pi, heading + math.tau, heading),
        )
        far = ~(np.abs(heading) < _SINGLE_TURN)
        if far.any():
            out[far, 2] = [wrap_angle(a) for a in heading[far]]
    return out, c, s, delta[:, 0], delta[:, 1]


def propagate_pose(pose: np.ndarray, control: np.ndarray, dt: float) -> np.ndarray:
    """One Euler step of the unicycle model, for one robot or a whole team.

    ``pose`` is one robot's ``(3,)`` pose or a team's ``(N, 3)`` stack and
    ``control`` the matching ``(2,)`` or ``(N, 2)`` velocities. Returns
    ``[x + v dt cos(theta), y + v dt sin(theta), wrap(theta + omega dt)]``
    per robot, in the shape of ``pose``; each row is bit for bit the same
    whether the robot is stepped alone or with its team. Raises
    :class:`ModelError` for a non-positive ``dt`` and when any robot's pose
    or control is not finite.
    """
    if np.ndim(pose) == 1:
        return _step(np.reshape(pose, (1, 3)), np.reshape(control, (1, 2)), dt)[0][0]
    return _step(pose, control, dt)[0]


def propagate_poses(
    poses: np.ndarray, controls: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The filters' propagation kernel: one step of a team of N robots.

    ``poses`` is ``(N, 3)`` and ``controls`` ``(N, 2)``. Returns the new
    poses of :func:`propagate_pose`, the pose Jacobians ``F`` ``(N, 3, 3)``
    (exact shears for every input) and ``G`` ``(N, 3, 2)``, the
    sensitivity to additive velocity-space noise, both evaluated at the old
    poses.
    """
    out, c, s, step_x, step_y = _step(poses, controls, dt)
    n = out.shape[0]
    f_jac = _IDENTITY_ROW.repeat(n, axis=0)
    f_jac[:, 2] = -step_y
    f_jac[:, 5] = step_x
    g_jac = np.zeros((n, 6))
    g_jac[:, 0] = dt * c
    g_jac[:, 2] = dt * s
    g_jac[:, 5] = dt
    return out, f_jac.reshape(n, 3, 3), g_jac.reshape(n, 3, 2)


def process_noise(g_jacs: np.ndarray, q_diags: np.ndarray) -> np.ndarray:
    """``G diag(q) G'`` per robot, shape ``(N, 3, 3)``.

    ``g_jacs`` are the ``(N, 3, 2)`` noise Jacobians of
    :func:`propagate_poses` and ``q_diags`` the ``(N, 2)`` variances of the
    linear and angular velocity noise. ``G diag(q)`` scales the columns of
    ``G``; every other term of that product is an exact zero, so this is
    the value of ``G @ diag(q) @ G'``.
    """
    q_diags = np.asarray(q_diags, dtype=float)
    n = g_jacs.shape[0]
    if q_diags.shape != (n, 2):
        raise ModelError(f"expected noise diagonals ({n}, 2), got {q_diags.shape}")
    return (g_jacs * q_diags[:, None, :]) @ g_jacs.transpose(0, 2, 1)


def motion_jacobians(pose: np.ndarray, control: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians ``(F, G)`` of one robot's step: :func:`propagate_poses` with N = 1."""
    _, f_jac, g_jac = propagate_poses(np.reshape(pose, (1, 3)), np.reshape(control, (1, 2)), dt)
    return f_jac[0], g_jac[0]


def relative_position(observer_pose: np.ndarray, landmark_pose: np.ndarray) -> np.ndarray:
    """Landmark position in the observer body frame."""
    c = math.cos(observer_pose[2])
    s = math.sin(observer_pose[2])
    dx = landmark_pose[0] - observer_pose[0]
    dy = landmark_pose[1] - observer_pose[1]
    return np.array([c * dx + s * dy, -s * dx + c * dy])


def relative_jacobians(observer_pose: np.ndarray, landmark_pose: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of :func:`relative_position` w.r.t. observer and landmark pose.

    The landmark Jacobian's heading column is identically zero: the model does
    not depend on the landmark's orientation.
    """
    c = math.cos(observer_pose[2])
    s = math.sin(observer_pose[2])
    dx = landmark_pose[0] - observer_pose[0]
    dy = landmark_pose[1] - observer_pose[1]
    h_obs = np.array([
        [-c, -s, -s * dx + c * dy],
        [s, -c, -c * dx - s * dy],
    ])
    h_lm = np.array([
        [c, s, 0.0],
        [-s, c, 0.0],
    ])
    return h_obs, h_lm


def absolute_position(pose: np.ndarray) -> np.ndarray:
    """World-frame position readout ``[x, y]``."""
    return np.array([pose[0], pose[1]])


def absolute_jacobian() -> np.ndarray:
    """Constant Jacobian of :func:`absolute_position`."""
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
