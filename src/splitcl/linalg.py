"""Small dense linear-algebra helpers shared by both filter implementations.

The 2x2 and 3x3 kernels take and return Python floats, the distinct
entries of symmetric matrices: on matrices this small, numpy's per-call
overhead costs several times the arithmetic, and a caller that already
works on floats (the split filter's innovation, its corrections) passes
them on without building an array. Python floats do not warn: an overflow
gives ``inf`` and an invalid operation ``nan``, so every kernel checks its
input before it divides or takes a root, and a failed check raises
:class:`NumericalError`.
"""

from __future__ import annotations

import math

import numpy as np

# Innovation covariances are rejected when an eigenvalue drops below this
# fraction of the trace; an explicit failure beats silent NaN propagation.
SPD_REL_TOL = 1e-12

# Most negative covariance eigenvalue still taken as rounding: a covariance
# ``P`` passes when ``P + EIG_TOL I`` has a Cholesky factor.
EIG_TOL = 1e-9


class NumericalError(RuntimeError):
    """A covariance or innovation became numerically invalid."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """``0.5 (m + m')``, bit for bit, with the sum as its one temporary."""
    out = m + m.T
    out *= 0.5
    return out


def block_diag_sandwich(blocks: np.ndarray, team_matrix: np.ndarray) -> np.ndarray:
    """``B M B'`` for a block-diagonal ``B``, in the ``(N, 3, N, 3)`` layout.

    ``blocks`` is the ``(N, 3, 3)`` stack of diagonal blocks of ``B`` and
    ``team_matrix`` holds ``M`` with ``[a, :, b, :]`` its block ``M_ab``;
    block ``(a, b)`` of the result is ``B_a M_ab B_b'``. Two batched
    products on the ``(N, 3, 3N)`` block rows do it: ``B M`` row by row, then
    ``B (B M)'`` row by row, transposed back.
    """
    n = blocks.shape[0]
    rows = np.matmul(blocks, team_matrix.reshape(n, 3, 3 * n)).reshape(3 * n, 3 * n)
    cols = np.matmul(blocks, rows.T.reshape(n, 3, 3 * n)).reshape(3 * n, 3 * n)
    return np.ascontiguousarray(cols.T).reshape(n, 3, n, 3)


def team_covs(cov: np.ndarray, n: int) -> np.ndarray:
    """The ``(N, 3, 3)`` own covariances of ``n`` robots, a new array:
    ``cov`` is one ``(3, 3)`` for every robot or an ``(N, 3, 3)`` stack."""
    return np.array(np.broadcast_to(np.asarray(cov, dtype=float), (n, 3, 3)))


def check_spd_2x2(a: float, b: float, d: float) -> float:
    """Determinant of the symmetric 2x2 ``[[a, b], [b, d]]``, or
    :class:`NumericalError` unless the matrix is acceptably positive
    definite: its smaller eigenvalue, in closed form, positive and at least
    ``SPD_REL_TOL`` times its trace, and its determinant a positive float.
    The last rule refuses a matrix whose determinant overflows (a diagonal
    of 1e300) or underflows to zero (subnormal entries), whose roots
    :func:`sqrt_and_inv_sqrt_2x2` could not form."""
    trace = a + d
    lo = 0.5 * trace - math.hypot(0.5 * (a - d), b)
    det = a * d - b * b
    # Written so that a NaN anywhere fails.
    if not (lo > 0.0 and lo >= SPD_REL_TOL * trace and 0.0 < det < math.inf):
        raise NumericalError(
            f"innovation covariance is not positive definite (min eig {lo:.3e}, det {det:.3e})"
        )
    return det


def sqrt_and_inv_sqrt_2x2(
    a: float, b: float, d: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Symmetric square root of ``[[a, b], [b, d]]`` and its inverse, each
    as its upper triangle ``(00, 01, 11)``, after :func:`check_spd_2x2`.

    The symmetric root is required: the same factor multiplies both the
    residual and its own transpose downstream, so a triangular factor
    would satisfy only one of the two identities it is used in. With
    ``q = sqrt(det s)``, the root is ``(s + q I) / sqrt(trace s + 2 q)``;
    its determinant is ``q``, so its adjugate over ``q`` is its inverse.
    """
    sq_det = math.sqrt(check_spd_2x2(a, b, d))
    scale = math.sqrt(a + d + 2.0 * sq_det)
    r00, r01, r11 = (a + sq_det) / scale, b / scale, (d + sq_det) / scale
    return (r00, r01, r11), (r11 / sq_det, -r01 / sq_det, r00 / sq_det)


def psd_3x3(a: float, b: float, c: float, d: float, e: float, f: float) -> bool:
    """Whether the symmetric 3x3 matrix ``[[a, b, c], [b, d, e], [c, e, f]]``
    is positive semidefinite up to rounding.

    The test is the Cholesky test of ``m + EIG_TOL I`` that the equivalence
    check applies to the joint covariance: the three pivots of its
    ``L D L'`` factorization, in closed form, must all be positive. A
    matrix with a non-finite entry fails (so does one whose entries sum
    beyond the float range).
    """
    if not math.isfinite(a + b + c + d + e + f):
        return False
    p0 = a + EIG_TOL
    if not p0 > 0.0:
        return False
    l1, l2 = b / p0, c / p0
    p1 = d + EIG_TOL - l1 * b
    if not p1 > 0.0:
        return False
    e1 = e - l2 * b
    return f + EIG_TOL - l2 * c - e1 * e1 / p1 > 0.0
