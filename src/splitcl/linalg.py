"""Small dense linear-algebra helpers shared by both filter implementations."""

from __future__ import annotations

import numpy as np

# Innovation covariances are rejected when an eigenvalue drops below this
# fraction of the trace; an explicit failure beats silent NaN propagation.
SPD_REL_TOL = 1e-12


class NumericalError(RuntimeError):
    """A covariance or innovation became numerically invalid."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


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


def eig_bounds_2x2(s: np.ndarray) -> tuple[float, float]:
    """(min, max) eigenvalues of a symmetric 2x2 matrix, closed form."""
    half_tr = 0.5 * (s[0, 0] + s[1, 1])
    radius = np.hypot(0.5 * (s[0, 0] - s[1, 1]), s[0, 1])
    return half_tr - radius, half_tr + radius


def check_spd_2x2(s: np.ndarray, context: str = "innovation covariance") -> None:
    """Raise :class:`NumericalError` unless ``s`` is acceptably positive definite."""
    lo, _ = eig_bounds_2x2(s)
    trace = s[0, 0] + s[1, 1]
    if not np.isfinite(trace) or lo < SPD_REL_TOL * trace:
        raise NumericalError(f"{context} is not positive definite (min eig {lo:.3e})")


def sqrt_and_inv_sqrt_2x2(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root of an SPD 2x2 matrix and its inverse.

    The symmetric root is required: the same factor multiplies both the
    residual and its own transpose downstream, so a triangular factor
    would satisfy only one of the two identities it is used in.
    """
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    trace = s[0, 0] + s[1, 1]
    sq_det = np.sqrt(det)
    scale = np.sqrt(trace + 2.0 * sq_det)
    root = (s + sq_det * np.eye(2)) / scale
    # det(root) == sq_det, so the adjugate gives the inverse directly.
    inv_root = (
        np.array([[root[1, 1], -root[0, 1]], [-root[1, 0], root[0, 0]]]) / sq_det
    )
    return root, inv_root


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(m)[0])
