"""The closed-form small-matrix kernels against their numpy references."""

import math

import numpy as np
import pytest

from splitcl.linalg import (
    EIG_TOL,
    NumericalError,
    check_spd_2x2,
    psd_3x3,
    sqrt_and_inv_sqrt_2x2,
    symmetrize,
)

from dense_oracle import eigenvalue_psd, numpy_sqrt_and_inv_sqrt_2x2

EPS = np.finfo(float).eps


def upper(m):
    """The six distinct entries of a symmetric 3x3 ``m``, in the order
    :func:`psd_3x3` takes them."""
    return m[[0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]].tolist()


def sym(m):
    """The three distinct entries ``(00, 01, 11)`` of a symmetric 2x2 ``m``."""
    return m[[0, 0, 1], [0, 1, 1]].tolist()


def random_symmetric(rng, scale, lowest):
    """A symmetric 3x3 matrix with eigenvalues ``lowest`` and two in
    ``[0.1, 1] * scale``, in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    eigs = np.array([lowest, *(scale * rng.uniform(0.1, 1.0, 2))])
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6])
def test_psd_gate_decides_as_the_eigenvalue_rule(scale):
    # Both rules are backward stable: each decides exactly for a matrix
    # within a small multiple of eps * scale of the one given. Away from
    # the boundary by more than this margin they must agree.
    margin = 32 * EPS * scale
    rng = np.random.default_rng(int(math.log10(scale)) + 10)
    outcomes = []
    for trial in range(1500):
        if trial % 3 == 0:
            lowest = rng.uniform(-1.0, 1.0) * scale
        else:
            # Near the boundary, on either side, down to the margin.
            lowest = -EIG_TOL + rng.choice([-1.0, 1.0]) * margin * 10 ** rng.uniform(0, 4)
        m = random_symmetric(rng, scale, lowest)
        if abs(np.linalg.eigvalsh(m)[0] + EIG_TOL) <= margin:
            continue
        expected = eigenvalue_psd(m, EIG_TOL)
        assert psd_3x3(*upper(m)) == expected, (m.tolist(), np.linalg.eigvalsh(m)[0])
        outcomes.append(expected)
    # Both decisions were tested, many times each.
    assert min(outcomes.count(True), outcomes.count(False)) > 250


def test_psd_gate_special_matrices():
    assert psd_3x3(*upper(np.zeros((3, 3))))
    assert psd_3x3(*upper(np.eye(3)))
    assert psd_3x3(*upper(np.diag([1.0, 1.0, -0.5 * EIG_TOL])))
    assert not psd_3x3(*upper(np.diag([1.0, 1.0, -2.0 * EIG_TOL])))
    assert not psd_3x3(*upper(-np.eye(3)))
    for value in (math.nan, math.inf, -math.inf):
        for pos in np.ndindex(3, 3):
            m = np.eye(3)
            m[pos] = m[pos[::-1]] = value
            assert not psd_3x3(*upper(m)), (pos, value)


def test_spd_2x2_check_decides_as_the_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-4, 4)
        root = rng.standard_normal((2, 2))
        s = scale * (root @ root.T + rng.uniform(-1.0, 1.0) * np.eye(2))
        s = 0.5 * (s + s.T)
        lo = np.linalg.eigvalsh(s)[0]
        bound = 1e-12 * np.trace(s)
        if abs(lo - bound) <= 32 * EPS * scale * np.abs(s).max():
            continue
        if lo >= bound:
            check_spd_2x2(*sym(s))
        else:
            with pytest.raises(NumericalError, match="not positive definite"):
                check_spd_2x2(*sym(s))


@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spd_2x2_check_refuses_non_finite_entries(pos, value):
    s = np.eye(2)
    s[pos] = s[pos[::-1]] = value
    with pytest.raises(NumericalError):
        check_spd_2x2(*sym(s))


def test_symmetric_root_equals_the_numpy_arithmetic():
    # The same operations in the same order, on floats: bit for bit.
    rng = np.random.default_rng(6)
    for _ in range(500):
        root = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3)
        s = root @ root.T + 1e-3 * np.eye(2)
        got = sqrt_and_inv_sqrt_2x2(*sym(s))
        want = numpy_sqrt_and_inv_sqrt_2x2(s)
        for g, w in zip(got, want, strict=True):
            assert list(g) == sym(w)


@pytest.mark.parametrize("entries", [
    (0.0, 0.0, 0.0),
    (5e-324, 0.0, 5e-324),
    (1e-310, 0.0, 1e-310),
    (1e300, 0.0, 1e300),
    (1e200, 1e150, 1e200),
], ids=["zero", "smallest-subnormal", "subnormal", "diagonal-1e300", "det-overflow"])
def test_spd_2x2_check_refuses_matrices_without_a_usable_root(entries):
    # Each passes the relative eigenvalue rule (or sits on it), but its
    # determinant is zero or not a float, so its roots would divide by
    # zero or come out NaN.
    with pytest.raises(NumericalError, match="not positive definite"):
        check_spd_2x2(*entries)
    with pytest.raises(NumericalError, match="not positive definite"):
        sqrt_and_inv_sqrt_2x2(*entries)


def test_spd_2x2_roots_are_finite_at_the_range_ends():
    for a, b, d in [(1e-150, 0.0, 1e-150), (1e150, 1e149, 1e150), (1e-12, 0.0, 1.0)]:
        root, inv_root = sqrt_and_inv_sqrt_2x2(a, b, d)
        assert all(map(math.isfinite, root + inv_root))
        r00, r01, r11 = root
        np.testing.assert_allclose(
            [r00 * r00 + r01 * r01, r00 * r01 + r01 * r11, r01 * r01 + r11 * r11],
            [a, b, d], rtol=1e-12,
        )


@pytest.mark.parametrize("n", [1, 3, 12, 99, 198])
def test_symmetrize_is_the_mean_with_the_transpose_bit_for_bit(n):
    m = np.random.default_rng(n).standard_normal((n, n))
    before = m.copy()
    np.testing.assert_array_equal(symmetrize(m), 0.5 * (m + m.T))
    np.testing.assert_array_equal(m, before)
