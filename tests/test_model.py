"""Motion and measurement model tests, including finite-difference checks."""

import math

import mpmath
import numpy as np
import pytest

from splitcl import model

from dense_oracle import one_step

FD_STEP = 1e-6
FD_TOL = 1e-6


def central_diff(fn, x, i, step=FD_STEP):
    hi = x.copy()
    lo = x.copy()
    hi[i] += step
    lo[i] -= step
    return (fn(hi) - fn(lo)) / (2 * step)


class TestWrapAngle:
    def test_zero(self):
        assert model.wrap_angle(0.0) == 0.0

    def test_three_pi(self):
        assert model.wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert model.wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_range_and_congruence(self):
        rng = np.random.default_rng(1)
        for a in rng.uniform(-50, 50, size=500):
            w = model.wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
            assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(-50, 50, size=200):
            w = model.wrap_angle(a)
            assert model.wrap_angle(w) == w

    def test_non_finite_rejected(self):
        with pytest.raises(model.ModelError):
            model.wrap_angle(math.nan)


def step_pose(pose, control, dt):
    return one_step(pose, control, dt)[0]


def motion_jacobians(pose, control, dt):
    return one_step(pose, control, dt)[1:]


class TestPropagatePose:
    def test_straight_line(self):
        out = step_pose(np.zeros(3), np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_heading_alignment(self):
        out = step_pose(
            np.array([0.0, 0.0, math.pi / 2]), np.array([1.0, 0.0]), 1.0
        )
        np.testing.assert_allclose(out, [0.0, 1.0, math.pi / 2], atol=1e-15)

    def test_matches_extended_precision(self):
        # Same closed form evaluated with 50-digit arithmetic.
        pose = np.array([1.0, 1.0, 0.3])
        control = np.array([0.5, 0.1])
        dt = 0.1
        with mpmath.workdps(50):
            x = mpmath.mpf(1) + mpmath.mpf("0.5") * mpmath.mpf("0.1") * mpmath.cos(mpmath.mpf("0.3"))
            y = mpmath.mpf(1) + mpmath.mpf("0.5") * mpmath.mpf("0.1") * mpmath.sin(mpmath.mpf("0.3"))
            th = mpmath.mpf("0.3") + mpmath.mpf("0.1") * mpmath.mpf("0.1")
            expected = np.array([float(x), float(y), float(th)])
        out = step_pose(pose, control, dt)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_zero_motion_is_identity_with_wrap(self):
        pose = np.array([2.0, -1.0, 3 * math.pi])
        out = step_pose(pose, np.zeros(2), 0.5)
        assert out[0] == pose[0] and out[1] == pose[1]
        assert out[2] == pytest.approx(math.pi)

    def test_dt_must_be_positive(self):
        with pytest.raises(model.ModelError):
            step_pose(np.zeros(3), np.zeros(2), 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(model.ModelError):
            step_pose(np.array([np.nan, 0, 0]), np.zeros(2), 0.1)


class TestMotionJacobians:
    def test_analytic_at_theta_zero(self):
        f_jac, g_jac = motion_jacobians(np.zeros(3), np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(f_jac, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        np.testing.assert_allclose(g_jac, [[1, 0], [0, 0], [0, 1]])

    def test_analytic_at_theta_half_pi(self):
        f_jac, _ = motion_jacobians(
            np.array([0.0, 0.0, math.pi / 2]), np.array([2.0, 0.0]), 0.5
        )
        assert f_jac[0, 2] == pytest.approx(-1.0)
        assert f_jac[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_determinant_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pose = rng.uniform(-5, 5, 3)
            control = rng.uniform(-2, 2, 2)
            f_jac, _ = motion_jacobians(pose, control, rng.uniform(0.01, 1.0))
            assert np.linalg.det(f_jac) == pytest.approx(1.0, abs=1e-12)

    # Turns per step (in units of pi) and the band of |theta + omega dt|
    # they must reach: no wrap (every heading below pi), the one-addition
    # wrap, and the wrap through math.remainder at 3 pi and beyond.
    @pytest.mark.parametrize("turns, band", [
        ((0.0, 0.4), (0.0, 1.0)), ((1.2, 1.9), (1.0, 3.0)), ((3.5, 40.0), (3.0, math.inf)),
    ])
    def test_every_f_is_an_exact_shear(self, turns, band):
        # F is [[1, 0, a], [0, 1, b], [0, 0, 1]] bit for bit on every path
        # of the kernel, so accumulated Jacobians can be held as (a, b).
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 16
            dt = rng.uniform(0.01, 1.0)
            poses = rng.uniform(-1e4, 1e4, (n, 3))
            poses[:, 2] = rng.uniform(-0.5, 0.5, n) * math.pi
            controls = rng.uniform(-5.0, 5.0, (n, 2))
            controls[:, 1] = rng.choice([-1.0, 1.0], n) * rng.uniform(*turns, n) * math.pi / dt
            heading = np.abs(poses[:, 2] + controls[:, 1] * dt) / math.pi
            assert ((band[0] <= heading) & (heading < band[1])).any()
            _, translations, _ = model.propagate_pose(poses, controls[:, None], dt)
            f_jac = model.shear(translations[:, 0])
            np.testing.assert_array_equal(f_jac[:, :, :2], np.tile(np.eye(3)[:, :2], (n, 1, 1)))
            np.testing.assert_array_equal(f_jac[:, 2, 2], np.ones(n))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            pose = rng.uniform(-5, 5, 3)
            control = rng.uniform(-2, 2, 2)
            dt = rng.uniform(0.05, 0.5)

            def prop_of_pose(p, control=control, dt=dt):
                x, y, theta = p
                v, w = control
                # unwrapped variant keeps the heading row differentiable
                return np.array([
                    x + v * dt * math.cos(theta),
                    y + v * dt * math.sin(theta),
                    theta + w * dt,
                ])

            f_jac, g_jac = motion_jacobians(pose, control, dt)
            fd_f = np.column_stack([central_diff(prop_of_pose, pose, i) for i in range(3)])
            np.testing.assert_allclose(f_jac, fd_f, atol=FD_TOL)

            def prop_of_noise(eta, pose=pose, control=control, dt=dt):
                return prop_of_pose(pose, control=control + eta, dt=dt)

            fd_g = np.column_stack([central_diff(prop_of_noise, np.zeros(2), i) for i in range(2)])
            np.testing.assert_allclose(g_jac, fd_g, atol=FD_TOL)


class TestProcessNoise:
    def test_equals_the_matrix_product(self):
        rng = np.random.default_rng(6)
        headings = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2]
        poses = rng.uniform(-5, 5, (64, 3))
        poses[:len(headings), 2] = headings
        controls = rng.uniform(-2, 2, (64, 30, 2))
        controls[:8, :, 1] = 0.0  # The exact headings recur at every step.
        for dt in (0.1, rng.uniform(0.01, 1.0)):
            _, _, g_jacs = model.propagate_pose(poses, controls, dt)
            q_diags = rng.uniform(0.0, 0.5, g_jacs.shape[:-2] + (2,))
            q_diags[:4, :, 0] = 0.0
            want = (g_jacs * q_diags[..., None, :]) @ g_jacs.swapaxes(-1, -2)
            np.testing.assert_array_equal(model.process_noise(g_jacs, q_diags), want)
            np.testing.assert_array_equal(
                model.process_noise(g_jacs[0, 0], q_diags[0, 0]), want[0, 0]
            )

    def test_noise_diagonals_must_match(self):
        _, _, g_jacs = model.propagate_pose(np.zeros((2, 3)), np.ones((2, 5, 2)), 0.1)
        with pytest.raises(model.ModelError, match="noise diagonals"):
            model.process_noise(g_jacs, np.ones((2, 4, 2)))


class TestRelativeMeasurementModel:
    def test_identity_frame(self):
        z = model.relative_position(np.zeros(3), np.array([1.0, 0.0, 0.7]))
        np.testing.assert_allclose(z, [1.0, 0.0])

    def test_rotated_frame(self):
        z = model.relative_position(
            np.array([0.0, 0.0, math.pi / 2]), np.array([0.0, 1.0, 0.2])
        )
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-15)

    def test_matches_rotation_matrix_arithmetic(self):
        pa = np.array([1.0, 2.0, 0.7])
        pb = np.array([3.0, -1.0, 0.2])
        rot = np.array([
            [math.cos(pa[2]), -math.sin(pa[2])],
            [math.sin(pa[2]), math.cos(pa[2])],
        ])
        expected = rot.T @ (pb[:2] - pa[:2])
        np.testing.assert_allclose(model.relative_position(pa, pb), expected, atol=1e-15)

    def test_jacobian_identity_frame(self):
        _, _, h_lm = model.relative_terms(0.0, 0.0, 0.0, 1.0, 0.0)
        np.testing.assert_allclose(h_lm, [[1, 0, 0], [0, 1, 0]])

    def test_landmark_heading_column_is_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pa, pb = rng.uniform(-5, 5, (2, 3))
            _, _, h_lm = model.relative_terms(*pa, *pb[:2])
            np.testing.assert_array_equal(np.array(h_lm)[:, 2], np.zeros(2))

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            pa, pb = rng.uniform(-5, 5, (2, 3))
            _, h_obs, h_lm = model.relative_terms(*pa, *pb[:2])
            fd_obs = np.column_stack([
                central_diff(lambda p: model.relative_position(p, pb), pa, i)
                for i in range(3)
            ])
            fd_lm = np.column_stack([
                central_diff(lambda p: model.relative_position(pa, p), pb, i)
                for i in range(3)
            ])
            np.testing.assert_allclose(h_obs, fd_obs, atol=FD_TOL)
            np.testing.assert_allclose(h_lm, fd_lm, atol=FD_TOL)

    def test_observer_position_columns_negate_the_landmark_columns(self):
        # The model depends on the two positions only through their
        # difference.
        rng = np.random.default_rng(9)
        for _ in range(100):
            pa, pb = rng.uniform(-5, 5, (2, 3))
            _, h_obs, h_lm = model.relative_terms(*pa, *pb[:2])
            np.testing.assert_array_equal(np.array(h_obs)[:, :2], -np.array(h_lm)[:, :2])

    def test_observer_heading_column_is_the_measurement_turned(self):
        # Turning the observer by dθ turns the measured vector by -dθ.
        rng = np.random.default_rng(10)
        for _ in range(100):
            pa, pb = rng.uniform(-5, 5, (2, 3))
            (zx, zy), h_obs, _ = model.relative_terms(*pa, *pb[:2])
            np.testing.assert_array_equal(np.array(h_obs)[:, 2], [zy, -zx])

    def test_shifting_both_positions_leaves_the_terms_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pa, pb = rng.uniform(-5, 5, (2, 3))
            shift = rng.uniform(-5, 5, 2)
            moved_a = pa + np.append(shift, 0.0)
            here = model.relative_terms(*pa, *pb[:2])
            there = model.relative_terms(*moved_a, *(pb[:2] + shift))
            for got, want in zip(there, here):
                np.testing.assert_allclose(got, want, atol=1e-13)


class TestMeasurementRecords:
    def test_self_measurement_rejected(self):
        with pytest.raises(model.ModelError):
            model.RelativeMeasurement(observer=1, landmark=1, z=np.zeros(2), time=0)

    def test_non_finite_rejected(self):
        with pytest.raises(model.ModelError):
            model.RelativeMeasurement(observer=1, landmark=2, z=np.array([np.inf, 0]), time=0)
        with pytest.raises(model.ModelError):
            model.RelativeMeasurement(observer=1, landmark=2, z=np.array([np.nan, 0]), time=0)
