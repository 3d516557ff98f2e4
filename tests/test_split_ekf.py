"""Split-representation recursions against the centralized filter."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcl import joint_ekf, model, split_ekf
from splitcl.linalg import NumericalError, sqrt_and_inv_sqrt_2x2
from splitcl.protocol import RobotNode
from splitcl.split_ekf import CrossFactorStore, SplitTeamState, shear

from dense_oracle import (
    apply_frame,
    apply_payloads,
    cross_blocks,
    dense_measurement_row,
    dense_store_update,
    dense_update,
    float_rows,
    gain_form_update,
    joint_step,
    one_step,
    random_belief,
    robot_row,
    stack,
    stack_rows,
    symmetric_2x2,
    upper_2x2,
)

GAIN_TOL = 1e-10


def make_state(rng, robot_id):
    """A robot's state, a team of one, with a random mean and covariance."""
    mean = rng.uniform(-3, 3, 3)
    root = rng.standard_normal((3, 3)) * 0.3
    return RobotNode(robot_id, mean, root @ root.T + 0.05 * np.eye(3)).team


def split_team_from_belief(belief):
    """Split states, one row per robot in team order, plus a factor store
    that reproduces a joint belief.

    Valid at time zero (identity accumulated Jacobians), where the factors
    are the cross blocks themselves.
    """
    rows = SplitTeamState.initialize(belief.team, belief.mean, np.eye(3))
    rows.cov[:] = belief.own_covs()
    store = CrossFactorStore(belief.team)
    store.blocks[:] = belief.cov
    diag = np.arange(len(belief.team))
    store.blocks[diag, :, diag, :] = 0.0
    return rows, store


def decorrelate(belief):
    """Zero every cross block of a belief in place, keeping the own blocks."""
    diag = np.arange(len(belief.team))
    own = belief.cov[diag, :, diag, :].copy()
    belief.cov[:] = 0.0
    belief.cov[diag, :, diag, :] = own


def set_factor(store, i, j, block):
    """Write ``C_ij`` and its transpose ``C_ji``, keeping the store symmetric."""
    store.factor(i, j)[:] = block
    store.factor(j, i)[:] = block.T


def step_alone(state, control, q, dt=0.1):
    """``state`` one step on, through a node of its own."""
    node = RobotNode.over(state, state.team[0])
    node.step([control], [q], dt)
    return node.team


class TestPropagate:
    def test_one_step_accumulates_single_jacobian(self):
        rng = np.random.default_rng(30)
        state = make_state(rng, 1)
        control = rng.uniform(-1, 1, 2)
        q = np.array([0.01, 0.004])
        out = step_alone(state, control, q)
        _, f, _ = one_step(state.mean, control, 0.1)
        np.testing.assert_array_equal(shear(out.jac_accum[0]), f @ np.eye(3))
        assert out.time == 1

    def test_accumulator_is_product_of_step_jacobians(self):
        # One segment of 25 steps; the accumulator after each step is the
        # product of the Jacobians so far.
        rng = np.random.default_rng(31)
        state = make_state(rng, 2)
        controls = rng.uniform(-1, 1, (25, 2))
        means, _, accs = RobotNode.over(state, 2).step(controls, np.tile([0.01, 0.004], (25, 1)), 0.1)
        product = np.eye(3)
        for before, control, acc in zip([state.mean, *means], controls, accs):
            _, f, _ = one_step(before, control, 0.1)
            product = f @ product
            np.testing.assert_array_equal(shear(acc), product)

    def test_trajectory_matches_joint_filter_block(self):
        rng = np.random.default_rng(32)
        belief = random_belief(rng, 3)
        rows, _ = split_team_from_belief(belief)
        q = np.tile([0.02, 0.01], (3, 1))
        controls = rng.uniform(-1, 1, (50, 3, 2))
        for step in controls:
            belief = joint_step(belief, step, q, 0.1)
        for i in rows.team:
            a = belief.index[i]
            node = RobotNode.over(rows, i)
            node.step(controls[:, a], np.tile(q[a], (50, 1)), 0.1)
            np.testing.assert_allclose(node.team.mean[0], belief.mean[a], atol=1e-12)
            np.testing.assert_allclose(node.team.cov[0], belief.block(i, i), atol=1e-12)

    def test_per_robot_updates_commute(self):
        rng = np.random.default_rng(33)
        s1, s2 = make_state(rng, 1), make_state(rng, 2)
        u1, u2 = rng.uniform(-1, 1, (2, 2))
        q = np.array([0.01, 0.01])
        a_then_b = (step_alone(s1, u1, q), step_alone(s2, u2, q))
        b_then_a = (step_alone(s2, u2, q), step_alone(s1, u1, q))
        np.testing.assert_array_equal(a_then_b[0].mean, b_then_a[1].mean)
        np.testing.assert_array_equal(a_then_b[1].cov, b_then_a[0].cov)


class TestInnovation:
    def test_zero_factor_matches_uncorrelated_innovation(self):
        rng = np.random.default_rng(34)
        belief = random_belief(rng, 2)
        decorrelate(belief)
        rows, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        noise = np.eye(2) * 0.02
        innov = split_ekf.innovation(
            float_rows(rows), 1, 2, store.factor(1, 2), z, upper_2x2(noise)
        )
        meas = model.RelativeMeasurement(1, 2, z, 0)
        _, oracle = joint_ekf.partial_update(belief, meas, noise)
        np.testing.assert_allclose(symmetric_2x2(innov.s), oracle.cov, atol=1e-12)

    def test_matches_joint_innovation_with_correlation(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            belief = random_belief(rng, 3)
            rows, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(
                float_rows(rows), 2, 3, store.factor(2, 3), z, upper_2x2(noise)
            )
            meas = model.RelativeMeasurement(2, 3, z, 0)
            _, oracle = joint_ekf.partial_update(belief, meas, noise)
            np.testing.assert_allclose(symmetric_2x2(innov.s), oracle.cov, atol=1e-10)
            np.testing.assert_allclose(innov.residual, oracle.residual, atol=1e-12)

    def test_whitening_identity(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            belief = random_belief(rng, 2)
            rows, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            innov = split_ekf.innovation(
                float_rows(rows), 1, 2, store.factor(1, 2), z, (0.05, 0.0, 0.05)
            )
            direct = innov.residual @ np.linalg.solve(symmetric_2x2(innov.s), innov.residual)
            assert innov.white_residual @ innov.white_residual == pytest.approx(
                direct, abs=1e-10
            )

    def test_symmetric_root_squares_back(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            root_m = rng.standard_normal((2, 2))
            s = root_m @ root_m.T + 0.1 * np.eye(2)
            sq, isq = (
                np.array([[m00, m01], [m01, m11]])
                for m00, m01, m11 in sqrt_and_inv_sqrt_2x2(s[0, 0], s[0, 1], s[1, 1])
            )
            np.testing.assert_allclose(sq @ sq, s, atol=1e-12)
            np.testing.assert_allclose(isq @ isq, np.linalg.inv(s), atol=1e-10)
            np.testing.assert_allclose(sq @ isq, np.eye(2), atol=1e-12)

    def test_indefinite_innovation_raises(self):
        rng = np.random.default_rng(39)
        rows = stack_rows([make_state(rng, 1), make_state(rng, 2)])
        rows.cov[:] = -np.eye(3)
        with pytest.raises(NumericalError):
            split_ekf.innovation(
                float_rows(rows), 1, 2, np.zeros((3, 3)), np.zeros(2), (1e-12, 0.0, 1e-12)
            )


class TestUpdateFactors:
    def test_uncorrelated_bystander_gets_zero_factor(self):
        rng = np.random.default_rng(40)
        belief = random_belief(rng, 4)
        decorrelate(belief)
        rows, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        innov = split_ekf.innovation(
            float_rows(rows), 1, 2, store.factor(1, 2), z, (0.02, 0.0, 0.02)
        )
        factors = split_ekf.update_factors(store, innov)
        assert factors.shape == (4, 3, 2)
        np.testing.assert_array_equal(factors[store.index[3]], np.zeros((3, 2)))
        np.testing.assert_array_equal(factors[store.index[4]], np.zeros((3, 2)))

    def test_observer_factor_reduces_to_whitened_gain_at_identity(self):
        rng = np.random.default_rng(41)
        belief = random_belief(rng, 2)
        decorrelate(belief)
        rows, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        noise = np.eye(2) * 0.02
        innov = split_ekf.innovation(
            float_rows(rows), 1, 2, store.factor(1, 2), z, upper_2x2(noise)
        )
        factors = split_ekf.update_factors(store, innov)
        terms = model.relative_terms(*rows.mean[0], *rows.mean[1, :2])
        h_obs = np.array(terms[1])
        expected = rows.cov[0] @ h_obs.T @ symmetric_2x2(innov.w)
        np.testing.assert_allclose(factors[store.index[1]], expected, atol=1e-12)

    def test_gain_identity_against_joint_filter(self):
        # accumulated_jacobian @ factor @ inv_sqrt(S) reproduces the
        # centralized gain for every robot, correlated or not
        rng = np.random.default_rng(42)
        for _ in range(25):
            belief = random_belief(rng, 4)
            rows, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(
                float_rows(rows), 2, 4, store.factor(2, 4), z, upper_2x2(noise)
            )
            factors = split_ekf.update_factors(store, innov)
            meas = model.RelativeMeasurement(2, 4, z, 0)
            _, oracle = joint_ekf.partial_update(belief, meas, noise)
            gains = shear(rows.jac_accum) @ factors @ symmetric_2x2(innov.w)
            np.testing.assert_allclose(gains, oracle.gains, atol=GAIN_TOL)

    def test_factor_products_reconstruct_gain_products(self):
        rng = np.random.default_rng(43)
        belief = random_belief(rng, 3)
        rows, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        noise = np.eye(2) * 0.02
        innov = split_ekf.innovation(
            float_rows(rows), 1, 3, store.factor(1, 3), z, upper_2x2(noise)
        )
        factors = split_ekf.update_factors(store, innov)
        meas = model.RelativeMeasurement(1, 3, z, 0)
        _, oracle = joint_ekf.partial_update(belief, meas, noise)
        acc = shear(rows.jac_accum)
        d = {i: factors[store.index[i]] for i in belief.team}
        k = {i: oracle.gains[belief.index[i]] for i in belief.team}
        for i in belief.team:
            a = rows.index[i]
            for j in belief.team:
                lhs = acc[a] @ d[i] @ d[j].T @ acc[rows.index[j]].T
                rhs = k[i] @ symmetric_2x2(innov.s) @ k[j].T
                np.testing.assert_allclose(lhs, rhs, atol=GAIN_TOL)
            lhs_vec = acc[a] @ d[i] @ innov.white_residual
            rhs_vec = k[i] @ innov.residual
            np.testing.assert_allclose(lhs_vec, rhs_vec, atol=GAIN_TOL)

    def test_far_travelled_robot_matches_joint_filter(self):
        # Robot 2 is 1e6 m from its start: its accumulated Jacobian's
        # inverse is still the exact shear of the negated translation, and
        # the gains match the centralized filter on a correlated team.
        rng = np.random.default_rng(44)
        for _ in range(25):
            belief = random_belief(rng, 3)
            rows, store = split_team_from_belief(belief)
            rows.jac_accum[rows.index[2]] = [1e6, 5e5]
            inv = shear(-rows.jac_accum)
            for i, j in [(1, 2), (2, 3)]:
                inv_i, inv_j = inv[rows.index[i]], inv[rows.index[j]]
                set_factor(store, i, j, inv_i @ belief.block(i, j) @ inv_j.T)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(
                float_rows(rows), 2, 3, store.factor(2, 3), z, upper_2x2(noise)
            )
            factors = split_ekf.update_factors(store, innov)
            meas = model.RelativeMeasurement(2, 3, z, 0)
            _, oracle = joint_ekf.partial_update(belief, meas, noise)
            gains = shear(rows.jac_accum) @ factors @ symmetric_2x2(innov.w)
            np.testing.assert_allclose(gains, oracle.gains, atol=GAIN_TOL)


class TestFloatKernelsProperty:
    """The float innovation and update factors against the dense joint filter.

    A random joint belief is split into own covariances and factors
    ``C_ij = A_i^-1 P_ij A_j^-T`` for random accumulated Jacobians ``A``;
    the split kernels must then reproduce the dense update's innovation
    covariance, residual and every robot's gain within 1e-12 relative.
    Factors held in accumulated-Jacobian coordinates grow with the square
    of how far the robots travelled, and the split arithmetic cancels that
    growth, so beyond 10 m of reach the tolerance grows with its square.
    The growth belongs to the representation, not to the float kernels:
    over 1,000 random examples at 100 m of reach, these kernels and a
    numpy evaluation of the same split formulas both reach about 5e-12
    (1e-10 allowed); at 10 m both stay below 4e-14.
    """

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        reach=st.sampled_from([0.0, 1.0, 10.0, 100.0]),
        data=st.data(),
    )
    def test_innovation_and_factors_match_the_dense_filter(self, n, seed, reach, data):
        rng = np.random.default_rng(seed)
        belief = random_belief(rng, n, corr_scale=rng.uniform(0.0, 0.5))
        team = belief.team
        a = data.draw(st.sampled_from(team))
        b = data.draw(st.sampled_from([i for i in team if i != a]))
        accs = rng.uniform(-reach, reach, (n, 2))
        rows, store = split_team_from_belief(belief)
        rows.jac_accum[:] = accs
        inv = shear(-accs)
        store.blocks[:] = np.einsum("aij,ajbk,blk->aibl", inv, belief.cov, inv)
        diag = np.arange(n)
        store.blocks[diag, :, diag, :] = 0.0
        z = rng.uniform(-5, 5, 2)
        noise = np.diag(rng.uniform(0.01, 0.1, 2))

        innov = split_ekf.innovation(
            float_rows(rows), a, b, store.factor(a, b), z, upper_2x2(noise)
        )
        factors = split_ekf.update_factors(store, innov)

        x, p = stack(belief)
        _, _, s, k = dense_update(x, p, z, noise, belief.index[a], belief.index[b])
        _, predicted = dense_measurement_row(x, n, belief.index[a], belief.index[b])
        rtol = 1e-12 * (1.0 + (reach / 10.0) ** 2)

        def close(got, want):
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=rtol * scale)

        # S is held as its upper triangle, so it is exactly symmetric by
        # construction; its one off-diagonal entry must match both of the
        # dense S's.
        close(symmetric_2x2(innov.s), s)
        close(innov.residual, z - predicted)
        # W is the symmetric inverse root of S: W S W = I and W r whitens r.
        w = symmetric_2x2(innov.w)
        close(w @ s @ w, np.eye(2))
        close(innov.white_residual, w @ (z - predicted))
        gains = shear(accs) @ factors @ w
        close(gains, k.reshape(n, 3, 2))


def feasible_frame(rng, state):
    """A single frame ``(D, r)`` whose correction the one-row ``state`` can
    take: the gain ``A D`` is ``L W`` for the Cholesky factor ``L`` of its
    covariance and a random ``W`` of spectral norm 0.9."""
    w = rng.standard_normal((3, 2))
    gain = np.linalg.cholesky(state.cov[0]) @ (w * (0.9 / np.linalg.norm(w, 2)))
    return shear(-state.jac_accum[0]) @ gain, rng.standard_normal(2)


def apply_pair(state, vec, mat):
    """``state``'s corrected mean and covariance for the pair ``(vec, mat)``;
    ``state`` is left as it is."""
    out = apply_payloads(state, vec, mat)
    return out.mean, out.cov


class TestApplyUpdate:
    def test_zero_pair_is_identity(self):
        rng = np.random.default_rng(45)
        state = make_state(rng, 1)
        mean, cov = apply_pair(state, np.zeros(3), np.zeros((3, 3)))
        np.testing.assert_array_equal(mean, state.mean)
        np.testing.assert_array_equal(cov, state.cov)
        out = apply_frame(state, np.zeros((3, 2)), np.zeros(2))
        np.testing.assert_array_equal(out.mean, state.mean)
        np.testing.assert_array_equal(out.cov, state.cov)
        np.testing.assert_array_equal(out.jac_accum, state.jac_accum)

    def test_correction_is_the_pair_of_products(self):
        rng = np.random.default_rng(52)
        factors = rng.standard_normal((6, 3, 2))
        white = rng.standard_normal(2)
        vec, mat = split_ekf.correction(factors, white)
        for a in range(6):
            np.testing.assert_allclose(vec[a], factors[a] @ white, rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(mat[a], factors[a] @ factors[a].T, rtol=1e-15, atol=1e-15)
            alone = split_ekf.correction(factors[a], white)
            np.testing.assert_array_equal(alone[0], vec[a])
            np.testing.assert_array_equal(alone[1], mat[a])
        np.testing.assert_array_equal(mat, mat.transpose(0, 2, 1))

    def test_single_frame_matches_the_gain_form(self):
        # The robot's former arithmetic, G = A D, mean + G r, cov - G G',
        # on robots up to 100 m from their start.
        rng = np.random.default_rng(53)
        for reach in (0.0, 1.0, 10.0, 100.0):
            for _ in range(200):
                state = make_state(rng, 1)
                state.jac_accum[0] = rng.uniform(-reach, reach, 2)
                acc = shear(state.jac_accum[0])
                cov = acc @ state.cov[0] @ acc.T
                state.cov[0] = 0.5 * (cov + cov.T)
                factor, white = feasible_frame(rng, state)
                out = apply_frame(state, factor, white)
                mean, cov = gain_form_update(state, factor, white)
                scale = np.abs(state.cov).max()
                np.testing.assert_allclose(out.cov[0], cov, rtol=0, atol=1e-15 * scale)
                np.testing.assert_allclose(
                    out.mean[0], mean, rtol=0, atol=1e-15 * np.abs(mean).max()
                )

    def test_matches_joint_filter_block(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            belief = random_belief(rng, 3)
            rows, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(
                float_rows(rows), 1, 2, store.factor(1, 2), z, upper_2x2(noise)
            )
            factors = split_ekf.update_factors(store, innov)
            meas = model.RelativeMeasurement(1, 2, z, 0)
            updated, _ = joint_ekf.partial_update(belief, meas, noise)
            for i in belief.team:
                out = apply_frame(robot_row(rows, i), factors[store.index[i]], innov.white_residual)
                np.testing.assert_allclose(
                    out.mean[0], updated.mean[updated.index[i]], atol=GAIN_TOL
                )
                np.testing.assert_allclose(out.cov[0], updated.block(i, i), atol=GAIN_TOL)

    def test_trace_drops_by_squared_correction_norm(self):
        rng = np.random.default_rng(47)
        state = make_state(rng, 1)
        factor = rng.standard_normal((3, 2)) * 0.1
        out = apply_frame(state, factor, rng.standard_normal(2))
        gain = shear(state.jac_accum[0]) @ factor
        assert np.trace(state.cov[0]) - np.trace(out.cov[0]) == pytest.approx(
            np.sum(gain**2), abs=1e-12
        )

    def test_summed_pair_equals_the_sequential_frames(self):
        rng = np.random.default_rng(49)
        state = make_state(rng, 1)
        state.jac_accum[0] = rng.uniform(-2, 2, 2)
        parts = [(rng.standard_normal((3, 2)) * 0.05, rng.standard_normal(2)) for _ in range(3)]
        seq = state
        for factor, white in parts:
            seq = apply_frame(seq, factor, white)
        pairs = [split_ekf.correction(f, w) for f, w in parts]
        mean, cov = apply_pair(state, sum(v for v, _ in pairs), sum(m for _, m in pairs))
        np.testing.assert_allclose(mean, seq.mean, atol=1e-12)
        np.testing.assert_allclose(cov, seq.cov, atol=1e-12)

    @pytest.mark.parametrize("kind", ["single", "summed"])
    def test_corrected_covariance_is_exactly_symmetric(self, kind):
        # A M A' as a matrix product rounds differently above and below
        # its diagonal for a few percent of these draws.
        rng = np.random.default_rng(50)
        for _ in range(2000):
            state = make_state(rng, 1)
            state.jac_accum[0] = rng.uniform(-3, 3, 2)
            parts = [rng.standard_normal((3, 2)) * 0.02 for _ in range(2)]
            if kind == "single":
                out = apply_frame(state, parts[0], rng.standard_normal(2))
                cov = out.cov[0]
            else:
                mat = sum(f @ f.T for f in parts)
                cov = apply_pair(state, rng.standard_normal(3), mat)[1][0]
            np.testing.assert_array_equal(cov, cov.T)

    def test_rows_get_the_arithmetic_of_a_robot_alone(self):
        rng = np.random.default_rng(51)
        states = [make_state(rng, i) for i in range(1, 7)]
        for s in states:
            s.jac_accum[0] = rng.uniform(-5, 5, 2)
        factors = np.array([feasible_frame(rng, s)[0] for s in states])
        white = rng.standard_normal(2)
        # Each robot's row of one stack corrected in place, as a robot's row
        # of its lane is: by its single frame, and by its pair, as of a
        # summed frame.
        rows, pairs = stack_rows(states), stack_rows(states)
        # A stack whose arrays are strided views gets the same writes.
        strided = stack_rows(states)
        strided.mean = np.asfortranarray(strided.mean)
        strided.cov = np.asfortranarray(strided.cov)
        for a, state in enumerate(states):
            i = state.team[0]
            split_ekf.apply_update(rows, i, white.tolist(), factors[a].ravel().tolist())
            split_ekf.apply_update(strided, i, white.tolist(), factors[a].ravel().tolist())
            vec, mat = split_ekf.correction(factors[a], white)
            split_ekf.apply_update(pairs, i, vec.tolist(), mat.ravel().tolist())
        np.testing.assert_array_equal(strided.mean, rows.mean)
        np.testing.assert_array_equal(strided.cov, rows.cov)
        for a, state in enumerate(states):
            alone = apply_frame(state, factors[a], white)
            np.testing.assert_array_equal(rows.mean[a:a + 1], alone.mean)
            np.testing.assert_array_equal(rows.cov[a:a + 1], alone.cov)
            pair_mean, pair_cov = apply_pair(state, *split_ekf.correction(factors[a], white))
            np.testing.assert_array_equal(pairs.mean[a:a + 1], pair_mean)
            np.testing.assert_array_equal(pairs.cov[a:a + 1], pair_cov)
            # A v and A M A' are the shear products, up to rounding at the
            # scale of the terms that form them.
            vec, mat = split_ekf.correction(factors[a], white)
            acc = shear(state.jac_accum[0])
            reach = (1.0 + np.abs(state.jac_accum).max()) ** 2
            np.testing.assert_allclose(
                rows.mean[a], state.mean[0] + acc @ vec, rtol=0,
                atol=1e-15 * (np.abs(state.mean).max() + reach * np.abs(vec).max()),
            )
            np.testing.assert_allclose(
                rows.cov[a], state.cov[0] - acc @ mat @ acc.T, rtol=0,
                atol=1e-15 * (np.abs(state.cov).max() + reach * np.abs(mat).max()),
            )

    def test_overly_large_factor_raises(self):
        rng = np.random.default_rng(48)
        state = make_state(rng, 1)
        factor = np.ones((3, 2)) * 50.0
        with pytest.raises(NumericalError, match="robot 1 covariance indefinite"):
            apply_frame(state, factor, np.zeros(2))

    def test_a_failing_row_is_named_and_no_row_changes(self):
        rng = np.random.default_rng(56)
        states = [make_state(rng, i) for i in (4, 7, 9)]
        factor = feasible_frame(rng, states[1])[0] * 50.0
        rows = stack_rows(states)
        white = rng.standard_normal(2)
        for payloads in ((white, factor), split_ekf.correction(factor, white)):
            with pytest.raises(NumericalError, match="robot 7 covariance indefinite"):
                split_ekf.apply_update(rows, 7, *(np.ravel(p).tolist() for p in payloads))
            # No row is written, the failing one neither.
            for a, s in enumerate(states):
                np.testing.assert_array_equal(rows.mean[a:a + 1], s.mean)
                np.testing.assert_array_equal(rows.cov[a:a + 1], s.cov)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_correction_raises(self, value):
        rng = np.random.default_rng(49)
        state = make_state(rng, 1)
        state.jac_accum[0] = rng.uniform(-2, 2, 2)
        # Every entry of either frame's payloads.
        for residual, gain in ((np.zeros(2), np.zeros((3, 2))), (np.zeros(3), np.zeros((3, 3)))):
            for payload in (residual, gain):
                for pos in np.ndindex(payload.shape):
                    payload[pos] = value
                    with pytest.raises(NumericalError, match="robot 1 has a non-finite payload"):
                        apply_pair(state, residual, gain)
                    payload[pos] = 0.0
        for pos in np.ndindex(3, 3):
            sick = copy.deepcopy(state)
            sick.cov[(0, *pos)] = value
            with pytest.raises(NumericalError, match="robot 1 covariance indefinite"):
                apply_payloads(sick, np.zeros(3), np.zeros((3, 3)))
        # A finite step that the shear carries beyond the float range.
        state.jac_accum[0] = [2.0, 2.0]
        with pytest.raises(NumericalError, match="robot 1 a non-finite mean step"):
            apply_pair(state, np.array([0.0, 0.0, 1e308]), np.zeros((3, 3)))


class TestCrossFactorStore:
    def test_starts_at_zero_and_serves_transpose(self):
        rng = np.random.default_rng(51)
        store = CrossFactorStore((3, 1, 2))
        assert store.team == (1, 2, 3)
        assert store.blocks.shape == (3, 3, 3, 3)
        np.testing.assert_array_equal(store.factor(1, 3), np.zeros((3, 3)))
        store.update(rng.standard_normal((3, 3, 2)))
        np.testing.assert_array_equal(store.factor(3, 1), store.factor(1, 3).T)
        assert np.shares_memory(store.factor(1, 3), store.blocks)
        store.factor(1, 3)[0, 1] = 2.0
        assert store.blocks[store.index[1], 0, store.index[3], 1] == 2.0

    def test_same_robot_rejected(self):
        store = CrossFactorStore((1, 2))
        with pytest.raises(KeyError):
            store.factor(1, 1)

    def test_zero_factors_leave_store_unchanged(self):
        store = CrossFactorStore((1, 2, 3))
        set_factor(store, 1, 2, np.full((3, 3), 1.5))
        before = store.blocks.copy()
        store.update(np.zeros((3, 3, 2)))
        np.testing.assert_array_equal(store.blocks, before)

    def test_missed_pair_block_frozen(self):
        rng = np.random.default_rng(49)
        store = CrossFactorStore((1, 2, 3, 4))
        store.update(rng.standard_normal((4, 3, 2)))
        factors = rng.standard_normal((4, 3, 2))
        before_34 = store.factor(3, 4).copy()
        before_13 = store.factor(1, 3).copy()
        store.update(factors, store.mask({3, 4}))
        np.testing.assert_array_equal(store.factor(3, 4), before_34)
        np.testing.assert_array_equal(store.factor(4, 3), before_34.T)
        assert not np.array_equal(store.factor(1, 3), before_13)

    def test_update_subtracts_factor_products_outside_frozen_blocks(self):
        rng = np.random.default_rng(52)
        store = CrossFactorStore((1, 2, 3, 4, 5))
        d = {i: rng.standard_normal((3, 2)) for i in store.team}
        store.update(np.stack([d[i] for i in store.team]), store.mask({2, 5}))
        for i in store.team:
            for j in store.team:
                if i == j or {i, j} <= {2, 5}:
                    continue
                np.testing.assert_allclose(store.factor(i, j), -d[i] @ d[j].T, atol=1e-14)

    def test_diagonal_stays_zero_and_store_symmetric_with_missed_robots(self):
        rng = np.random.default_rng(53)
        store = CrossFactorStore(range(1, 9))
        n = len(store.team)
        for missed in ({2, 5}, set(), {1, 3, 8}, {4}):
            store.update(rng.standard_normal((n, 3, 2)), store.mask(missed))
            square = store.blocks.reshape(3 * n, 3 * n)
            np.testing.assert_array_equal(square, square.T)
            for pos in range(n):
                np.testing.assert_array_equal(store.blocks[pos, :, pos, :], np.zeros((3, 3)))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        n=st.one_of(st.integers(2, 12), st.integers(2, 64), st.sampled_from([66, 68, 130])),
        seed=st.integers(0, 2**32 - 1),
        sign=st.sampled_from([-1.0, 1.0]),
        data=st.data(),
    )
    def test_update_equals_the_dense_masked_product(self, n, seed, sign, data):
        # Supports from one robot to the whole team.
        team = tuple(range(1, n + 1))
        size = data.draw(st.one_of(st.integers(1, min(n, 6)), st.integers(1, n)))
        support_ids = data.draw(st.sets(st.sampled_from(team), min_size=size, max_size=size))
        # Missed robots anywhere, and often within the support, where the
        # masking matters.
        missed = data.draw(st.sets(st.sampled_from(team))) | data.draw(
            st.sets(st.sampled_from(sorted(support_ids)))
        )
        rng = np.random.default_rng(seed)
        store = CrossFactorStore(team)
        store._update_sign = sign
        root = rng.standard_normal((3 * n, 3 * n))
        store.blocks[:] = (root + root.T).reshape(n, 3, n, 3)
        diag = np.arange(n)
        store.blocks[diag, :, diag, :] = 0.0
        support = np.array(sorted(store.index[r] for r in support_ids))
        factors = np.zeros((n, 3, 2))
        factors[support] = rng.standard_normal((len(support), 3, 2))
        before = store.blocks.copy()
        expected = dense_store_update(store, factors, missed)

        touched = store.update(factors, store.mask(missed))

        inside = np.isin(diag, support)
        np.testing.assert_array_equal(touched, inside)
        np.testing.assert_array_equal(store.blocks, expected)
        square = store.blocks.reshape(3 * n, 3 * n)
        np.testing.assert_array_equal(square, square.T)
        np.testing.assert_array_equal(store.blocks[diag, :, diag, :], np.zeros((n, 3, 3)))
        held = np.isin(team, list(missed))
        kept = ~(inside[:, None] & inside) | (held[:, None] & held)
        after, prior = store.blocks.transpose(0, 2, 1, 3), before.transpose(0, 2, 1, 3)
        np.testing.assert_array_equal(after[kept], prior[kept])
        changed = ~kept & ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(
            (after - prior)[changed],
            (sign * factors[:, None] @ factors[None].transpose(0, 1, 3, 2))[changed],
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [66, 68, 130])
    def test_store_stays_symmetric_over_the_whole_team(self, n):
        # At these sizes OpenBLAS's matrix product of the factors with
        # themselves is not exactly symmetric; the store must be.
        rng = np.random.default_rng(56)
        store = CrossFactorStore(range(1, n + 1))
        for missed in (set(), {2, 5, n}):
            store.update(rng.standard_normal((n, 3, 2)), store.mask(missed))
            square = store.blocks.reshape(3 * n, 3 * n)
            np.testing.assert_array_equal(square, square.T)

    def test_mask_marks_team_positions_and_refuses_an_unknown_robot(self):
        # Ids become positions here, once per epoch; the server's test of an
        # unknown missed robot checks that no block changes.
        store = CrossFactorStore((9, 2, 5, 7))
        np.testing.assert_array_equal(store.mask({5, 9}), [False, True, False, True])
        np.testing.assert_array_equal(store.mask(()), np.zeros(4, dtype=bool))
        with pytest.raises(KeyError):
            store.mask({2, 99})

    def test_reconstruction_tracks_joint_filter_through_a_run(self):
        # 100 propagation steps with an update every tenth step: the stored
        # factors must keep reconstructing every joint cross block.
        rng = np.random.default_rng(50)
        belief = random_belief(rng, 3, corr_scale=0.0)
        rows, store = split_team_from_belief(belief)
        states = {i: robot_row(rows, i) for i in rows.team}
        q = np.tile([0.02, 0.01], (3, 1))
        noise = np.eye(2) * 0.02
        pairs = [(1, 2), (2, 3), (3, 1)]
        for step in range(1, 101):
            controls = rng.uniform(-1, 1, (3, 2))
            belief = joint_step(belief, controls, q, 0.1)
            for i in states:
                a = belief.index[i]
                states[i] = step_alone(states[i], controls[a], q[a])
            if step % 10 == 0:
                a, b = pairs[(step // 10) % 3]
                z = rng.uniform(-1, 1, 2)
                rows = stack_rows([states[a], states[b]])
                innov = split_ekf.innovation(
                    float_rows(rows), a, b, store.factor(a, b), z, upper_2x2(noise)
                )
                factors = split_ekf.update_factors(store, innov)
                for i in states:
                    states[i] = apply_frame(
                        states[i], factors[store.index[i]], innov.white_residual
                    )
                store.update(factors)
                belief, _ = joint_ekf.partial_update(
                    belief, model.RelativeMeasurement(a, b, z, belief.time), noise
                )
            rows = stack_rows([states[i] for i in store.team])
            recon = store.reconstruct(rows.jac_accum)
            np.testing.assert_allclose(
                cross_blocks(recon), cross_blocks(belief.cov), atol=1e-9
            )
            np.testing.assert_allclose(rows.mean, belief.mean, atol=1e-9)
            np.testing.assert_allclose(rows.cov, belief.own_covs(), atol=1e-9)

    def test_reconstruct_is_the_per_pair_sandwich(self):
        rng = np.random.default_rng(54)
        store = CrossFactorStore((1, 2, 3, 4))
        store.update(rng.standard_normal((4, 3, 2)), store.mask({2, 4}))
        accs = rng.standard_normal((4, 2))
        recon = store.reconstruct(accs)
        assert recon.shape == (4, 3, 4, 3)
        for i in store.team:
            a = store.index[i]
            np.testing.assert_array_equal(recon[a, :, a, :], np.zeros((3, 3)))
            for j in store.team:
                if i != j:
                    b = store.index[j]
                    expected = shear(accs[a]) @ store.factor(i, j) @ shear(accs[b]).T
                    np.testing.assert_allclose(recon[a, :, b, :], expected, atol=1e-14)

    def test_copy_is_independent(self):
        store = CrossFactorStore((1, 2))
        dup = store.copy()
        dup.factor(1, 2)[0, 0] = 9.0
        assert store.factor(1, 2)[0, 0] == 0.0
