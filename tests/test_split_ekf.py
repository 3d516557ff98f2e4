"""Split-representation recursions against the centralized filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcl import joint_ekf, model, split_ekf
from splitcl.linalg import NumericalError, sqrt_and_inv_sqrt_2x2
from splitcl.split_ekf import CrossFactorStore, SplitRobotState, shear

from dense_oracle import cross_blocks, dense_store_update, joint_step, one_step, random_belief

GAIN_TOL = 1e-10


def make_state(rng, robot_id, time=0):
    mean = rng.uniform(-3, 3, 3)
    root = rng.standard_normal((3, 3)) * 0.3
    state = SplitRobotState.initialize(robot_id, mean, root @ root.T + 0.05 * np.eye(3))
    state.time = time
    return state


def split_team_from_belief(belief, n_steps_rng=None):
    """Split states plus a factor store that reproduces a joint belief.

    Valid at time zero (identity accumulated Jacobians), where the factors
    are the cross blocks themselves.
    """
    states = {
        i: SplitRobotState.initialize(i, belief.mean[a], belief.block(i, i))
        for a, i in enumerate(belief.team)
    }
    store = CrossFactorStore(belief.team)
    store.blocks[:] = belief.cov
    diag = np.arange(len(belief.team))
    store.blocks[diag, :, diag, :] = 0.0
    return states, store


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


class TestPropagate:
    def test_one_step_accumulates_single_jacobian(self):
        rng = np.random.default_rng(30)
        state = make_state(rng, 1)
        control = rng.uniform(-1, 1, 2)
        q = np.array([0.01, 0.004])
        out = split_ekf.propagate(state, control, q, 0.1)
        _, f, _ = one_step(state.mean, control, 0.1)
        np.testing.assert_array_equal(shear(out.jac_accum), f @ np.eye(3))
        assert out.time == 1

    def test_accumulator_is_product_of_step_jacobians(self):
        rng = np.random.default_rng(31)
        state = make_state(rng, 2)
        q = np.array([0.01, 0.004])
        product = np.eye(3)
        for _ in range(25):
            control = rng.uniform(-1, 1, 2)
            _, f, _ = one_step(state.mean, control, 0.1)
            product = f @ product
            state = split_ekf.propagate(state, control, q, 0.1)
        np.testing.assert_array_equal(shear(state.jac_accum), product)

    def test_trajectory_matches_joint_filter_block(self):
        rng = np.random.default_rng(32)
        belief = random_belief(rng, 3)
        states, _ = split_team_from_belief(belief)
        q = np.tile([0.02, 0.01], (3, 1))
        for _ in range(50):
            controls = rng.uniform(-1, 1, (3, 2))
            belief = joint_step(belief, controls, q, 0.1)
            for i in states:
                a = belief.index[i]
                states[i] = split_ekf.propagate(states[i], controls[a], q[a], 0.1)
        for i in states:
            np.testing.assert_allclose(states[i].mean, belief.mean[belief.index[i]], atol=1e-12)
            np.testing.assert_allclose(states[i].cov, belief.block(i, i), atol=1e-12)

    def test_per_robot_updates_commute(self):
        rng = np.random.default_rng(33)
        s1, s2 = make_state(rng, 1), make_state(rng, 2)
        u1, u2 = rng.uniform(-1, 1, (2, 2))
        q = np.array([0.01, 0.01])
        a_then_b = (split_ekf.propagate(s1, u1, q, 0.1), split_ekf.propagate(s2, u2, q, 0.1))
        b_then_a = (split_ekf.propagate(s2, u2, q, 0.1), split_ekf.propagate(s1, u1, q, 0.1))
        np.testing.assert_array_equal(a_then_b[0].mean, b_then_a[1].mean)
        np.testing.assert_array_equal(a_then_b[1].cov, b_then_a[0].cov)


class TestInnovation:
    def test_zero_factor_matches_uncorrelated_innovation(self):
        rng = np.random.default_rng(34)
        belief = random_belief(rng, 2)
        decorrelate(belief)
        states, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        noise = np.eye(2) * 0.02
        innov = split_ekf.innovation(states[1], states[2], store.factor(1, 2), z, noise)
        meas = model.RelativeMeasurement(1, 2, z, 0)
        _, oracle = joint_ekf.update(belief, meas, noise)
        np.testing.assert_allclose(innov.cov, oracle.cov, atol=1e-12)

    def test_matches_joint_innovation_with_correlation(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            belief = random_belief(rng, 3)
            states, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(states[2], states[3], store.factor(2, 3), z, noise)
            meas = model.RelativeMeasurement(2, 3, z, 0)
            _, oracle = joint_ekf.update(belief, meas, noise)
            np.testing.assert_allclose(innov.cov, oracle.cov, atol=1e-10)
            np.testing.assert_allclose(innov.residual, oracle.residual, atol=1e-12)

    def test_whitening_identity(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            belief = random_belief(rng, 2)
            states, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            innov = split_ekf.innovation(
                states[1], states[2], store.factor(1, 2), z, np.eye(2) * 0.05
            )
            direct = innov.residual @ np.linalg.solve(innov.cov, innov.residual)
            assert innov.white_residual @ innov.white_residual == pytest.approx(
                direct, abs=1e-10
            )

    def test_symmetric_root_squares_back(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            root_m = rng.standard_normal((2, 2))
            s = root_m @ root_m.T + 0.1 * np.eye(2)
            sq, isq = sqrt_and_inv_sqrt_2x2(s)
            np.testing.assert_allclose(sq @ sq, s, atol=1e-12)
            np.testing.assert_allclose(isq @ isq, np.linalg.inv(s), atol=1e-10)
            np.testing.assert_allclose(sq @ isq, np.eye(2), atol=1e-12)

    def test_mismatched_times_rejected(self):
        rng = np.random.default_rng(38)
        sa, sb = make_state(rng, 1, time=3), make_state(rng, 2, time=4)
        with pytest.raises(ValueError):
            split_ekf.innovation(sa, sb, np.zeros((3, 3)), np.zeros(2), np.eye(2))

    def test_indefinite_innovation_raises(self):
        rng = np.random.default_rng(39)
        sa, sb = make_state(rng, 1), make_state(rng, 2)
        sa.cov = -np.eye(3)
        sb.cov = -np.eye(3)
        with pytest.raises(NumericalError):
            split_ekf.innovation(sa, sb, np.zeros((3, 3)), np.zeros(2), np.eye(2) * 1e-12)


class TestUpdateFactors:
    def test_uncorrelated_bystander_gets_zero_factor(self):
        rng = np.random.default_rng(40)
        belief = random_belief(rng, 4)
        decorrelate(belief)
        states, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        innov = split_ekf.innovation(states[1], states[2], store.factor(1, 2), z, np.eye(2) * 0.02)
        factors = split_ekf.update_factors(store, states[1], states[2], innov)
        assert factors.shape == (4, 3, 2)
        np.testing.assert_array_equal(factors[store.index[3]], np.zeros((3, 2)))
        np.testing.assert_array_equal(factors[store.index[4]], np.zeros((3, 2)))

    def test_observer_factor_reduces_to_whitened_gain_at_identity(self):
        rng = np.random.default_rng(41)
        belief = random_belief(rng, 2)
        decorrelate(belief)
        states, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        noise = np.eye(2) * 0.02
        innov = split_ekf.innovation(states[1], states[2], store.factor(1, 2), z, noise)
        factors = split_ekf.update_factors(store, states[1], states[2], innov)
        expected = states[1].cov @ innov.obs_jac.T @ innov.inv_sqrt_cov
        np.testing.assert_allclose(factors[store.index[1]], expected, atol=1e-12)

    def test_gain_identity_against_joint_filter(self):
        # accumulated_jacobian @ factor @ inv_sqrt(S) reproduces the
        # centralized gain for every robot, correlated or not
        rng = np.random.default_rng(42)
        for _ in range(25):
            belief = random_belief(rng, 4)
            states, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(states[2], states[4], store.factor(2, 4), z, noise)
            factors = split_ekf.update_factors(store, states[2], states[4], innov)
            meas = model.RelativeMeasurement(2, 4, z, 0)
            _, oracle = joint_ekf.update(belief, meas, noise)
            for i in belief.team:
                gain = shear(states[i].jac_accum) @ factors[store.index[i]] @ innov.inv_sqrt_cov
                np.testing.assert_allclose(gain, oracle.gains[belief.index[i]], atol=GAIN_TOL)

    def test_factor_products_reconstruct_gain_products(self):
        rng = np.random.default_rng(43)
        belief = random_belief(rng, 3)
        states, store = split_team_from_belief(belief)
        z = rng.uniform(-1, 1, 2)
        noise = np.eye(2) * 0.02
        innov = split_ekf.innovation(states[1], states[3], store.factor(1, 3), z, noise)
        factors = split_ekf.update_factors(store, states[1], states[3], innov)
        meas = model.RelativeMeasurement(1, 3, z, 0)
        _, oracle = joint_ekf.update(belief, meas, noise)
        d = {i: factors[store.index[i]] for i in belief.team}
        k = {i: oracle.gains[belief.index[i]] for i in belief.team}
        for i in belief.team:
            for j in belief.team:
                lhs = shear(states[i].jac_accum) @ d[i] @ d[j].T @ shear(states[j].jac_accum).T
                rhs = k[i] @ innov.cov @ k[j].T
                np.testing.assert_allclose(lhs, rhs, atol=GAIN_TOL)
            lhs_vec = shear(states[i].jac_accum) @ d[i] @ innov.white_residual
            rhs_vec = k[i] @ innov.residual
            np.testing.assert_allclose(lhs_vec, rhs_vec, atol=GAIN_TOL)

    def test_far_travelled_robot_matches_joint_filter(self):
        # Robot 2 is 1e6 m from its start: its accumulated Jacobian's
        # inverse is still the exact shear of the negated translation, and
        # the gains match the centralized filter on a correlated team.
        rng = np.random.default_rng(44)
        for _ in range(25):
            belief = random_belief(rng, 3)
            states, store = split_team_from_belief(belief)
            states[2].jac_accum = np.array([1e6, 5e5])
            for i, j in [(1, 2), (2, 3)]:
                inv_i, inv_j = shear(-states[i].jac_accum), shear(-states[j].jac_accum)
                set_factor(store, i, j, inv_i @ belief.block(i, j) @ inv_j.T)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(states[2], states[3], store.factor(2, 3), z, noise)
            factors = split_ekf.update_factors(store, states[2], states[3], innov)
            meas = model.RelativeMeasurement(2, 3, z, 0)
            _, oracle = joint_ekf.update(belief, meas, noise)
            for i in belief.team:
                gain = shear(states[i].jac_accum) @ factors[store.index[i]] @ innov.inv_sqrt_cov
                np.testing.assert_allclose(gain, oracle.gains[belief.index[i]], atol=GAIN_TOL)


class TestApplyUpdate:
    def test_zero_factor_is_identity(self):
        rng = np.random.default_rng(45)
        state = make_state(rng, 1)
        out = split_ekf.apply_update(state, np.zeros((3, 2)), np.zeros(2))
        np.testing.assert_array_equal(out.mean, state.mean)
        np.testing.assert_array_equal(out.cov, state.cov)
        np.testing.assert_array_equal(out.jac_accum, state.jac_accum)

    def test_matches_joint_filter_block(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            belief = random_belief(rng, 3)
            states, store = split_team_from_belief(belief)
            z = rng.uniform(-1, 1, 2)
            noise = np.eye(2) * 0.02
            innov = split_ekf.innovation(states[1], states[2], store.factor(1, 2), z, noise)
            factors = split_ekf.update_factors(store, states[1], states[2], innov)
            meas = model.RelativeMeasurement(1, 2, z, 0)
            updated, _ = joint_ekf.update(belief, meas, noise)
            for i in belief.team:
                out = split_ekf.apply_update(
                    states[i], factors[store.index[i]], innov.white_residual
                )
                np.testing.assert_allclose(out.mean, updated.mean[updated.index[i]], atol=GAIN_TOL)
                np.testing.assert_allclose(out.cov, updated.block(i, i), atol=GAIN_TOL)

    def test_trace_drops_by_squared_correction_norm(self):
        rng = np.random.default_rng(47)
        state = make_state(rng, 1)
        factor = rng.standard_normal((3, 2)) * 0.1
        out = split_ekf.apply_update(state, factor, rng.standard_normal(2))
        gain = shear(state.jac_accum) @ factor
        assert np.trace(state.cov) - np.trace(out.cov) == pytest.approx(
            np.sum(gain**2), abs=1e-12
        )

    def test_summed_update_equals_the_sequential_updates(self):
        rng = np.random.default_rng(49)
        state = make_state(rng, 1)
        state.jac_accum = rng.uniform(-2, 2, 2)
        parts = [(rng.standard_normal((3, 2)) * 0.05, rng.standard_normal(2)) for _ in range(3)]
        seq = state
        for factor, white in parts:
            seq = split_ekf.apply_update(seq, factor, white)
        vec = sum(f @ w for f, w in parts)
        mat = sum(f @ f.T for f, _ in parts)
        out = split_ekf.apply_summed_update(state, vec, mat)
        np.testing.assert_allclose(out.mean, seq.mean, atol=1e-12)
        np.testing.assert_allclose(out.cov, seq.cov, atol=1e-12)
        np.testing.assert_array_equal(out.jac_accum, state.jac_accum)

    def test_overly_large_factor_raises(self):
        rng = np.random.default_rng(48)
        state = make_state(rng, 1)
        factor = np.ones((3, 2)) * 50.0
        with pytest.raises(NumericalError):
            split_ekf.apply_update(state, factor, np.zeros(2))


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
        store.update(factors, missed={3, 4})
        np.testing.assert_array_equal(store.factor(3, 4), before_34)
        np.testing.assert_array_equal(store.factor(4, 3), before_34.T)
        assert not np.array_equal(store.factor(1, 3), before_13)

    def test_update_subtracts_factor_products_outside_frozen_blocks(self):
        rng = np.random.default_rng(52)
        store = CrossFactorStore((1, 2, 3, 4, 5))
        d = {i: rng.standard_normal((3, 2)) for i in store.team}
        store.update(np.stack([d[i] for i in store.team]), missed={2, 5})
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
            store.update(rng.standard_normal((n, 3, 2)), missed=missed)
            square = store.blocks.reshape(3 * n, 3 * n)
            np.testing.assert_array_equal(square, square.T)
            for pos in range(n):
                np.testing.assert_array_equal(store.blocks[pos, :, pos, :], np.zeros((3, 3)))

    @settings(max_examples=120, deadline=None)
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

        touched = store.update(factors, missed)

        inside = np.isin(diag, support)
        np.testing.assert_array_equal(touched, inside)
        if n <= 64:
            np.testing.assert_array_equal(store.blocks, expected)
        else:
            # OpenBLAS rounds some entries of a product over more than 64
            # robots differently from the same entries of a smaller product
            # (and from their own transposes), so the support rows' product
            # and the whole team's agree only to rounding there.
            np.testing.assert_allclose(store.blocks, expected, rtol=1e-14, atol=1e-14)
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
        # At these sizes OpenBLAS's product of the factors with themselves
        # is not exactly symmetric; the store must still be.
        rng = np.random.default_rng(56)
        store = CrossFactorStore(range(1, n + 1))
        for missed in (set(), {2, 5, n}):
            store.update(rng.standard_normal((n, 3, 2)), missed=missed)
            square = store.blocks.reshape(3 * n, 3 * n)
            np.testing.assert_array_equal(square, square.T)

    @pytest.mark.parametrize("n_support", [2, 40])
    def test_unknown_missed_robot_raises_before_any_change(self, n_support):
        # A support of two of forty robots, and the whole team.
        rng = np.random.default_rng(55)
        store = CrossFactorStore(range(1, 41))
        store.update(rng.standard_normal((40, 3, 2)))
        factors = np.zeros((40, 3, 2))
        factors[:n_support] = rng.standard_normal((n_support, 3, 2))
        before = store.blocks.copy()
        with pytest.raises(KeyError):
            store.update(factors, missed={1, 99})
        np.testing.assert_array_equal(store.blocks, before)

    def test_reconstruction_tracks_joint_filter_through_a_run(self):
        # 100 propagation steps with an update every tenth step: the stored
        # factors must keep reconstructing every joint cross block.
        rng = np.random.default_rng(50)
        belief = random_belief(rng, 3, corr_scale=0.0)
        states, store = split_team_from_belief(belief)
        q = np.tile([0.02, 0.01], (3, 1))
        noise = np.eye(2) * 0.02
        pairs = [(1, 2), (2, 3), (3, 1)]
        for step in range(1, 101):
            controls = rng.uniform(-1, 1, (3, 2))
            belief = joint_step(belief, controls, q, 0.1)
            for i in states:
                a = belief.index[i]
                states[i] = split_ekf.propagate(states[i], controls[a], q[a], 0.1)
            if step % 10 == 0:
                a, b = pairs[(step // 10) % 3]
                z = rng.uniform(-1, 1, 2)
                innov = split_ekf.innovation(states[a], states[b], store.factor(a, b), z, noise)
                factors = split_ekf.update_factors(store, states[a], states[b], innov)
                for i in states:
                    states[i] = split_ekf.apply_update(
                        states[i], factors[store.index[i]], innov.white_residual
                    )
                store.update(factors)
                belief, _ = joint_ekf.update(
                    belief, model.RelativeMeasurement(a, b, z, belief.time), noise
                )
            recon = store.reconstruct(np.array([states[i].jac_accum for i in store.team]))
            np.testing.assert_allclose(
                cross_blocks(recon), cross_blocks(belief.cov), atol=1e-9
            )
            for i in states:
                np.testing.assert_allclose(states[i].mean, belief.mean[belief.index[i]], atol=1e-9)
                np.testing.assert_allclose(states[i].cov, belief.block(i, i), atol=1e-9)

    def test_reconstruct_is_the_per_pair_sandwich(self):
        rng = np.random.default_rng(54)
        store = CrossFactorStore((1, 2, 3, 4))
        store.update(rng.standard_normal((4, 3, 2)), missed={2, 4})
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
