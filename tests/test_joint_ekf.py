"""Dense team EKF against the full-matrix oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcl import joint_ekf, model
from splitcl.split_ekf import SplitTeamState
from splitcl.linalg import NumericalError, block_diag_sandwich

from dense_oracle import dense_propagate, dense_update, joint_step, one_step, random_belief, stack

DENSE_TOL = 1e-12


def unpack(belief, x, p):
    """Compare a belief against stacked dense results, every mean and block."""
    n = len(belief.team)
    np.testing.assert_allclose(belief.mean, x.reshape(n, 3), atol=DENSE_TOL)
    np.testing.assert_allclose(belief.cov, p.reshape(n, 3, n, 3), atol=DENSE_TOL)


def default_controls(rng, ids):
    return rng.uniform(-1, 1, (len(ids), 2))


def default_noises(ids):
    return np.tile([0.01, 0.005], (len(ids), 1))


class TestPropagate:
    def test_zero_cross_stays_zero(self):
        rng = np.random.default_rng(10)
        belief = joint_ekf.JointBelief.initialize((1, 2), [np.zeros(3), np.ones(3)], np.eye(3))
        out = joint_step(
            belief, default_controls(rng, (1, 2)), default_noises((1, 2)), 0.1
        )
        np.testing.assert_array_equal(out.block(1, 2), np.zeros((3, 3)))
        np.testing.assert_array_equal(out.block(2, 1), np.zeros((3, 3)))
        assert out.time == belief.time + 1

    def test_single_robot_no_noise(self):
        belief = joint_ekf.JointBelief.initialize((1,), [1.0, 0, 0.2], np.eye(3) * 0.5)
        control = np.array([0.7, 0.1])
        out = joint_step(belief, control[None], np.zeros((1, 2)), 0.1)
        _, f, _ = one_step(belief.mean[0], control, 0.1)
        expected = f @ belief.block(1, 1) @ f.T
        np.testing.assert_allclose(out.block(1, 1), expected, atol=1e-15)

    def test_matches_dense_on_random_beliefs(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            belief = random_belief(rng, n)
            controls = default_controls(rng, belief.team)
            noises = default_noises(belief.team)
            out = joint_step(belief, controls, noises, 0.1)

            x, p = stack(belief)
            x_d, p_d = dense_propagate(x, p, list(controls), [np.diag(q) for q in noises], 0.1)
            unpack(out, x_d, p_d)

    def test_wrong_team_rejected(self):
        belief = joint_ekf.JointBelief.initialize((1,), np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            joint_step(belief, np.zeros((2, 2)), np.ones((1, 2)), 0.1)
        with pytest.raises(ValueError):
            joint_step(belief, np.zeros((1, 2)), np.ones((2, 2)), 0.1)


    @pytest.mark.parametrize("n", [1, 4, 33, 66])
    def test_is_the_written_out_recurrence_bit_for_bit(self, n):
        # At 66 robots OpenBLAS's products are not their own transposes bit
        # for bit, so no size may lean on the product's symmetry.
        rng = np.random.default_rng(n)
        belief = random_belief(rng, n)
        controls = rng.uniform(-1, 1, (n, 1, 2))
        poses, translations, g_jacs = model.propagate_pose(belief.mean, controls, 0.1)
        f_jacs = model.shear(translations[:, 0])
        noise = model.process_noise(g_jacs, rng.uniform(0.01, 0.1, (n, 1, 2)))[:, 0]
        # Not bitwise symmetric, so the symmetrization is part of the bits.
        assert not np.array_equal(noise, noise.swapaxes(1, 2))
        out = joint_ekf.propagate(belief, poses[:, 1], f_jacs, noise)

        m = np.empty_like(belief.cov)
        for a in range(n):
            for b in range(n):
                m[a, :, b, :] = f_jacs[a] @ belief.cov[a, :, b, :] @ f_jacs[b].T
            m[a, :, a, :] += noise[a]
        m = m.reshape(3 * n, 3 * n)
        np.testing.assert_array_equal(out.joint_matrix(), 0.5 * (m + m.T))
        np.testing.assert_array_equal(out.mean, poses[:, 1])
        assert out.time == belief.time + 1


class TestUpdate:
    def test_matches_dense_on_random_three_robot_belief(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            belief = random_belief(rng, 3)
            meas = model.RelativeMeasurement(1, 3, rng.uniform(-2, 2, 2), belief.time)
            noise = np.eye(2) * 0.01
            out, innov = joint_ekf.partial_update(belief, meas, noise)
            x, p = stack(belief)
            x_d, p_d, s_d, k_d = dense_update(x, p, meas.z, noise, 0, 2)
            unpack(out, x_d, p_d)
            np.testing.assert_allclose(innov.cov, s_d, atol=DENSE_TOL)
            assert innov.gains.shape == (3, 3, 2)
            np.testing.assert_allclose(innov.gains, k_d.reshape(3, 3, 2), atol=DENSE_TOL)

    def test_matches_dense_when_landmark_precedes_observer(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            belief = random_belief(rng, 4)
            meas = model.RelativeMeasurement(4, 2, rng.uniform(-2, 2, 2), belief.time)
            noise = np.eye(2) * 0.01
            out, innov = joint_ekf.partial_update(belief, meas, noise)
            x, p = stack(belief)
            x_d, p_d, s_d, _ = dense_update(x, p, meas.z, noise, 3, 1)
            unpack(out, x_d, p_d)
            np.testing.assert_allclose(innov.cov, s_d, atol=DENSE_TOL)

    def test_near_perfect_measurement_satisfies_the_linearized_model(self):
        # As the noise vanishes, the updated pair meets the measurement
        # model linearized at the prior: h(x0) + H (x - x0) = z.
        rng = np.random.default_rng(25)
        for _ in range(10):
            belief = random_belief(rng, 3)
            z = rng.uniform(-2, 2, 2)
            meas = model.RelativeMeasurement(1, 2, z, belief.time)
            out, _ = joint_ekf.partial_update(belief, meas, np.eye(2) * 1e-12)
            predicted, h_obs, h_lm = map(
                np.array, model.relative_terms(*belief.mean[0], *belief.mean[1, :2])
            )
            moved = h_obs @ (out.mean[0] - belief.mean[0]) + h_lm @ (out.mean[1] - belief.mean[1])
            np.testing.assert_allclose(predicted + moved, z, atol=1e-6)

    def test_zero_correlation_touches_only_the_pair(self):
        rng = np.random.default_rng(21)
        belief = joint_ekf.JointBelief.initialize(
            (1, 2, 3), rng.uniform(-1, 1, (3, 3)), np.eye(3) * 0.2
        )
        meas = model.RelativeMeasurement(1, 2, rng.uniform(-1, 1, 2), 0)
        out, innov = joint_ekf.partial_update(belief, meas, np.eye(2) * 0.01)
        np.testing.assert_array_equal(innov.gains[2], np.zeros((3, 2)))
        np.testing.assert_array_equal(out.mean[2], belief.mean[2])
        np.testing.assert_array_equal(out.block(3, 3), belief.block(3, 3))
        for i in (1, 2):
            np.testing.assert_array_equal(out.block(i, 3), np.zeros((3, 3)))
            assert not np.array_equal(out.mean[out.index[i]], belief.mean[belief.index[i]])
        assert out.block(1, 2).any()

    def test_zero_correlation_innovation_has_no_cross_terms(self):
        rng = np.random.default_rng(13)
        belief = joint_ekf.JointBelief.initialize(
            (1, 2), rng.uniform(-1, 1, (2, 3)), [np.eye(3) * 0.2, np.eye(3) * 0.3]
        )
        meas = model.RelativeMeasurement(1, 2, np.zeros(2), 0)
        noise = np.eye(2) * 0.05
        _, innov = joint_ekf.partial_update(belief, meas, noise)
        terms = model.relative_terms(*belief.mean[0], *belief.mean[1, :2])
        _, h_obs, h_lm = map(np.array, terms)
        expected = (
            noise + h_obs @ belief.block(1, 1) @ h_obs.T + h_lm @ belief.block(2, 2) @ h_lm.T
        )
        np.testing.assert_allclose(innov.cov, expected, atol=1e-14)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            belief = random_belief(rng, 4)
            meas = model.RelativeMeasurement(2, 4, rng.uniform(-2, 2, 2), 0)
            out, _ = joint_ekf.partial_update(belief, meas, np.eye(2) * 0.02)
            for i in belief.team:
                assert np.trace(out.block(i, i)) <= np.trace(belief.block(i, i)) + 1e-12

    def test_unknown_endpoint_rejected(self):
        belief = joint_ekf.JointBelief.initialize((1,), np.zeros(3), np.eye(3))
        meas = model.RelativeMeasurement(1, 9, np.zeros(2), 0)
        with pytest.raises(ValueError):
            joint_ekf.partial_update(belief, meas, np.eye(2))

    def test_indefinite_innovation_raises(self):
        belief = joint_ekf.JointBelief.initialize((1, 2), [np.zeros(3), [1.0, 0, 0]], np.eye(3))
        # deliberately malformed own covariance, bypassing the constructor
        belief.block(1, 1)[:] = -np.eye(3)
        belief.block(2, 2)[:] = -np.eye(3)
        meas = model.RelativeMeasurement(1, 2, np.zeros(2), 0)
        with pytest.raises(NumericalError):
            joint_ekf.partial_update(belief, meas, np.eye(2) * 1e-12)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(15)
        belief = random_belief(rng, 3)
        meas = model.RelativeMeasurement(3, 1, rng.uniform(-1, 1, 2), 0)
        out, _ = joint_ekf.partial_update(belief, meas, np.eye(2) * 0.02)
        joint = out.joint_matrix()
        np.testing.assert_array_equal(joint, joint.T)


class TestPartialUpdate:
    def test_branch_structure_when_only_pair_updates(self):
        rng = np.random.default_rng(17)
        belief = random_belief(rng, 4)
        meas = model.RelativeMeasurement(1, 2, rng.uniform(-1, 1, 2), 0)
        missed = frozenset({3, 4})
        out, _ = joint_ekf.partial_update(belief, meas, np.eye(2) * 0.01, missed)
        for i in (3, 4):
            np.testing.assert_array_equal(out.mean[out.index[i]], belief.mean[belief.index[i]])
            np.testing.assert_array_equal(out.block(i, i), belief.block(i, i))
        np.testing.assert_array_equal(out.block(3, 4), belief.block(3, 4))
        np.testing.assert_array_equal(out.block(4, 3), belief.block(4, 3))
        assert not np.array_equal(out.mean[0], belief.mean[0])
        assert not np.array_equal(out.block(1, 2), belief.block(1, 2))
        # cross terms between missed and updated robots still move
        assert not np.array_equal(out.block(1, 3), belief.block(1, 3))

    def test_matches_dense_masked_update(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            belief = random_belief(rng, 4)
            meas = model.RelativeMeasurement(2, 3, rng.uniform(-1, 1, 2), 0)
            noise = np.eye(2) * 0.02
            out, _ = joint_ekf.partial_update(belief, meas, noise, missed=frozenset({4}))
            x, p = stack(belief)
            x_d, p_d, _, _ = dense_update(x, p, meas.z, noise, 1, 2, missed_idx=(3,))
            unpack(out, x_d, p_d)

    @pytest.mark.parametrize(
        "meas, missed, reason",
        [
            (model.RelativeMeasurement(1, 2, np.zeros(2), 0), frozenset({2}), "received"),
            (model.RelativeMeasurement(1, 2, np.zeros(2), 0), frozenset({1, 3}), "received"),
            (model.RelativeMeasurement(1, 4, np.zeros(2), 0), frozenset(), "not in team"),
        ],
        ids=["missed-landmark", "missed-observer", "robot-outside-team"],
    )
    def test_measuring_pair_must_be_reachable(self, meas, missed, reason):
        rng = np.random.default_rng(19)
        belief = random_belief(rng, 3)
        with pytest.raises(ValueError, match=reason):
            joint_ekf.partial_update(belief, meas, np.eye(2), missed)

    def test_updated_trace_beats_randomly_perturbed_gains(self):
        # The chosen gain minimizes the posterior trace of the receiving
        # robots; any perturbed gain applied through the general-form
        # covariance update must do no better.
        rng = np.random.default_rng(20)
        belief = random_belief(rng, 4)
        meas = model.RelativeMeasurement(1, 2, rng.uniform(-1, 1, 2), 0)
        noise = np.eye(2) * 0.02
        missed = frozenset({4})
        out, innov = joint_ekf.partial_update(belief, meas, noise, missed)
        updated = [1, 2, 3]
        best_trace = sum(np.trace(out.block(i, i)) for i in updated)

        x, p = stack(belief)
        m = len(updated)
        p_sub = p[: 3 * m, : 3 * m]
        terms = model.relative_terms(*belief.mean[0], *belief.mean[1, :2])
        _, h_obs, h_lm = map(np.array, terms)
        h_row = np.zeros((2, 3 * m))
        h_row[:, 0:3] = h_obs
        h_row[:, 3:6] = h_lm
        k_star = np.vstack([innov.gains[belief.index[i]] for i in updated])
        for _ in range(100):
            k_try = k_star + rng.standard_normal(k_star.shape) * 0.05
            joseph = (np.eye(3 * m) - k_try @ h_row)
            p_try = joseph @ p_sub @ joseph.T + k_try @ noise @ k_try.T
            assert np.trace(p_try) >= best_trace - 1e-10


class TestJointBelief:
    def test_block_serves_transpose(self):
        rng = np.random.default_rng(23)
        belief = random_belief(rng, 3)
        np.testing.assert_array_equal(belief.block(2, 1), belief.block(1, 2).T)
        assert np.shares_memory(belief.block(2, 1), belief.cov)
        assert np.shares_memory(belief.joint_matrix(), belief.cov)
        np.testing.assert_array_equal(
            belief.joint_matrix()[3:6, 0:3], belief.block(2, 1)
        )

    def test_min_eigenvalue_of_psd_matrix(self):
        rng = np.random.default_rng(25)
        belief = random_belief(rng, 3)
        assert belief.min_eigenvalue() > 0

    @pytest.mark.parametrize("team", [(2, 1), (1, 1)])
    def test_initialize_refuses_a_team_out_of_order(self, team):
        with pytest.raises(ValueError, match="ascending"):
            joint_ekf.JointBelief.initialize(team, np.zeros((2, 3)), np.eye(3))

    def test_one_start_covariance_is_a_stack_of_its_copies(self):
        rng = np.random.default_rng(26)
        team, means = (1, 2, 5, 9), rng.uniform(-1, 1, (4, 3))
        root = rng.standard_normal((3, 3))
        cov = root @ root.T + np.eye(3)
        copies = np.stack([cov] * 4)
        one = joint_ekf.JointBelief.initialize(team, means, cov)
        stacked = joint_ekf.JointBelief.initialize(team, means, copies)
        assert one.team == stacked.team == team and one.index == stacked.index
        np.testing.assert_array_equal(one.mean, stacked.mean)
        np.testing.assert_array_equal(one.cov, stacked.cov)
        np.testing.assert_array_equal(one.own_covs(), copies)
        # The split filter's start takes its covariances by the same rule.
        for start in (cov, copies):
            np.testing.assert_array_equal(SplitTeamState.initialize(team, means, start).cov, copies)
        for init in (joint_ekf.JointBelief.initialize, SplitTeamState.initialize):
            with pytest.raises(ValueError):
                init(team, means, copies[:2])


class TestBlockDiagSandwich:
    def test_matches_full_block_diagonal_product(self):
        rng = np.random.default_rng(26)
        for n in (1, 2, 5):
            blocks = rng.standard_normal((n, 3, 3))
            team_matrix = rng.standard_normal((n, 3, n, 3))
            full = np.zeros((3 * n, 3 * n))
            for a in range(n):
                full[3 * a:3 * a + 3, 3 * a:3 * a + 3] = blocks[a]
            expected = full @ team_matrix.reshape(3 * n, 3 * n) @ full.T
            out = block_diag_sandwich(blocks, team_matrix)
            assert out.shape == (n, 3, n, 3) and out.flags.c_contiguous
            np.testing.assert_allclose(out.reshape(3 * n, 3 * n), expected, atol=1e-13)


@st.composite
def update_sequences(draw):
    """A team size, a seed for the numbers, and a list of team operations.

    Each operation is ``None`` (propagate one step) or an update
    ``(observer, landmark, missed)`` of a relative measurement, and
    ``missed`` never contains an endpoint.
    """
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()) and ops:
            ops.append(None)
            continue
        observer = draw(st.integers(1, n))
        landmark = draw(st.integers(1, n).filter(lambda j: j != observer))
        others = sorted(set(range(1, n + 1)) - {observer, landmark})
        missed = frozenset(draw(st.sets(st.sampled_from(others)))) if others else frozenset()
        ops.append((observer, landmark, missed))
    return n, seed, ops


class TestPartialUpdateProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(update_sequences())
    def test_random_sequences_match_the_oracle_and_freeze_missed_robots(self, case):
        n, seed, ops = case
        rng = np.random.default_rng(seed)
        belief = random_belief(rng, n)
        noise = np.eye(2) * 0.02
        for op in ops:
            x, p = stack(belief)
            if op is None:
                controls = default_controls(rng, belief.team)
                noises = default_noises(belief.team)
                out = joint_step(belief, controls, noises, 0.1)
                x_d, p_d = dense_propagate(
                    x, p, list(controls), [np.diag(q) for q in noises], 0.1
                )
                frozen = np.array([], dtype=int)
            else:
                observer, landmark, missed = op
                z = rng.uniform(-2, 2, 2)
                meas = model.RelativeMeasurement(observer, landmark, z, belief.time)
                out, _ = joint_ekf.partial_update(belief, meas, noise, missed)
                frozen = np.array(sorted(belief.index[i] for i in missed), dtype=int)
                x_d, p_d, _, _ = dense_update(
                    x, p, z, noise, belief.index[observer], belief.index[landmark],
                    missed_idx=frozen,
                )
            unpack(out, x_d, p_d)
            np.testing.assert_array_equal(out.mean[frozen], belief.mean[frozen])
            np.testing.assert_array_equal(
                out.cov[frozen[:, None], :, frozen[None, :], :],
                belief.cov[frozen[:, None], :, frozen[None, :], :],
            )
            joint = out.joint_matrix()
            np.testing.assert_array_equal(joint, joint.T)
            belief = out
