"""Robot node and server behavior, checked against the centralized filter."""

import numpy as np
import pytest

from splitcl import joint_ekf, model, split_ekf
from splitcl.linalg import NumericalError
from splitcl.messages import ProtocolError, UpdateMessage
from splitcl.protocol import (
    EVENT_NUMERIC_S,
    EVENT_PAIR_UNREACHABLE,
    CooperationServer,
    RobotNode,
)

from dense_oracle import cross_blocks, joint_step

NOISE = np.eye(2) * 0.02
EQUIV_TOL = 1e-8


def build_stack(rng, n_robots, warmup_steps=20, warmup_pairs=()):
    """Robot nodes, a server and a mirrored centralized belief.

    Optionally runs a few propagate steps and warmup measurements so cross
    correlations are nonzero.
    """
    ids = tuple(range(1, n_robots + 1))
    means = {i: rng.uniform(-2, 2, 3) for i in ids}
    cov = np.eye(3) * 0.1
    nodes = {i: RobotNode(i, means[i], cov) for i in ids}
    server = CooperationServer(ids, NOISE)
    belief = joint_ekf.JointBelief.initialize(means, {i: cov for i in ids})
    q = np.array([0.02, 0.01])
    for step in range(warmup_steps):
        controls = rng.uniform(-1, 1, (n_robots, 2))
        for a, i in enumerate(ids):
            nodes[i].step(controls[a], q, 0.1)
        belief = joint_step(belief, controls, np.tile(q, (n_robots, 1)), 0.1)
        if warmup_pairs and step == warmup_steps // 2:
            t = nodes[ids[0]].time
            for a, b in warmup_pairs:
                z = rng.uniform(-1, 1, 2)
                msgs = [
                    nodes[a].landmark_message(z=z, landmark=b),
                    nodes[b].landmark_message(),
                ]
                updates = server.handle_epoch(msgs, t)
                for i, msg in updates.items():
                    nodes[i].apply_update(msg)
                belief, _ = joint_ekf.update(
                    belief, model.RelativeMeasurement(a, b, z, t), NOISE
                )
    return ids, nodes, server, belief


def assert_matches_belief(ids, nodes, belief, tol=EQUIV_TOL):
    for i in ids:
        np.testing.assert_allclose(nodes[i].state.mean, belief.mean[belief.index[i]], atol=tol)
        np.testing.assert_allclose(nodes[i].state.cov, belief.block(i, i), atol=tol)


class TestRobotNode:
    def test_step_delegates_to_split_propagate(self):
        rng = np.random.default_rng(70)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        expected = split_ekf.propagate(
            node.state, np.array([0.5, 0.1]), np.array([0.01, 0.01]), 0.1
        )
        node.step(np.array([0.5, 0.1]), np.array([0.01, 0.01]), 0.1)
        np.testing.assert_array_equal(node.state.mean, expected.mean)
        np.testing.assert_array_equal(node.state.cov, expected.cov)
        assert node.time == 1

    def test_landmark_message_mirrors_state(self):
        rng = np.random.default_rng(71)
        node = RobotNode(2, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        node.step(np.array([0.3, 0.0]), np.array([0.01, 0.01]), 0.1)
        msg = node.landmark_message(z=np.array([1.0, 2.0]), landmark=4)
        assert msg.sender == 2 and msg.time == 1 and msg.landmark == 4
        np.testing.assert_array_equal(msg.mean, node.state.mean)
        np.testing.assert_array_equal(msg.cov, node.state.cov)
        np.testing.assert_array_equal(msg.jac_accum, node.state.jac_accum)
        plain = node.landmark_message()
        assert plain.z is None and plain.landmark is None

    def test_stale_update_discarded(self):
        rng = np.random.default_rng(72)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        node.step(np.zeros(2), np.array([0.01, 0.01]), 0.1)
        stale = UpdateMessage(1, 0, "single", np.ones(2), np.ones((3, 2)) * 0.01)
        before = node.state.mean.copy()
        assert node.apply_update(stale) is False
        np.testing.assert_array_equal(node.state.mean, before)

    def test_wrong_recipient_rejected(self):
        node = RobotNode(1, np.zeros(3), np.eye(3) * 0.1)
        msg = UpdateMessage(2, 0, "single", np.zeros(2), np.zeros((3, 2)))
        with pytest.raises(ProtocolError):
            node.apply_update(msg)

    def test_zero_payload_is_noop(self):
        node = RobotNode(1, np.zeros(3), np.eye(3) * 0.1)
        before = node.state.mean.copy()
        assert node.apply_update(UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))))
        assert node.apply_update(UpdateMessage(1, 0, "summed", np.zeros(3), np.zeros((3, 3))))
        np.testing.assert_array_equal(node.state.mean, before)

    def test_single_payload_equals_split_update(self):
        rng = np.random.default_rng(73)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        factor = rng.standard_normal((3, 2)) * 0.05
        white = rng.standard_normal(2)
        expected = split_ekf.apply_update(node.state, factor, white)
        node.apply_update(UpdateMessage(1, 0, "single", white, factor))
        np.testing.assert_array_equal(node.state.mean, expected.mean)
        np.testing.assert_array_equal(node.state.cov, expected.cov)

    def test_summed_payload_equals_sequential_application(self):
        rng = np.random.default_rng(74)
        node_summed = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        node_seq = RobotNode(1, node_summed.state.mean, node_summed.state.cov)
        parts = [
            (rng.standard_normal((3, 2)) * 0.05, rng.standard_normal(2))
            for _ in range(2)
        ]
        vec = sum(f @ w for f, w in parts)
        mat = sum(f @ f.T for f, _ in parts)
        node_summed.apply_update(UpdateMessage(1, 0, "summed", vec, mat))
        for f, w in parts:
            node_seq.apply_update(UpdateMessage(1, 0, "single", w, f))
        np.testing.assert_allclose(node_summed.state.mean, node_seq.state.mean, atol=1e-12)
        np.testing.assert_allclose(node_summed.state.cov, node_seq.state.cov, atol=1e-12)

    @pytest.mark.parametrize("kind", ["single", "summed"])
    def test_indefinite_correction_raises_and_keeps_state(self, kind):
        # Either frame kind removes far more than the robot's 0.1 * I.
        node = RobotNode(1, np.array([0.5, -0.5, 0.1]), np.eye(3) * 0.1)
        if kind == "single":
            msg = UpdateMessage(1, 0, kind, np.ones(2), np.ones((3, 2)))
        else:
            msg = UpdateMessage(1, 0, kind, np.ones(3), np.eye(3) * 2.0)
        before = node.state
        with pytest.raises(NumericalError, match="covariance indefinite"):
            node.apply_update(msg)
        assert node.state is before

    def test_storage_is_constant_in_team_size(self):
        node = RobotNode(1, np.zeros(3), np.eye(3))
        assert node.__slots__ == ("state",)
        assert node.state.mean.shape == (3,)
        assert node.state.cov.shape == (3, 3)
        assert node.state.jac_accum.shape == (2,)


class TestServerSingleMeasurement:
    def test_no_measurements_no_messages_store_untouched(self):
        rng = np.random.default_rng(75)
        ids, nodes, server, _ = build_stack(rng, 3)
        before = server.store.blocks.copy()
        updates = server.handle_epoch([nodes[1].landmark_message()], nodes[1].time)
        assert updates == {}
        np.testing.assert_array_equal(server.store.blocks, before)

    def test_single_measurement_matches_joint_filter(self):
        rng = np.random.default_rng(76)
        ids, nodes, server, belief = build_stack(rng, 4, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        z = rng.uniform(-1, 1, 2)
        msgs = [nodes[3].landmark_message(z=z, landmark=4), nodes[4].landmark_message()]
        updates = server.handle_epoch(msgs, t)
        # The warm-up pair (1, 2) is uncorrelated with (3, 4): no frame for it.
        assert set(updates) == {3, 4}
        assert all(m.kind == "single" for m in updates.values())
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        belief, _ = joint_ekf.update(belief, model.RelativeMeasurement(3, 4, z, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    def test_mismatched_message_time_rejected(self):
        rng = np.random.default_rng(77)
        ids, nodes, server, _ = build_stack(rng, 2)
        msg = nodes[1].landmark_message(z=np.zeros(2), landmark=2)
        with pytest.raises(ProtocolError):
            server.handle_epoch([msg], msg.time + 1)

    def test_unreachable_pair_discarded_with_event(self):
        rng = np.random.default_rng(78)
        ids, nodes, server, _ = build_stack(rng, 3)
        t = nodes[1].time
        msgs = [nodes[1].landmark_message(z=np.zeros(2), landmark=2), nodes[2].landmark_message()]
        updates = server.handle_epoch(msgs, t, missed=frozenset({2}))
        assert updates == {}
        assert [e.code for e in server.events] == [EVENT_PAIR_UNREACHABLE]

    def test_missing_landmark_message_discarded_with_event(self):
        rng = np.random.default_rng(79)
        ids, nodes, server, _ = build_stack(rng, 3)
        t = nodes[1].time
        msgs = [nodes[1].landmark_message(z=np.zeros(2), landmark=3)]
        assert server.handle_epoch(msgs, t) == {}
        assert server.events[-1].code == EVENT_PAIR_UNREACHABLE

    def test_sick_innovation_skipped_with_event(self):
        rng = np.random.default_rng(80)
        ids, nodes, server, _ = build_stack(rng, 2)
        t = nodes[1].time
        msg_a = nodes[1].landmark_message(z=np.zeros(2), landmark=2)
        msg_b = nodes[2].landmark_message()
        object.__setattr__(msg_a, "cov", -np.eye(3))
        object.__setattr__(msg_b, "cov", -np.eye(3))
        server.meas_noise_cov = np.eye(2) * 1e-12
        updates = server.handle_epoch([msg_a, msg_b], t)
        assert updates == {}
        assert server.events[-1].code == EVENT_NUMERIC_S

    def test_update_message_sizes_constant_in_team_size(self):
        sizes_single = set()
        sizes_landmark = set()
        for n in (2, 4, 8, 16):
            rng = np.random.default_rng(81)
            ids, nodes, server, _ = build_stack(rng, n, warmup_steps=4)
            t = nodes[1].time
            z = rng.uniform(-1, 1, 2)
            msgs = [nodes[1].landmark_message(z=z, landmark=2), nodes[2].landmark_message()]
            sizes_landmark.update(len(m.encode()) for m in msgs)
            updates = server.handle_epoch(msgs, t)
            sizes_single.update(len(m.encode()) for m in updates.values())
        assert len(sizes_single) == 1
        assert len(sizes_landmark) == 1


class TestServerSequentialEpoch:
    def test_concurrent_measurements_match_sequential_joint_filter(self):
        rng = np.random.default_rng(82)
        ids, nodes, server, belief = build_stack(rng, 4, warmup_pairs=[(1, 2), (3, 4)])
        t = nodes[1].time
        z12 = rng.uniform(-1, 1, 2)
        z34 = rng.uniform(-1, 1, 2)
        msgs = [
            nodes[3].landmark_message(z=z34, landmark=4),
            nodes[4].landmark_message(),
            nodes[1].landmark_message(z=z12, landmark=2),
            nodes[2].landmark_message(),
        ]
        updates = server.handle_epoch(msgs, t)
        assert all(m.kind == "summed" for m in updates.values())
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        # same fixed ordering: ascending (observer, landmark)
        belief, _ = joint_ekf.update(belief, model.RelativeMeasurement(1, 2, z12, t), NOISE)
        belief, _ = joint_ekf.update(belief, model.RelativeMeasurement(3, 4, z34, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    def test_shared_robot_between_measurements_uses_fresh_linearization(self):
        # robot 2 is landmark of (1,2) and observer of (2,3): the second
        # measurement must be processed against robot 2's corrected state
        rng = np.random.default_rng(83)
        ids, nodes, server, belief = build_stack(rng, 3, warmup_pairs=[(1, 3)])
        t = nodes[1].time
        z12 = rng.uniform(-1, 1, 2)
        z23 = rng.uniform(-1, 1, 2)
        msgs = [
            nodes[1].landmark_message(z=z12, landmark=2),
            nodes[2].landmark_message(z=z23, landmark=3),
            nodes[3].landmark_message(),
        ]
        updates = server.handle_epoch(msgs, t)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        belief, _ = joint_ekf.update(belief, model.RelativeMeasurement(1, 2, z12, t), NOISE)
        belief, _ = joint_ekf.update(belief, model.RelativeMeasurement(2, 3, z23, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    def test_missed_robot_keeps_propagated_state_partial_oracle_agrees(self):
        rng = np.random.default_rng(84)
        ids, nodes, server, belief = build_stack(rng, 4, warmup_pairs=[(1, 2), (2, 3)])
        t = nodes[1].time
        missed = frozenset({4})
        z = rng.uniform(-1, 1, 2)
        msgs = [nodes[1].landmark_message(z=z, landmark=2), nodes[2].landmark_message()]
        before4 = nodes[4].state.copy()
        updates = server.handle_epoch(msgs, t, missed=missed)
        for i, msg in updates.items():
            if i not in missed:
                nodes[i].apply_update(msg)
        belief, _ = joint_ekf.partial_update(
            belief, model.RelativeMeasurement(1, 2, z, t), NOISE, missed
        )
        assert_matches_belief(ids, nodes, belief)
        np.testing.assert_array_equal(nodes[4].state.mean, before4.mean)
        np.testing.assert_array_equal(nodes[4].state.cov, before4.cov)

    def test_small_supports_with_missed_robots_match_partial_filter(self):
        # 48 robots: measurement (1, 2) touches robots 1, 2, 5 and 6
        # (correlated by the warm-up), (7, 8) only its endpoints, so both
        # store updates cover a few robots of the team. Robots 5 and 6 of
        # the support miss the epoch, so their block pair is frozen, and so
        # does robot 9 outside it.
        rng = np.random.default_rng(90)
        ids, nodes, server, belief = build_stack(
            rng, 48, warmup_pairs=[(1, 2), (2, 5), (2, 6)]
        )
        t = nodes[1].time
        missed = frozenset({5, 6, 9})
        z12 = rng.uniform(-1, 1, 2)
        z78 = rng.uniform(-1, 1, 2)
        msgs = [
            nodes[7].landmark_message(z=z78, landmark=8),
            nodes[8].landmark_message(),
            nodes[1].landmark_message(z=z12, landmark=2),
            nodes[2].landmark_message(),
        ]
        updates = server.handle_epoch(msgs, t, missed=missed)
        assert set(updates) == {1, 2, 5, 6, 7, 8}
        for i, msg in updates.items():
            if i not in missed:
                nodes[i].apply_update(msg)
        for a, b, z in ((1, 2, z12), (7, 8, z78)):
            belief, _ = joint_ekf.partial_update(
                belief, model.RelativeMeasurement(a, b, z, t), NOISE, missed
            )
        assert_matches_belief(ids, nodes, belief)
        recon = server.store.reconstruct(np.array([nodes[i].state.jac_accum for i in ids]))
        np.testing.assert_allclose(cross_blocks(recon), cross_blocks(belief.cov), atol=EQUIV_TOL)

    def test_store_rows_of_missed_robot_still_updated(self):
        rng = np.random.default_rng(85)
        ids, nodes, server, belief = build_stack(rng, 4, warmup_pairs=[(3, 4), (1, 4)])
        t = nodes[1].time
        z = rng.uniform(-1, 1, 2)
        before = server.store.factor(1, 4).copy()
        msgs = [nodes[1].landmark_message(z=z, landmark=2), nodes[2].landmark_message()]
        server.handle_epoch(msgs, t, missed=frozenset({4}))
        assert not np.array_equal(server.store.factor(1, 4), before)
        # reconstruction still matches the partial-update reference
        belief, _ = joint_ekf.partial_update(
            belief, model.RelativeMeasurement(1, 2, z, t), NOISE, frozenset({4})
        )
        recon = server.store.reconstruct(np.array([nodes[i].state.jac_accum for i in ids]))
        np.testing.assert_allclose(cross_blocks(recon), cross_blocks(belief.cov), atol=EQUIV_TOL)


class TestServerAbsolute:
    def test_uncorrelated_team_only_observer_moves(self):
        rng = np.random.default_rng(86)
        ids, nodes, server, belief = build_stack(rng, 3)
        t = nodes[1].time
        z = nodes[2].state.mean[:2] + rng.uniform(-0.1, 0.1, 2)
        msg = nodes[2].landmark_message(z=z)
        before = {i: nodes[i].state.copy() for i in ids}
        updates = server.handle_epoch([msg], t)
        assert set(updates) == {2}
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        assert not np.array_equal(nodes[2].state.mean, before[2].mean)
        for i in (1, 3):
            np.testing.assert_array_equal(nodes[i].state.mean, before[i].mean)

    def test_matches_joint_absolute_update(self):
        rng = np.random.default_rng(87)
        ids, nodes, server, belief = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        z = rng.uniform(-2, 2, 2)
        updates = server.handle_epoch([nodes[1].landmark_message(z=z)], t)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        belief, _ = joint_ekf.absolute_update(
            belief, model.AbsoluteMeasurement(1, z, t), NOISE
        )
        assert_matches_belief(ids, nodes, belief)

    def test_correlation_spreads_absolute_benefit(self):
        # after a relative update correlates robots 1 and 2, an absolute
        # measurement of robot 1 moves robot 2 as well
        rng = np.random.default_rng(88)
        ids, nodes, server, belief = build_stack(rng, 2, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        before2 = nodes[2].state.mean.copy()
        z = rng.uniform(-2, 2, 2)
        updates = server.handle_epoch([nodes[1].landmark_message(z=z)], t)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        assert not np.array_equal(nodes[2].state.mean, before2)
        belief, _ = joint_ekf.absolute_update(
            belief, model.AbsoluteMeasurement(1, z, t), NOISE
        )
        assert_matches_belief(ids, nodes, belief)


class TestSparseUpdateFrames:
    """The server messages exactly the robots the centralized gain touches."""

    # Warm-up correlates (1, 2) and (3, 4); robots 5 and 6 are never measured.
    # Each epoch is a list of (observer, landmark) pairs, landmark None for
    # an absolute measurement.
    EPOCHS = {
        "single": [(2, 5)],
        "summed": [(1, 2), (2, 5)],
        "absolute": [(3, None)],
    }

    @pytest.mark.parametrize("kind", sorted(EPOCHS))
    def test_recipients_are_the_robots_with_a_nonzero_gain(self, kind):
        rng = np.random.default_rng(89)
        ids, nodes, server, belief = build_stack(rng, 6, warmup_pairs=[(1, 2), (3, 4)])
        t = nodes[1].time
        msgs = []
        gained = set()
        before_belief = belief
        for a, b in self.EPOCHS[kind]:
            if b is None:
                z = nodes[a].state.mean[:2] + rng.uniform(-0.1, 0.1, 2)
                msgs.append(nodes[a].landmark_message(z=z))
                belief, innov = joint_ekf.absolute_update(
                    belief, model.AbsoluteMeasurement(a, z, t), NOISE
                )
            else:
                z = rng.uniform(-1, 1, 2)
                msgs += [nodes[a].landmark_message(z=z, landmark=b), nodes[b].landmark_message()]
                belief, innov = joint_ekf.update(
                    belief, model.RelativeMeasurement(a, b, z, t), NOISE
                )
            gained |= {i for i in ids if innov.gains[belief.index[i]].any()}
        before = {i: nodes[i].state.copy() for i in ids}

        updates = server.handle_epoch(msgs, t)
        assert set(updates) == gained
        assert 0 < len(gained) < len(ids)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        assert_matches_belief(ids, nodes, belief)
        # Without a message neither side moves that robot, bit for bit.
        for i in set(ids) - gained:
            np.testing.assert_array_equal(nodes[i].state.mean, before[i].mean)
            np.testing.assert_array_equal(nodes[i].state.cov, before[i].cov)
            np.testing.assert_array_equal(
                belief.mean[belief.index[i]], before_belief.mean[belief.index[i]]
            )
            np.testing.assert_array_equal(belief.block(i, i), before_belief.block(i, i))
