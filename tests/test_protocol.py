"""Robot node and server behavior, checked against the centralized filter."""

import copy
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcl import joint_ekf, model, split_ekf
from splitcl.linalg import NumericalError
from splitcl.messages import LandmarkMessage, ProtocolError, UpdateMessage
from splitcl.protocol import (
    EVENT_NUMERIC_S,
    EVENT_PAIR_UNREACHABLE,
    CooperationServer,
    RobotNode,
)

from dense_oracle import apply_frame, cross_blocks, float_rows, joint_step, stack_rows, upper_2x2

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
    belief = joint_ekf.JointBelief.initialize(ids, [means[i] for i in ids], cov)
    q = np.array([0.02, 0.01])
    for step in range(warmup_steps):
        controls = rng.uniform(-1, 1, (n_robots, 2))
        for a, i in enumerate(ids):
            nodes[i].step(controls[a:a + 1], q[None], 0.1)
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
                belief, _ = joint_ekf.partial_update(
                    belief, model.RelativeMeasurement(a, b, z, t), NOISE
                )
    return ids, nodes, server, belief


def assert_matches_belief(ids, nodes, belief, tol=EQUIV_TOL):
    for i in ids:
        np.testing.assert_allclose(nodes[i].team.mean[0], belief.mean[belief.index[i]], atol=tol)
        np.testing.assert_allclose(nodes[i].team.cov[0], belief.block(i, i), atol=tol)


def jac_accums(ids, nodes):
    """The nodes' accumulated Jacobians ``(N, 2)``, in the order of ``ids``."""
    return np.concatenate([nodes[i].team.jac_accum for i in ids])


class TestRobotNode:
    def test_step_is_one_team_of_one_segment(self):
        rng = np.random.default_rng(70)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        controls = rng.uniform(-1, 1, (5, 2))
        q = np.full((5, 2), 0.01)
        alone = copy.deepcopy(node.team)
        (means, covs, accs), end = split_ekf.propagate_team(alone, controls[None], q[None], 0.1)
        block = node.step(controls, q, 0.1)
        for got, want in zip(block, (means[0], covs[:, 0], accs[0]), strict=True):
            np.testing.assert_array_equal(got, want)
        assert [len(rows) for rows in block] == [5, 5, 5]
        # The node keeps the last step, the team of one's end.
        assert node.time == end.time == 5
        for field, rows in zip(("mean", "cov", "jac_accum"), block):
            np.testing.assert_array_equal(getattr(node.team, field), rows[-1:])
            np.testing.assert_array_equal(getattr(node.team, field), getattr(end, field))

    def test_landmark_message_mirrors_state(self):
        rng = np.random.default_rng(71)
        node = RobotNode(2, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        node.step(np.array([[0.3, 0.0]]), np.array([[0.01, 0.01]]), 0.1)
        msg = node.landmark_message(z=np.array([1.0, 2.0]), landmark=4)
        assert msg.sender == 2 and msg.time == 1 and msg.landmark == 4
        # The frame's payloads are the row's floats, the covariance row-major.
        assert msg.mean == tuple(node.team.mean[0].tolist())
        assert msg.cov == tuple(node.team.cov[0].ravel().tolist())
        assert msg.jac_accum == tuple(node.team.jac_accum[0].tolist())
        plain = node.landmark_message()
        assert plain.z is None and plain.landmark is None

    def test_stale_update_discarded(self):
        rng = np.random.default_rng(72)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        node.step(np.zeros((1, 2)), np.array([[0.01, 0.01]]), 0.1)
        stale = UpdateMessage(1, 0, "single", np.ones(2), np.ones((3, 2)) * 0.01)
        before = node.team.mean.copy()
        assert node.apply_update(stale) is False
        np.testing.assert_array_equal(node.team.mean, before)

    def test_wrong_recipient_rejected(self):
        node = RobotNode(1, np.zeros(3), np.eye(3) * 0.1)
        msg = UpdateMessage(2, 0, "single", np.zeros(2), np.zeros((3, 2)))
        with pytest.raises(ProtocolError):
            node.apply_update(msg)

    def test_zero_payload_is_noop(self):
        node = RobotNode(1, np.zeros(3), np.eye(3) * 0.1)
        before = node.team.mean.copy()
        assert node.apply_update(UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))))
        assert node.apply_update(UpdateMessage(1, 0, "summed", np.zeros(3), np.zeros((3, 3))))
        np.testing.assert_array_equal(node.team.mean, before)

    def test_single_payload_equals_split_update(self):
        rng = np.random.default_rng(73)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        factor = rng.standard_normal((3, 2)) * 0.05
        white = rng.standard_normal(2)
        expected = apply_frame(node.team, factor, white)
        node.apply_update(UpdateMessage(1, 0, "single", white, factor))
        np.testing.assert_array_equal(node.team.mean, expected.mean)
        np.testing.assert_array_equal(node.team.cov, expected.cov)

    def test_summed_payload_equals_sequential_application(self):
        rng = np.random.default_rng(74)
        node_summed = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        node_seq = RobotNode(1, node_summed.team.mean, node_summed.team.cov)
        parts = [
            (rng.standard_normal((3, 2)) * 0.05, rng.standard_normal(2))
            for _ in range(2)
        ]
        vec = sum(f @ w for f, w in parts)
        mat = sum(f @ f.T for f, _ in parts)
        node_summed.apply_update(UpdateMessage(1, 0, "summed", vec, mat))
        for f, w in parts:
            node_seq.apply_update(UpdateMessage(1, 0, "single", w, f))
        np.testing.assert_allclose(node_summed.team.mean, node_seq.team.mean, atol=1e-12)
        np.testing.assert_allclose(node_summed.team.cov, node_seq.team.cov, atol=1e-12)

    @pytest.mark.parametrize("kind, residual, gain", [
        ("single", np.ones(2), np.ones((3, 2))),
        ("summed", np.ones(3), np.eye(3) * 2.0),
        # Every entry finite, but D D' overflows the float range.
        ("single", np.ones(2), np.full((3, 2), 1e200)),
    ], ids=["single", "summed", "single-overflow"])
    def test_indefinite_correction_raises_and_keeps_state(self, kind, residual, gain):
        # Each frame removes far more than the robot's 0.1 * I.
        node = RobotNode(1, np.array([0.5, -0.5, 0.1]), np.eye(3) * 0.1)
        msg = UpdateMessage(1, 0, kind, residual, gain)
        before = copy.deepcopy(node.team)
        with pytest.raises(NumericalError, match="covariance indefinite"):
            node.apply_update(msg)
        for name in ("mean", "cov", "jac_accum"):
            np.testing.assert_array_equal(getattr(node.team, name), getattr(before, name))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind, payload", [
        ("single", "residual_payload"), ("single", "gain_payload"),
        ("summed", "residual_payload"), ("summed", "gain_payload"),
    ])
    def test_non_finite_payload_raises_and_keeps_state(self, kind, payload, value):
        # A decoded frame is outside input: a non-finite entry anywhere on
        # the wire must be refused, not crash the robot or slip in. A summed
        # gain is sent as its upper triangle: a value placed only in its
        # lower triangle does not reach the robot, which decodes the upper
        # triangle mirrored.
        rng = np.random.default_rng(75)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        node.step(rng.uniform(-1, 1, (3, 2)), np.full((3, 2), 0.01), 0.1)
        if kind == "single":
            sound = {"residual_payload": np.ones(2), "gain_payload": np.full((3, 2), 0.01)}
        else:
            sound = {"residual_payload": np.ones(3), "gain_payload": np.eye(3) * 1e-3}
        saved = copy.deepcopy(node.team)
        for pos in np.ndindex(sound[payload].shape):
            payloads = {k: v.copy() for k, v in sound.items()}
            payloads[payload][pos] = value
            decoded = UpdateMessage.decode(UpdateMessage(1, node.time, kind, **payloads).encode())
            if kind == "summed" and payload == "gain_payload" and pos[0] > pos[1]:
                assert decoded.gain_payload == tuple(sound["gain_payload"].ravel().tolist())
                continue
            with pytest.raises(NumericalError, match="robot 1"):
                node.apply_update(decoded)
            for name in ("mean", "cov", "jac_accum"):
                np.testing.assert_array_equal(getattr(node.team, name), getattr(saved, name))
        assert node.apply_update(UpdateMessage(1, node.time, kind, **sound))

    @pytest.mark.parametrize("kind", ["single", "summed"])
    def test_correction_over_a_team_row_writes_that_row_only(self, kind):
        # The in-place epoch corrects a robot through a node over its lane
        # (split_steps): lane 1 of a two-lane stack of robots 2, 5 and 7.
        # The frame must land in robot 5's row of that lane, bit for bit
        # what a node over a copy of the lane computes, and leave every
        # other row of the stack as it was.
        rng = np.random.default_rng(93)
        ids = (2, 5, 7)
        mean = rng.uniform(-1, 1, (6, 3))
        cov = np.tile(np.eye(3) * 0.1, (6, 1, 1))
        accs = rng.uniform(-2, 2, (6, 2))
        lane = split_ekf.SplitTeamState(
            ids, {rid: a for a, rid in enumerate(ids)}, mean[3:], cov[3:], accs[3:], 4
        )
        if kind == "single":
            msg = UpdateMessage(5, 4, kind, rng.standard_normal(2), np.full((3, 2), 0.05))
        else:
            msg = UpdateMessage(5, 4, kind, rng.standard_normal(3), np.eye(3) * 0.01)
        node = RobotNode.over(lane, 5)
        # The node is a view: it holds the lane itself, no row of its own.
        assert node.team is lane and node.robot == 5 and node.time == 4
        alone = RobotNode.over(copy.deepcopy(lane), 5)
        before = mean.copy(), cov.copy(), accs.copy()

        assert node.apply_update(msg)
        assert alone.apply_update(msg)
        row = 3 + lane.index[5]
        np.testing.assert_array_equal(mean[row], alone.team.mean[lane.index[5]])
        np.testing.assert_array_equal(cov[row], alone.team.cov[lane.index[5]])
        assert not np.array_equal(mean[row], before[0][row])
        others = np.arange(6) != row
        np.testing.assert_array_equal(mean[others], before[0][others])
        np.testing.assert_array_equal(cov[others], before[1][others])
        np.testing.assert_array_equal(accs, before[2])

    def test_step_over_a_team_row_leaves_the_team_as_it_is(self):
        # A node over a row steps that row alone, as a team of one, and
        # then holds its own team of one; the team it was over keeps its
        # rows and time.
        rng = np.random.default_rng(94)
        ids = (2, 5, 7)
        team = split_ekf.SplitTeamState.initialize(ids, rng.uniform(-1, 1, (3, 3)), np.eye(3) * 0.1)
        team.jac_accum[:] = rng.uniform(-2, 2, (3, 2))
        saved = copy.deepcopy(team)
        controls, q = rng.uniform(-1, 1, (4, 2)), np.full((4, 2), 0.01)
        node = RobotNode.over(team, 5)
        block = node.step(controls, q, 0.1)
        row = split_ekf.SplitTeamState((5,), {5: 0}, *(
            getattr(saved, name)[1:2].copy() for name in ("mean", "cov", "jac_accum")
        ))
        (means, covs, accs), end = split_ekf.propagate_team(row, controls[None], q[None], 0.1)
        for got, want in zip(block, (means[0], covs[:, 0], accs[0]), strict=True):
            np.testing.assert_array_equal(got, want)
        assert node.team.team == (5,) and node.time == 4
        for name in ("mean", "cov", "jac_accum"):
            np.testing.assert_array_equal(getattr(node.team, name), getattr(end, name))
            np.testing.assert_array_equal(getattr(team, name), getattr(saved, name))
        assert team.time == 0

    def test_storage_is_constant_in_team_size(self):
        node = RobotNode(1, np.zeros(3), np.eye(3))
        assert node.__slots__ == ("robot", "team")
        assert node.robot == 1 and node.team.team == (1,)
        assert node.team.mean.shape == (1, 3)
        assert node.team.cov.shape == (1, 3, 3)
        assert node.team.jac_accum.shape == (1, 2)


class TestServerSingleMeasurement:
    def test_no_measurements_no_messages_store_untouched(self):
        rng = np.random.default_rng(75)
        ids, nodes, server, _ = build_stack(rng, 3)
        before = server.store.blocks.copy()
        updates = server.handle_epoch([nodes[1].landmark_message()], nodes[1].time)
        assert updates == {}
        np.testing.assert_array_equal(server.store.blocks, before)

    def test_a_measurement_that_moves_no_robot_sends_no_frame(self):
        # With zero covariances every update factor is exactly zero: the
        # measurement is processed and leaves no recipient.
        nodes = {i: RobotNode(i, np.array([i, 2.0, 0.0]), np.zeros((3, 3))) for i in (1, 2)}
        server = CooperationServer((1, 2), np.eye(2) * 0.01)
        before = server.store.blocks.copy()
        msgs = [nodes[1].landmark_message(z=np.array([1.0, 2.0]), landmark=2),
                nodes[2].landmark_message()]
        assert server.handle_epoch(msgs, nodes[1].time) == {}
        np.testing.assert_array_equal(server.store.blocks, before)
        assert server.events == []

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
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(3, 4, z, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    def test_uncorrelated_team_only_the_pair_moves(self):
        rng = np.random.default_rng(86)
        ids, nodes, server, belief = build_stack(rng, 3)
        t = nodes[1].time
        z = rng.uniform(-1, 1, 2)
        msgs = [nodes[2].landmark_message(z=z, landmark=3), nodes[3].landmark_message()]
        before = {i: copy.deepcopy(nodes[i].team) for i in ids}
        updates = server.handle_epoch(msgs, t)
        assert set(updates) == {2, 3}
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        for i in (2, 3):
            assert not np.array_equal(nodes[i].team.mean, before[i].mean)
        np.testing.assert_array_equal(nodes[1].team.mean, before[1].mean)
        np.testing.assert_array_equal(nodes[1].team.cov, before[1].cov)
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(2, 3, z, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    def test_correlation_spreads_the_benefit_to_a_third_robot(self):
        # After a measurement correlates robots 1 and 2, measuring robot 1
        # against robot 3 moves robot 2 as well.
        rng = np.random.default_rng(87)
        ids, nodes, server, belief = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        before2 = nodes[2].team.mean.copy()
        z = rng.uniform(-1, 1, 2)
        msgs = [nodes[1].landmark_message(z=z, landmark=3), nodes[3].landmark_message()]
        updates = server.handle_epoch(msgs, t)
        assert set(updates) == {1, 2, 3}
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        assert not np.array_equal(nodes[2].team.mean, before2)
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(1, 3, z, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    @pytest.mark.parametrize(
        "pairs", [[(1, 2)], [(2, 1)], [(1, 2), (3, 4)]], ids=["relative", "reversed", "summed"]
    )
    def test_scratch_rows_are_the_senders_own_corrections(self, monkeypatch, pairs):
        # The server corrects its shadow of each sender, one stacked row per
        # sender, with the kernel call the sender makes on a single frame:
        # after each measurement of the epoch, every row is bit for bit
        # what its sender computes from that measurement's single frame.
        # A single-measurement epoch sends that frame; a two-measurement
        # epoch sends the summed pair, which agrees to rounding.
        rng = np.random.default_rng(89)
        ids, nodes, server, _ = build_stack(rng, 4, warmup_pairs=[(1, 2), (2, 3)])
        t = nodes[1].time
        msgs = []
        for a, b in pairs:
            msgs.append(nodes[a].landmark_message(z=rng.uniform(-1, 1, 2), landmark=b))
            msgs.append(nodes[b].landmark_message())
        shadows = []
        original = split_ekf.correct_row

        def recording(robot, mean, cov, jac_accum, residual, gain):
            out = original(robot, mean, cov, jac_accum, residual, gain)
            shadows.append((robot, residual, gain, out))
            return out

        monkeypatch.setattr(split_ekf, "correct_row", recording)
        updates = server.handle_epoch(msgs, t)
        monkeypatch.undo()
        assert server.events == []
        senders = tuple(m.sender for m in msgs)
        # Each measurement corrects every shadow, in the senders' order.
        assert len(shadows) == len(pairs) * len(senders)
        assert set(senders) <= set(updates)
        for row, i in enumerate(senders):
            alone = RobotNode.over(copy.deepcopy(nodes[i].team), i)
            for robot, residual, gain, (mean, cov, _) in shadows[row::len(senders)]:
                assert robot == i and len(residual) == 2 and len(gain) == 6
                frame = UpdateMessage(i, t, "single", np.array(residual), np.reshape(gain, (3, 2)))
                assert alone.apply_update(frame)
                np.testing.assert_array_equal(alone.team.mean[0], mean)
                np.testing.assert_array_equal(alone.team.cov[0], np.reshape(cov, (3, 3)))
            assert nodes[i].apply_update(updates[i])
            if len(pairs) == 1:
                assert updates[i].kind == "single"
                np.testing.assert_array_equal(nodes[i].team.mean, alone.team.mean)
                np.testing.assert_array_equal(nodes[i].team.cov, alone.team.cov)
            else:
                assert updates[i].kind == "summed"
                np.testing.assert_allclose(nodes[i].team.mean, alone.team.mean, atol=1e-14)
                np.testing.assert_allclose(nodes[i].team.cov, alone.team.cov, atol=1e-14)

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

    def test_robot_outside_the_team_refused_before_any_block_changes(self):
        # A frame from robot 7, or one naming landmark 99, in a team of
        # three: no robot of the team was lost, so neither is "unreachable".
        # The server refuses the epoch before the valid (2, 3) changes a block.
        rng = np.random.default_rng(95)
        ids, nodes, server, _ = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        valid = [nodes[2].landmark_message(z=np.zeros(2), landmark=3), nodes[3].landmark_message()]
        outside = LandmarkMessage(7, t, np.zeros(3), np.eye(3), np.zeros(2))
        before = server.store.blocks.copy()
        for msg, error in (
            (outside, "unknown robot 7"),
            (nodes[1].landmark_message(z=np.zeros(2), landmark=99),
             "robot 1 names unknown landmark 99"),
        ):
            with pytest.raises(ProtocolError, match=f"^{error}$"):
                server.handle_epoch([*valid, msg], t)
            np.testing.assert_array_equal(server.store.blocks, before)
            assert server.events == []

    def test_missing_landmark_message_discarded_with_event(self):
        rng = np.random.default_rng(79)
        ids, nodes, server, _ = build_stack(rng, 3)
        t = nodes[1].time
        msgs = [nodes[1].landmark_message(z=np.zeros(2), landmark=3)]
        assert server.handle_epoch(msgs, t) == {}
        assert server.events[-1].code == EVENT_PAIR_UNREACHABLE

    def test_sick_innovation_skipped_with_event(self):
        rng = np.random.default_rng(80)
        ids, nodes, _, _ = build_stack(rng, 2)
        server = CooperationServer(ids, np.eye(2) * 1e-12)
        t = nodes[1].time
        msg_a = nodes[1].landmark_message(z=np.zeros(2), landmark=2)
        msg_b = nodes[2].landmark_message()
        object.__setattr__(msg_a, "cov", -np.eye(3))
        object.__setattr__(msg_b, "cov", -np.eye(3))
        updates = server.handle_epoch([msg_a, msg_b], t)
        assert updates == {}
        assert server.events[-1].code == EVENT_NUMERIC_S

    def test_overflowing_frame_skipped_with_event(self):
        # Every entry of the frames is finite, but H P H' overflows the float
        # range: the innovation check refuses it and no store block changes.
        rng = np.random.default_rng(81)
        ids, nodes, server, _ = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        state_a, state_b = nodes[1].landmark_message(), nodes[2].landmark_message()
        msg_a = LandmarkMessage(
            1, t, state_a.mean, np.full((3, 3), 1e300), state_a.jac_accum, 2, np.zeros(2)
        )
        msg_b = LandmarkMessage(2, t, np.array([1e5, 1e5, 0.0]), state_b.cov, state_b.jac_accum)
        before = server.store.blocks.copy()
        assert before.any()
        msgs = [LandmarkMessage.decode(m.encode()) for m in (msg_a, msg_b)]
        assert server.handle_epoch(msgs, t) == {}
        assert server.events[-1].code == EVENT_NUMERIC_S
        np.testing.assert_array_equal(server.store.blocks, before)

    @pytest.mark.parametrize("cov_scale, noise_scale", [
        (0.0, 0.0),          # S = 0: its root would divide by zero
        (1e-310, 0.0),       # subnormal S: its determinant underflows to zero
        (1e300, 0.02),       # diagonal of 1e300: its determinant overflows
    ], ids=["zero", "subnormal", "huge"])
    def test_innovation_without_a_usable_root_skipped_with_event(self, cov_scale, noise_scale):
        # Two frames at t = 5 whose innovation covariance passes the
        # relative eigenvalue rule but has no usable square root: the
        # server logs NUMERIC_S and returns no frame, and the store keeps
        # every block.
        server = CooperationServer((1, 2), np.eye(2) * noise_scale)
        cov = np.eye(3) * cov_scale
        msgs = [
            LandmarkMessage(1, 5, np.array([0.0, 0.0, 0.3]), cov, np.zeros(2), 2, np.ones(2)),
            LandmarkMessage(2, 5, np.array([1.0, 0.5, -0.2]), cov, np.zeros(2)),
        ]
        before = server.store.blocks.copy()
        with np.errstate(all="raise"):
            assert server.handle_epoch(msgs, 5) == {}
        assert [e.code for e in server.events] == [EVENT_NUMERIC_S]
        assert "not positive definite" in server.events[0].detail
        np.testing.assert_array_equal(server.store.blocks, before)

    def test_frame_whose_factors_overflow_skipped_with_event(self):
        # The landmark's finite frame has a position-heading covariance of
        # 1e200, which its measurement does not see: S is sound, but the
        # landmark's update factor is about 1e200 and D D' overflows numpy's
        # products. The checks refuse the result, without a warning.
        rng = np.random.default_rng(90)
        ids, nodes, server, _ = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        state = nodes[2].landmark_message()
        cov = np.reshape(state.cov, (3, 3)).copy()
        cov[0, 2] = cov[2, 0] = 1e200
        msgs = [
            nodes[1].landmark_message(z=np.zeros(2), landmark=2),
            LandmarkMessage(2, t, state.mean, cov, state.jac_accum),
        ]
        before = server.store.blocks.copy()
        assert server.handle_epoch([LandmarkMessage.decode(m.encode()) for m in msgs], t) == {}
        assert server.events[-1].code == EVENT_NUMERIC_S
        assert "robot 2" in server.events[-1].detail
        np.testing.assert_array_equal(server.store.blocks, before)

    @pytest.mark.parametrize("heading", [np.inf, -np.inf, np.nan])
    def test_non_finite_observer_heading_skipped_with_event(self, heading):
        # A decoded frame is outside input: a heading with no cosine makes
        # the innovation's arithmetic fail, which is a NUMERIC_S event, not
        # an exception out of the server.
        rng = np.random.default_rng(89)
        ids, nodes, server, _ = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        state = nodes[1].landmark_message()
        mean = np.array(state.mean)
        mean[2] = heading
        msgs = [
            LandmarkMessage(1, t, mean, state.cov, state.jac_accum, 2, np.zeros(2)),
            nodes[2].landmark_message(),
        ]
        before = server.store.blocks.copy()
        assert server.handle_epoch([LandmarkMessage.decode(m.encode()) for m in msgs], t) == {}
        assert server.events[-1].code == EVENT_NUMERIC_S
        np.testing.assert_array_equal(server.store.blocks, before)

    def test_self_measurement_frame_never_reaches_the_server(self):
        # Decoding refuses the frame, so the server's store and event log
        # are never touched, and the failure is a ProtocolError rather
        # than the store's KeyError.
        rng = np.random.default_rng(87)
        ids, nodes, server, _ = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        raw = bytearray(nodes[1].landmark_message(z=np.zeros(2), landmark=2).encode())
        raw[13:17] = struct.pack("<I", 1)
        before = server.store.blocks.copy()
        with pytest.raises(ProtocolError, match="robot 1 cannot measure itself"):
            server.handle_epoch([LandmarkMessage.decode(bytes(raw))], nodes[1].time)
        np.testing.assert_array_equal(server.store.blocks, before)
        assert server.events == []

    def test_robot_zero_cannot_be_announced_as_a_landmark(self):
        # On the wire, landmark 0 means the frame names no landmark.
        rng = np.random.default_rng(88)
        node = RobotNode(1, rng.uniform(-1, 1, 3), np.eye(3) * 0.1)
        server = CooperationServer((0, 1), NOISE)
        with pytest.raises(ProtocolError, match="robot 0 cannot be a landmark"):
            server.handle_epoch([node.landmark_message(z=np.zeros(2), landmark=0)], 0)
        assert server.events == []

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


class TestServerNoiseCovariance:
    @pytest.mark.parametrize("noise", [
        [[0.01, 0.005], [0.0, 0.01]],
        np.eye(3) * 0.01,
        [0.01, 0.01],
        [[0.01, 0.0], [0.0, -0.01]],
        [[0.01, 0.02], [0.02, 0.01]],
        [[np.nan, 0.0], [0.0, 0.01]],
        [[np.inf, 0.0], [0.0, 0.01]],
    ], ids=["asymmetric", "3x3", "vector", "negative-variance", "indefinite", "nan", "inf"])
    def test_malformed_noise_refused_at_construction(self, noise):
        with pytest.raises(ValueError, match="measurement noise covariance"):
            CooperationServer((1, 2), noise)

    @pytest.mark.parametrize("noise", [
        np.zeros((2, 2)),
        [[0.01, 0.01], [0.01, 0.01]],
        [[0.01, -0.004], [-0.004, 0.02]],
    ], ids=["zero", "singular", "correlated"])
    def test_sound_noise_kept_as_its_upper_triangle(self, noise):
        server = CooperationServer((1, 2), noise)
        assert server.meas_noise == upper_2x2(np.asarray(noise, dtype=float))
        assert all(type(x) is float for x in server.meas_noise)


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
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(1, 2, z12, t), NOISE)
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(3, 4, z34, t), NOISE)
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
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(1, 2, z12, t), NOISE)
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(2, 3, z23, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    def test_two_observers_of_one_landmark_match_sequential_joint_filter(self):
        # Robot 3 is the landmark of both measurements and sends one frame.
        rng = np.random.default_rng(85)
        ids, nodes, server, belief = build_stack(rng, 3, warmup_pairs=[(1, 2)])
        t = nodes[1].time
        z13 = rng.uniform(-1, 1, 2)
        z23 = rng.uniform(-1, 1, 2)
        msgs = [
            nodes[2].landmark_message(z=z23, landmark=3),
            nodes[3].landmark_message(),
            nodes[1].landmark_message(z=z13, landmark=3),
        ]
        updates = server.handle_epoch(msgs, t)
        assert set(updates) == set(ids)
        assert all(m.kind == "summed" for m in updates.values())
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(1, 3, z13, t), NOISE)
        belief, _ = joint_ekf.partial_update(belief, model.RelativeMeasurement(2, 3, z23, t), NOISE)
        assert_matches_belief(ids, nodes, belief)

    def test_missed_robot_keeps_propagated_state_partial_oracle_agrees(self):
        rng = np.random.default_rng(84)
        ids, nodes, server, belief = build_stack(rng, 4, warmup_pairs=[(1, 2), (2, 3)])
        t = nodes[1].time
        missed = frozenset({4})
        z = rng.uniform(-1, 1, 2)
        msgs = [nodes[1].landmark_message(z=z, landmark=2), nodes[2].landmark_message()]
        before4 = copy.deepcopy(nodes[4].team)
        updates = server.handle_epoch(msgs, t, missed=missed)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        belief, _ = joint_ekf.partial_update(
            belief, model.RelativeMeasurement(1, 2, z, t), NOISE, missed
        )
        assert_matches_belief(ids, nodes, belief)
        np.testing.assert_array_equal(nodes[4].team.mean, before4.mean)
        np.testing.assert_array_equal(nodes[4].team.cov, before4.cov)

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
        assert set(updates) == {1, 2, 7, 8}
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        for a, b, z in ((1, 2, z12), (7, 8, z78)):
            belief, _ = joint_ekf.partial_update(
                belief, model.RelativeMeasurement(a, b, z, t), NOISE, missed
            )
        assert_matches_belief(ids, nodes, belief)
        recon = server.store.reconstruct(jac_accums(ids, nodes))
        np.testing.assert_allclose(cross_blocks(recon), cross_blocks(belief.cov), atol=EQUIV_TOL)

    def test_two_supports_holding_the_same_missed_pair_keep_its_block(self):
        # The warm-up correlates robots 5 and 6 with each other and with
        # both measured pairs, so both supports of the epoch hold the missed
        # pair (5, 6); robots 7 to 10 stay outside. Its block keeps its
        # factor bit for bit through both store updates.
        rng = np.random.default_rng(93)
        ids, nodes, server, belief = build_stack(
            rng, 10, warmup_pairs=[(5, 6), (1, 5), (2, 6), (3, 5), (4, 6)]
        )
        t = nodes[1].time
        missed = frozenset({5, 6})
        z12, z34 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        msgs = [
            nodes[3].landmark_message(z=z34, landmark=4), nodes[4].landmark_message(),
            nodes[1].landmark_message(z=z12, landmark=2), nodes[2].landmark_message(),
        ]
        before = server.store.factor(5, 6).copy()
        assert before.any()
        updates = server.handle_epoch(msgs, t, missed=missed)
        assert set(updates) == {1, 2, 3, 4}
        np.testing.assert_array_equal(server.store.factor(5, 6), before)
        np.testing.assert_array_equal(server.store.factor(6, 5), before.T)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        for a, b, z in ((1, 2, z12), (3, 4, z34)):
            belief, _ = joint_ekf.partial_update(
                belief, model.RelativeMeasurement(a, b, z, t), NOISE, missed
            )
        assert_matches_belief(ids, nodes, belief)
        recon = server.store.reconstruct(jac_accums(ids, nodes))
        np.testing.assert_allclose(cross_blocks(recon), cross_blocks(belief.cov), atol=EQUIV_TOL)

    def test_unknown_missed_robot_raises_before_any_block_changes(self):
        rng = np.random.default_rng(94)
        ids, nodes, server, _ = build_stack(rng, 4, warmup_pairs=[(1, 2), (2, 3)])
        t = nodes[1].time
        msgs = [nodes[1].landmark_message(z=np.zeros(2), landmark=2), nodes[2].landmark_message()]
        before = server.store.blocks.copy()
        with pytest.raises(KeyError):
            server.handle_epoch(msgs, t, missed=frozenset({3, 99}))
        np.testing.assert_array_equal(server.store.blocks, before)
        assert server.events == []

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
        recon = server.store.reconstruct(jac_accums(ids, nodes))
        np.testing.assert_allclose(cross_blocks(recon), cross_blocks(belief.cov), atol=EQUIV_TOL)

    def test_missed_robot_gets_no_frame_though_its_blocks_changed(self):
        # Robot 4 is correlated with robot 1, so measurement (1, 2) would
        # send it a frame; it missed the epoch, so the server sends none,
        # and still updates its store blocks with the delivered robots.
        rng = np.random.default_rng(85)
        ids, nodes, server, _ = build_stack(rng, 4, warmup_pairs=[(3, 4), (1, 4)])
        t = nodes[1].time
        msgs = [nodes[1].landmark_message(z=np.zeros(2), landmark=2), nodes[2].landmark_message()]
        assert 4 in copy.deepcopy(server).handle_epoch(msgs, t)
        before = server.store.factor(1, 4).copy()
        updates = server.handle_epoch(msgs, t, missed=frozenset({4}))
        assert not np.array_equal(server.store.factor(1, 4), before)
        assert set(updates) == {1, 2, 3}


class TestSparseUpdateFrames:
    """The server messages exactly the robots the centralized gain touches."""

    # Warm-up correlates (1, 2) and (3, 4); robots 5 and 6 are never measured.
    # Each epoch is a list of (observer, landmark) pairs.
    EPOCHS = {
        "single": [(2, 5)],
        "summed": [(1, 2), (2, 5)],
        "warm-pair": [(4, 3)],
        "fresh-pair": [(5, 6)],
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
            z = rng.uniform(-1, 1, 2)
            msgs += [nodes[a].landmark_message(z=z, landmark=b), nodes[b].landmark_message()]
            belief, innov = joint_ekf.partial_update(
                belief, model.RelativeMeasurement(a, b, z, t), NOISE
            )
            gained |= {i for i in ids if innov.gains[belief.index[i]].any()}
        before = {i: copy.deepcopy(nodes[i].team) for i in ids}

        updates = server.handle_epoch(msgs, t)
        assert set(updates) == gained
        assert 0 < len(gained) < len(ids)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)
        assert_matches_belief(ids, nodes, belief)
        # Without a message neither side moves that robot, bit for bit.
        for i in set(ids) - gained:
            np.testing.assert_array_equal(nodes[i].team.mean, before[i].mean)
            np.testing.assert_array_equal(nodes[i].team.cov, before[i].cov)
            np.testing.assert_array_equal(
                belief.mean[belief.index[i]], before_belief.mean[belief.index[i]]
            )
            np.testing.assert_array_equal(belief.block(i, i), before_belief.block(i, i))


class TestServerScratchGate:
    def test_indefinite_scratch_row_skips_the_measurement_whole(self):
        # A planted factor C_12 = c n v' with H_1 A_1 n = 0 leaves the
        # innovation of (1, 2) as it was, but robot 1's update factor, and
        # with it the drop of its covariance, grows with c. The server must
        # skip (1, 2) whole and still process the sound (3, 4).
        rng = np.random.default_rng(92)
        ids, nodes, server, _ = build_stack(rng, 4)
        t = nodes[1].time
        rows = stack_rows([nodes[1].team, nodes[2].team])
        h1 = np.array(model.relative_terms(*rows.mean[0], *rows.mean[1, :2])[1])
        null = np.linalg.svd(h1 @ split_ekf.shear(rows.jac_accum[0]))[2][-1]
        planted = 1e3 * np.outer(null, [1.0, -1.0, 1.0])
        server.store.blocks[0, :, 1, :] = planted
        server.store.blocks[1, :, 0, :] = planted.T
        z12, z34 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        # The innovation alone passes its check.
        split_ekf.innovation(
            float_rows(rows), 1, 2, server.store.factor(1, 2), z12, upper_2x2(NOISE)
        )

        sound = CooperationServer(ids, NOISE)
        sound.store = server.store.copy()
        msgs = [
            nodes[1].landmark_message(z=z12, landmark=2), nodes[2].landmark_message(),
            nodes[3].landmark_message(z=z34, landmark=4), nodes[4].landmark_message(),
        ]
        updates = server.handle_epoch(msgs, t)
        expected = sound.handle_epoch(msgs[2:], t)

        # No frame and no store change from (1, 2): exactly what (3, 4)
        # alone gives, and the planted blocks bit for bit.
        assert set(updates) == set(expected) == {3, 4}
        for i, msg in updates.items():
            assert msg.kind == expected[i].kind == "single"
            np.testing.assert_array_equal(msg.residual_payload, expected[i].residual_payload)
            np.testing.assert_array_equal(msg.gain_payload, expected[i].gain_payload)
        np.testing.assert_array_equal(server.store.blocks, sound.store.blocks)
        np.testing.assert_array_equal(server.store.factor(1, 2), planted)
        assert [e.as_line() for e in server.events] == [
            f"t={t} {EVENT_NUMERIC_S} observer=1 landmark=2 "
            "reason=update drove robot 1 covariance indefinite"
        ]
        assert sound.events == []


@st.composite
def server_epochs(draw):
    """A team size, warm-up pairs, one epoch's measurements and its missed set.

    Measurements are distinct ``(observer, landmark)`` pairs, drawn from a
    few robots so that they share robots. Missed robots are drawn from the whole team, so some
    measurements lose an endpoint and are discarded.
    """
    n = draw(st.integers(2, 6))
    robot = st.integers(1, n)
    pair = st.tuples(robot, robot).filter(lambda p: p[0] != p[1])
    warmup = draw(st.lists(pair, max_size=2, unique=True))
    measurements = draw(st.lists(pair, min_size=1, max_size=4, unique=True))
    missed = frozenset(draw(st.sets(robot, max_size=n - 1)))
    return n, warmup, measurements, missed, draw(st.integers(0, 2**32 - 1))


class TestServerEpochProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(server_epochs())
    def test_epoch_equals_sequential_partial_updates(self, case):
        # The frames the robots apply, with the server linearizing each
        # measurement at its scratch rows as corrected by the earlier ones,
        # equal the centralized partial-update filter applying the same
        # measurements one after another in the server's order.
        n, warmup, measurements, missed, seed = case
        rng = np.random.default_rng(seed)
        ids, nodes, server, belief = build_stack(rng, n, warmup_steps=6, warmup_pairs=warmup)
        t = nodes[1].time
        zs = {}
        msgs = []
        for a, b in measurements:
            zs[a, b] = rng.uniform(-1, 1, 2)
            msgs.append(nodes[a].landmark_message(z=zs[a, b], landmark=b))
        observers = {a for a, _ in measurements}
        landmarks = {b for _, b in measurements}
        msgs += [nodes[i].landmark_message() for i in sorted(landmarks - observers)]

        updates = server.handle_epoch(msgs, t, missed=missed)
        for i, msg in updates.items():
            nodes[i].apply_update(msg)

        # The server's order: ascending (observer, landmark).
        applied = 0
        for a, b in sorted(measurements):
            if a in missed or b in missed:
                continue
            applied += 1
            belief, _ = joint_ekf.partial_update(
                belief, model.RelativeMeasurement(a, b, zs[a, b], t), NOISE, missed
            )
        assert bool(updates) == (applied > 0)
        assert {m.kind for m in updates.values()} <= {"single" if applied == 1 else "summed"}
        assert_matches_belief(ids, nodes, belief, tol=1e-10)
        recon = server.store.reconstruct(jac_accums(ids, nodes))
        np.testing.assert_allclose(cross_blocks(recon), cross_blocks(belief.cov), atol=1e-10)
