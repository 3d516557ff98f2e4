"""The lossy channel is a pure function of its seed, step and robot ids."""

import numpy as np

from splitcl.network import DropoutSchedule, DropoutWindow, DropoutZone, channel_epoch

SCHEDULE = DropoutSchedule(
    windows=(DropoutWindow(robot=3, start_step=5, end_step=20),),
    bernoulli_p=0.4,
    zones=(DropoutZone(-1.0, -1.0, 1.0, 1.0),),
)


def team_poses(n=40):
    poses = {i: np.array([2.0 * i, 5.0, 0.0]) for i in range(1, n + 1)}
    poses[7] = np.array([0.5, -0.5, 1.0])  # inside the dropout zone
    return poses


def test_same_seed_gives_the_same_report():
    poses = team_poses()
    report = channel_epoch(SCHEDULE, poses, 10, (5, 4))
    assert channel_epoch(SCHEDULE, poses, 10, (5, 4)) == report
    assert channel_epoch(SCHEDULE, poses, 10, [5, 4]) == report
    assert channel_epoch(SCHEDULE, poses, 10, 9) == channel_epoch(SCHEDULE, poses, 10, (9,))
    assert report.delivered | report.missed == set(poses)
    assert {3, 7} <= report.missed
    # The Bernoulli draws really depend on the seed and the step.
    assert channel_epoch(SCHEDULE, poses, 10, (6, 4)).missed != report.missed
    assert channel_epoch(SCHEDULE, poses, 11, (5, 4)).missed != report.missed


def test_report_does_not_depend_on_the_order_of_the_poses():
    poses = team_poses()
    report = channel_epoch(SCHEDULE, poses, 10, (5, 4))
    reordered = dict(reversed(list(poses.items())))
    assert channel_epoch(SCHEDULE, reordered, 10, (5, 4)) == report
    shuffled_ids = np.random.default_rng(0).permutation(list(poses))
    shuffled = {int(i): poses[int(i)] for i in shuffled_ids}
    assert channel_epoch(SCHEDULE, shuffled, 10, (5, 4)) == report


def test_a_robot_outcome_does_not_depend_on_the_rest_of_the_team():
    poses = team_poses()
    report = channel_epoch(SCHEDULE, poses, 10, (5, 4))
    half = {i: p for i, p in poses.items() if i % 2}
    sub = channel_epoch(SCHEDULE, half, 10, (5, 4))
    assert sub.missed == report.missed & set(half)


def test_loss_draws_have_the_configured_rate_and_are_independent_per_robot():
    schedule = DropoutSchedule(bernoulli_p=0.4)
    poses = team_poses()
    counts = np.array([
        len(channel_epoch(schedule, poses, t, (2, 4)).missed) for t in range(1, 501)
    ])
    assert abs(counts.sum() / (len(poses) * len(counts)) - 0.4) <= 0.03
    # One draw shared by the whole team would miss all robots or none.
    assert ((counts > 0) & (counts < len(poses))).all()
