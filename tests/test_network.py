"""The lossy channel is a pure function of the scenario, the team's poses,
the seed and the step."""

import numpy as np
import pytest

from splitcl.network import channel_epoch
from splitcl.scenario import DropoutWindowSpec, Scenario, ScenarioError


def team(n=40, bernoulli_p=0.4, windows=(DropoutWindowSpec(3, 0.5, 2.0),),
         zones=((-1.0, -1.0, 1.0, 1.0),)) -> Scenario:
    """``n`` robots; with dt 0.1 s robot 3's window covers steps 6..20."""
    return Scenario(
        n_robots=n,
        duration_s=60.0,
        v_noise_frac=(0.2,) * n,
        w_noise_frac=(0.2,) * n,
        dropout_windows=windows,
        bernoulli_p=bernoulli_p,
        zones=zones,
    )


def team_positions(n=40):
    positions = np.array([[2.0 * i, 5.0, 0.0] for i in range(1, n + 1)])
    positions[6] = (0.5, -0.5, 1.0)  # robot 7, inside the dropout zone
    return positions


def test_same_seed_gives_the_same_report():
    sc, positions = team(), team_positions()
    report = channel_epoch(sc, positions, 10, (5, 4))
    assert channel_epoch(sc, positions, 10, (5, 4)) == report
    assert channel_epoch(sc, positions, 10, [5, 4]) == report
    assert channel_epoch(sc, positions, 10, 9) == channel_epoch(sc, positions, 10, (9,))
    assert report.delivered | report.missed == set(sc.robot_ids)
    assert {3, 7} <= report.missed
    # The Bernoulli draws really depend on the seed and the step.
    assert channel_epoch(sc, positions, 10, (6, 4)).missed != report.missed
    assert channel_epoch(sc, positions, 11, (5, 4)).missed != report.missed


def test_a_numpy_integer_seed_is_the_int_seed():
    sc, positions = team(), team_positions()
    report = channel_epoch(sc, positions, 10, 3)
    assert channel_epoch(sc, positions, 10, np.int64(3)) == report
    assert channel_epoch(sc, positions, 10, (3,)) == report


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    ((5, 1.5), "seed must be an integer, got 1.5"),
    (-1, "seed must be non-negative, got -1"),
    ([5, -1], "seed must be non-negative, got -1"),
], ids=["bool", "float", "float-entry", "negative", "negative-entry"])
def test_a_bad_seed_is_refused_in_the_scenarios_wording(seed, message):
    # The channel reads its seed as the run does (scenario.check_seed_key),
    # drawn from or not.
    for sc in (team(), team(bernoulli_p=0.0)):
        with pytest.raises(ScenarioError, match=rf"^{message}$"):
            channel_epoch(sc, team_positions(), 10, seed)


def test_windows_cover_their_steps_and_zones_their_edges():
    sc = team(bernoulli_p=0.0, zones=((-1.0, -1.0, 1.0, 1.0), (3.0, 5.0, 4.0, 6.0)))
    positions = team_positions()
    positions[9] = (-1.0, 1.0, 0.0)  # robot 10, on a corner of the first zone
    for t, expected in [(5, set()), (6, {3}), (20, {3}), (21, set())]:
        report = channel_epoch(sc, positions, t, 1)
        # Robot 2, at (4, 5), sits on a corner of the second zone.
        assert report.missed == expected | {2, 7, 10}, t


def test_a_robot_outcome_does_not_depend_on_the_rest_of_the_team():
    report = channel_epoch(team(), team_positions(), 10, (5, 4))
    sub = channel_epoch(team(20), team_positions(20), 10, (5, 4))
    assert sub.missed == report.missed & set(range(1, 21))


def test_robot_r_gets_the_r_th_uniform_of_the_step_stream():
    sc, positions = team(windows=(), zones=()), team_positions()
    draws = np.random.default_rng([5, 4, 10]).random(sc.n_robots + 1)
    expected = {r for r in sc.robot_ids if draws[r] < sc.bernoulli_p}
    assert channel_epoch(sc, positions, 10, (5, 4)).missed == expected


def test_loss_draws_have_the_configured_rate_and_are_independent_per_robot():
    sc, positions = team(windows=(), zones=()), team_positions()
    counts = np.array([
        len(channel_epoch(sc, positions, t, (2, 4)).missed) for t in range(1, 501)
    ])
    assert abs(counts.sum() / (sc.n_robots * len(counts)) - 0.4) <= 0.03
    # One draw shared by the whole team would miss all robots or none.
    assert ((counts > 0) & (counts < sc.n_robots)).all()
