"""The side-by-side check localizes a planted error to its step and robot.

A 1e-6 error is planted for one step only, into one server store block,
into one robot's own covariance, or into the joint belief's position or
own covariance of one robot; the report must name that step and robot and
fail the 1e-8 gate, while every other deviation stays at rounding level.
Planted into a robot stepped alone, it must fail the lone-step check, and
planted into a robot that missed an epoch, the missed-update check.
An indefinite joint covariance planted between epochs must fail it too.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from splitcl import harness, split_ekf, verify
from splitcl.linalg import NumericalError
from splitcl.protocol import RobotNode
from splitcl.scenario import (
    Scenario,
    ScenarioError,
    build_table1_scenario,
    measurement_schedule,
    random_scenario,
    strip_dropouts,
)
from splitcl.split_ekf import CrossFactorStore
from splitcl.verify import check_dropout_equivalence, check_exact_equivalence

PLANT = 1e-6
TOL = 1e-8
CORNER = np.zeros((3, 3))
CORNER[0, 0] = 1.0


@pytest.fixture(scope="module")
def table1():
    return strip_dropouts(build_table1_scenario())


def test_store_block_error_is_named_by_step_and_robot(table1, monkeypatch):
    # Step 200 precedes the first measurement (step 460), so the joint cross
    # block and the store block are exactly zero there and the planted error
    # is the whole deviation. A cross block is reported for its lower id.
    step, (i, j) = 200, (3, 4)
    assert step < min(measurement_schedule(table1))
    original = CrossFactorStore.reconstruct
    calls = itertools.count(1)

    def reconstruct_with_error(self, accs):
        # verify reconstructs once per step, so call k is step k.
        if next(calls) != step:
            return original(self, accs)
        saved = self.blocks.copy()
        self.factor(i, j)[:] += PLANT * CORNER
        self.factor(j, i)[:] += PLANT * CORNER.T
        try:
            return original(self, accs)
        finally:
            self.blocks[:] = saved

    monkeypatch.setattr(CrossFactorStore, "reconstruct", reconstruct_with_error)
    report = check_exact_equivalence(table1)
    assert report.max_cross_diff >= PLANT
    assert (report.worst_time, report.worst_robot) == (step, i)
    assert max(report.max_position_diff, report.max_heading_diff, report.max_cov_diff) < 1e-12
    assert not report.passed(TOL)


def test_robot_covariance_error_is_named_by_step_and_robot(table1, monkeypatch):
    # A step between measurement epochs, after the team is correlated.
    step, robot = 1500, 4
    assert step not in measurement_schedule(table1) and step > min(measurement_schedule(table1))
    original = split_ekf.propagate_team

    def propagate_with_error(team, controls, noise_diags, dt):
        (means, covs, accs), end = original(team, controls, noise_diags, dt)
        j = step - team.time - 1
        # A robot stepped alone by the lone-step check passes through.
        if len(team.team) > 1 and 0 <= j < len(covs):
            # Only that step is off: the next segment starts from the last.
            assert j < len(covs) - 1
            covs[j, team.index[robot]] += PLANT * CORNER
        return (means, covs, accs), end

    monkeypatch.setattr(split_ekf, "propagate_team", propagate_with_error)
    report = check_exact_equivalence(table1)
    # Equal to the plant up to the rounding-level agreement it lands on.
    assert report.max_cov_diff == pytest.approx(PLANT, rel=1e-6)
    assert (report.worst_time, report.worst_robot) == (step, robot)
    assert max(report.max_position_diff, report.max_heading_diff, report.max_cross_diff) < 1e-12
    assert not report.passed(TOL)


def plant_in_lone_steps(monkeypatch, step, field):
    """Every lone robot's block comes back ``PLANT`` off in ``field`` at ``step``."""
    original = RobotNode.step

    def step_with_error(self, controls, noise_diags, dt):
        k0 = self.time
        block = original(self, controls, noise_diags, dt)
        if k0 < step <= self.time:
            block[("mean", "cov", "jac_accum").index(field)][step - k0 - 1] += PLANT
        return block

    monkeypatch.setattr(RobotNode, "step", step_with_error)


def test_lone_step_off_the_team_step_fails_the_check(table1, monkeypatch):
    # Only the robot stepped alone at step 700 is off; the team is not.
    plant_in_lone_steps(monkeypatch, 700, "mean")
    report = check_exact_equivalence(table1)
    assert not report.lone_steps_exact
    assert report.max_discrepancy() < 1e-12
    assert not report.passed(TOL)
    assert "lone steps DIFFER" in report.summary()


def test_lone_step_off_inside_a_segment_fails_the_check(monkeypatch):
    # The lone robot is off at the first step of a segment only, so a check
    # of the segments' last steps would miss it.
    sc = build_table1_scenario()
    real = harness.build_realization(sc, harness.seed_key(sc, None))
    k0, k1 = next(
        (k0, k1)
        for k0, k1 in harness.segments(sc, real.measurements)
        if k0 > min(real.measurements) and k1 - k0 > 1
    )
    plant_in_lone_steps(monkeypatch, k0 + 1, "jac_accum")
    report = check_dropout_equivalence(sc)
    assert not report.lone_steps_exact
    assert report.max_discrepancy() < 1e-12
    assert not report.passed(TOL)


def test_missed_robot_moved_at_an_epoch_fails_the_check(monkeypatch):
    # A robot that missed an epoch must keep exactly its propagated rows.
    sc = build_table1_scenario()
    original = harness._run_split_epoch

    def moving_a_missed_robot(team, server, measurements, report, events):
        original(team, server, measurements, report, events)
        if report.missed:
            team.mean[team.index[min(report.missed)]] += PLANT

    monkeypatch.setattr(harness, "_run_split_epoch", moving_a_missed_robot)
    report = check_dropout_equivalence(sc)
    assert not report.missed_updates_exact
    assert not report.passed(TOL)


def test_scenario_shorter_than_one_step_is_rejected():
    with pytest.raises(ScenarioError, match="at least one step"):
        check_exact_equivalence(Scenario(duration_s=0.04, dt_s=0.1))


def plant_in_joint_stream(monkeypatch, step, plant):
    """The joint belief at ``step`` comes to verify as a copy changed by ``plant``."""
    original = verify.joint_steps

    def joint_steps_with_plant(*args):
        for belief in original(*args):
            if belief.time == step:
                belief = dataclasses.replace(
                    belief, mean=belief.mean.copy(), cov=belief.cov.copy()
                )
                plant(belief)
            yield belief

    monkeypatch.setattr(verify, "joint_steps", joint_steps_with_plant)


def test_indefinite_joint_covariance_between_epochs_fails_the_check(table1, monkeypatch):
    # Only epochs and the last step compute eigenvalues; the Cholesky test
    # at every other step must catch the plant and measure it.
    step = 1500
    assert step not in measurement_schedule(table1)

    def planted(belief):
        belief.cov[0, 0, 0, 0] = -1e-3

    plant_in_joint_stream(monkeypatch, step, planted)
    report = check_exact_equivalence(table1)
    assert report.min_joint_eigenvalue < -verify.EIG_TOL
    assert not report.passed(TOL)


@pytest.mark.parametrize("field", ["position", "covariance"])
@pytest.mark.parametrize("at_epoch", [False, True], ids=["mid-segment", "epoch"])
def test_joint_step_error_is_named_by_step_and_robot(table1, monkeypatch, field, at_epoch):
    # A segment is compared as one block after its last step: its column j
    # is step k0 + 1 + j, and at an epoch k1 the split side is the
    # segment's corrected end, not its last propagated step.
    epochs = measurement_schedule(table1)
    k0, k1 = next(
        (k0, k1) for k0, k1 in harness.segments(table1, epochs) if k0 in epochs and k1 in epochs
    )
    step, robot = (k1 if at_epoch else k0 + 2), 2
    assert k0 < step <= k1 and (step in epochs) == at_epoch

    def planted(belief):
        a = belief.index[robot]
        if field == "position":
            belief.mean[a, 0] += PLANT
        else:
            belief.cov[a, 0, a, 0] += PLANT

    plant_in_joint_stream(monkeypatch, step, planted)
    report = check_exact_equivalence(table1)
    diffs = {
        "position": report.max_position_diff,
        "covariance": report.max_cov_diff,
        "heading": report.max_heading_diff,
        "cross": report.max_cross_diff,
    }
    assert diffs.pop(field) == pytest.approx(PLANT, rel=1e-6)
    assert (report.worst_time, report.worst_robot) == (step, robot)
    assert max(diffs.values()) < 1e-12
    assert not report.passed(TOL)


def test_precomputed_truth_gives_the_same_report():
    sc = build_table1_scenario()
    truth = harness.simulate_truth(sc)
    assert check_dropout_equivalence(sc, truth=truth) == check_dropout_equivalence(sc)


@pytest.mark.parametrize("sc", [
    build_table1_scenario(),
    random_scenario(32, 3, duration_s=60, window_every_s=10, bernoulli_p=0.1),
], ids=["table1", "random32"])
def test_store_is_copied_only_after_an_epoch(sc, monkeypatch):
    # The store changes only at a measurement epoch, so verify snapshots it
    # once at the start and once per epoch, not after every segment.
    copy, copies = CrossFactorStore.copy, []

    def counting_copy(self):
        copies.append(self)
        return copy(self)

    monkeypatch.setattr(CrossFactorStore, "copy", counting_copy)
    assert check_dropout_equivalence(sc).passed(TOL)
    assert 0 < len(copies) <= 1 + len(measurement_schedule(sc))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: a robot's rejected correction does not reach the server as a miss",
)
def test_rejected_correction_keeps_dropout_equivalence(monkeypatch):
    # ROADMAP item 3. One robot rejects one correction, the first update
    # frame after t = 100: robot 5's at t = 210. The server has committed
    # robot 5's store blocks as if it had applied the frame, so until the
    # reject reaches the server as a miss the split stack leaves the
    # partial-update filter for the rest of the run.
    sc = strip_dropouts(random_scenario(8, 5))
    original = RobotNode.apply_update
    planted = []

    def reject_once(self, msg):
        if not planted and msg.time > 100:
            planted.append((msg.recipient, msg.time))
            raise NumericalError("planted reject")
        return original(self, msg)

    monkeypatch.setattr(RobotNode, "apply_update", reject_once)
    report = check_dropout_equivalence(sc)
    if planted != [(5, 210)]:
        pytest.fail(f"the planted reject hit {planted}, not robot 5 at t = 210")
    assert report.passed(TOL), report.summary()
