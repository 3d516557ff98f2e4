"""Scenario JSON round trip and rejection, and the team's start poses."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from splitcl import harness
from splitcl.model import wrap_angle
from splitcl.scenario import (
    MAX_ROBOTS,
    DropoutWindowSpec,
    MeasurementWindow,
    Scenario,
    ScenarioError,
    SpiralPath,
    build_table1_scenario,
    random_scenario,
    start_poses,
    true_controls,
)


@pytest.mark.parametrize(
    "sc",
    [build_table1_scenario(), random_scenario(12, 4, bernoulli_p=0.2)],
    ids=["table1", "random12"],
)
def test_save_load_round_trip(sc, tmp_path):
    path = tmp_path / "sc.json"
    sc.save(path)
    loaded = Scenario.load(path)
    assert loaded == sc
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_unperturbed_start_round_trips(tmp_path):
    sc = build_table1_scenario(perturb_initial=False)
    path = tmp_path / "sc.json"
    sc.save(path)
    assert json.loads(path.read_text())["perturb_initial"] is False
    assert Scenario.load(path) == sc


# Every key kind of the format: a nested object, both kinds of row, a list
# of lists, a false flag and floats with integral values.
GOLDEN = Scenario(
    n_robots=2,
    duration_s=20.0,
    dt_s=0.5,
    path=SpiralPath(side0=2.0, growth=0.5, edge_time_s=4.0, turn_time_s=1.0, center=(1.0, -2.0)),
    v_noise_frac=(0.3, 0.2),
    w_noise_frac=(0.1, 0.25),
    meas_windows=(MeasurementWindow(2.0, 5.0, 1, 2),),
    dropout_windows=(DropoutWindowSpec(2, 6.0, 8.0),),
    bernoulli_p=0.1,
    zones=((0.0, -1.0, 1.0, 1.0),),
    initial_cov_diag=(0.01, 0.01, 0.002),
    perturb_initial=False,
    seed=7,
)

GOLDEN_TEXT = """\
{
  "bernoulli_p": 0.1,
  "dropout_windows": [
    [
      2,
      6.0,
      8.0
    ]
  ],
  "dt_s": 0.5,
  "duration_s": 20.0,
  "format": "splitcl-scenario/1",
  "initial_cov_diag": [
    0.01,
    0.01,
    0.002
  ],
  "meas_noise_std": 0.05,
  "meas_period_s": 1.0,
  "meas_windows": [
    [
      2.0,
      5.0,
      1,
      2
    ]
  ],
  "n_robots": 2,
  "path": {
    "center": [
      1.0,
      -2.0
    ],
    "edge_time_s": 4.0,
    "growth": 0.5,
    "side0": 2.0,
    "turn_time_s": 1.0
  },
  "perturb_initial": false,
  "seed": 7,
  "v_noise_frac": [
    0.3,
    0.2
  ],
  "w_noise_frac": [
    0.1,
    0.25
  ],
  "zones": [
    [
      0.0,
      -1.0,
      1.0,
      1.0
    ]
  ]
}
"""


def test_saved_file_is_the_pinned_text(tmp_path):
    # Round trips pass for any format that reads back what it writes; this
    # pins the bytes a saved scenario file holds.
    GOLDEN.validate()
    path = tmp_path / "sc.json"
    GOLDEN.save(path)
    assert path.read_bytes() == GOLDEN_TEXT.encode()
    assert Scenario.load(path) == GOLDEN


def test_missing_file_is_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        Scenario.load(tmp_path / "nope.json")


def _doc():
    return build_table1_scenario().to_dict()


def _write(tmp_path, text):
    path = tmp_path / "sc.json"
    path.write_text(text)
    return path


def test_invalid_json_is_rejected(tmp_path):
    path = _write(tmp_path, json.dumps(_doc())[:-10])
    with pytest.raises(ScenarioError, match="not valid JSON"):
        Scenario.load(path)


def test_missing_key_is_rejected(tmp_path):
    doc = _doc()
    del doc["meas_noise_std"]
    with pytest.raises(ScenarioError, match="missing scenario keys"):
        Scenario.load(_write(tmp_path, json.dumps(doc)))


@pytest.mark.parametrize("edit, message", [
    ({"path_scales": None}, r"unknown scenario keys \['path_scales'\]"),
    ({"path_scales": [1.0, 1.0, 1.0, 1.0]}, r"unknown scenario keys \['path_scales'\]"),
    ({"path": {**_doc()["path"], "growth_mode": "linear"}},
     r"unknown path keys \['growth_mode'\]"),
    ({"path": {k: v for k, v in _doc()["path"].items() if k != "growth"}},
     r"missing path keys \['growth'\]"),
    ({"path": [1.0, 0.25]}, "path must be a JSON object"),
], ids=["path-scales-null", "path-scales", "growth-mode", "path-missing", "path-list"])
def test_path_keys_are_checked_as_the_top_level_keys(tmp_path, edit, message):
    doc = {**_doc(), **edit}
    with pytest.raises(ScenarioError, match=message):
        Scenario.load(_write(tmp_path, json.dumps(doc)))


def test_out_of_range_value_is_rejected(tmp_path):
    doc = _doc()
    doc["bernoulli_p"] = 1
    with pytest.raises(ScenarioError, match="bernoulli_p"):
        Scenario.load(_write(tmp_path, json.dumps(doc)))


def test_four_robots_head_out_at_multiples_of_ninety_degrees():
    poses = start_poses(build_table1_scenario())
    expected = np.zeros((4, 3))
    expected[:, 2] = [wrap_angle(r * math.pi / 2) for r in range(4)]
    np.testing.assert_array_equal(poses, expected)
    assert poses.tobytes() == expected.tobytes()


def test_no_two_of_eight_robots_share_a_trajectory():
    sc = Scenario(
        n_robots=8,
        duration_s=60.0,
        v_noise_frac=(0.2,) * 8,
        w_noise_frac=(0.2,) * 8,
    )
    truth = harness.simulate_truth(sc)
    headings = start_poses(sc)[:, 2]
    assert len(set(headings.tolist())) == 8
    for a in range(8):
        for b in range(a + 1, 8):
            gap = np.linalg.norm(truth[a, :, :2] - truth[b, :, :2], axis=1)
            assert gap.max() > 1.0, (a + 1, b + 1)


@pytest.mark.parametrize("edit, message", [
    ({"n_robots": 4.9}, "n_robots must be an integer, got 4.9"),
    ({"n_robots": True}, "n_robots must be an integer, got True"),
    ({"n_robots": "4"}, "n_robots must be an integer, got '4'"),
    ({"meas_windows": [[45.0, 50.0, 1.9, 2]]}, "meas_windows observer must be an integer"),
    ({"meas_windows": [[45.0, 50.0, 1, False]]}, "meas_windows landmark must be an integer"),
    ({"dropout_windows": [[4.5, 135.0, 140.0]]}, "dropout_windows robot must be an integer"),
    ({"seed": 2.7}, "seed must be an integer, got 2.7"),
    ({"seed": math.nan}, "seed must be an integer, got nan"),
    ({"perturb_initial": "false"}, "perturb_initial must be true or false, got 'false'"),
    ({"perturb_initial": 0}, "perturb_initial must be true or false, got 0"),
    # Each of these loaded, and then failed deep in a run or lost entries.
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"path": {**_doc()["path"], "center": [0.0]}}, "path.center must have 2 entries, got 1"),
    ({"path": {**_doc()["path"], "center": [0.0] * 3}}, "path.center must have 2 entries, got 3"),
    ({"initial_cov_diag": [0.0025, 0.0025]}, "initial_cov_diag must have 3 entries, got 2"),
    ({"initial_cov_diag": [0.0025] * 4}, "initial_cov_diag must have 3 entries, got 4"),
    ({"meas_windows": [[45.0, 50.0, 1, 2, 3]]}, "meas_windows rows must have 4 entries"),
    ({"meas_windows": [[45.0, 50.0, 1]]}, "meas_windows rows must have 4 entries"),
    ({"dropout_windows": [[4, 135.0, 140.0, 1.0]]}, "dropout_windows rows must have 3 entries"),
    ({"dropout_windows": [4]}, "dropout_windows rows must have 3 entries, got 4"),
], ids=["count-fraction", "count-bool", "count-string", "observer-fraction",
        "landmark-bool", "dropout-robot-fraction", "seed-fraction", "seed-nan",
        "flag-string", "flag-int", "seed-negative", "center-1", "center-3", "cov-2", "cov-4",
        "window-5", "window-3", "dropout-4", "dropout-number"])
def test_malformed_field_is_rejected(tmp_path, edit, message):
    doc = {**_doc(), **edit}
    with pytest.raises(ScenarioError, match=message):
        Scenario.load(_write(tmp_path, json.dumps(doc)))


@pytest.mark.parametrize("overrides, message", [
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": np.int64(3)}, "seed must be an integer"),
    ({"n_robots": 4.0}, "n_robots must be an integer, got 4.0"),
    ({"n_robots": np.int64(4)}, "n_robots must be an integer"),
    ({"perturb_initial": 0}, "perturb_initial must be true or false, got 0"),
    ({"dt_s": True}, "dt_s must be a number, got True"),
], ids=["seed-bool", "seed-numpy", "count-float", "count-numpy", "flag-int", "dt-bool"])
def test_validate_refuses_a_field_the_file_cannot_carry(overrides, message):
    # Each of these validated, and then save wrote a file that load refused,
    # or save could not write one, or the run failed with a TypeError.
    with pytest.raises(ScenarioError, match=message):
        build_table1_scenario(**overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"meas_windows": (MeasurementWindow(45.0, 50.0, True, 2),)},
     "meas_windows observer must be an integer, got True"),
    ({"meas_windows": (MeasurementWindow(45.0, 50.0, np.int64(1), 2),)},
     "meas_windows observer must be an integer"),
    ({"dropout_windows": (DropoutWindowSpec(4, 135.0, np.int64(140)),)},
     "dropout_windows end_s must be a number"),
    ({"v_noise_frac": (True, 0.30, 0.25, 0.20)}, "v_noise_frac must be a number, got True"),
    ({"path": SpiralPath(side0=True)}, "path.side0 must be a number, got True"),
    ({"path": SpiralPath(center=(0.0, np.int64(0)))}, "path.center must be a number"),
    ({"zones": ((0.0, -1.0, 1.0, False),)}, "zones must be a number, got False"),
], ids=["observer-bool", "observer-numpy", "dropout-end-numpy", "frac-bool", "side-bool",
        "center-numpy", "zone-bool"])
def test_validate_refuses_a_nested_value_the_file_cannot_carry(overrides, message):
    # Each of these validated, and then load refused the saved file or
    # save could not write one.
    with pytest.raises(ScenarioError, match=f"^{message}"):
        build_table1_scenario(**overrides)


def test_numpy_floats_in_rows_save_and_load(tmp_path):
    sc = build_table1_scenario(
        meas_windows=(MeasurementWindow(np.float64(45.0), 50.0, 1, 2),),
        zones=((0.0, -1.0, np.float64(1.0), 1),),
    )
    path = tmp_path / "sc.json"
    sc.save(path)
    assert Scenario.load(path) == sc


def test_an_int_stands_for_a_float(tmp_path):
    sc = build_table1_scenario(duration_s=300, meas_noise_std=np.float64(0.05))
    path = tmp_path / "sc.json"
    sc.save(path)
    assert Scenario.load(path) == sc


def _path_with(**edit):
    return {**_doc()["path"], **edit}


@pytest.mark.parametrize("edit, message", [
    ({"dt_s": True}, "dt_s must be a number, got True"),
    ({"dt_s": "abc"}, "dt_s must be a number, got 'abc'"),
    ({"meas_noise_std": "0.05"}, "meas_noise_std must be a number, got '0.05'"),
    ({"bernoulli_p": None}, "bernoulli_p must be a number, got None"),
    ({"zones": [[True, "-1", 1, 1]]}, "zones must be a number, got True"),
    ({"zones": [[0.0, "-1", 1, 1]]}, "zones must be a number, got '-1'"),
    ({"path": _path_with(center=["0", 0.0])}, "path.center must be a number, got '0'"),
    ({"path": _path_with(side0=False)}, "path.side0 must be a number, got False"),
    ({"v_noise_frac": [0.35, 0.30, "0.25", 0.20]}, "v_noise_frac must be a number"),
    ({"meas_windows": [["45", 50.0, 1, 2]]}, "meas_windows start_s must be a number"),
    ({"dropout_windows": [[1, 135.0, [140.0]]]}, "dropout_windows end_s must be a number"),
    ({"initial_cov_diag": [0.0025, True, 0.00274]}, "initial_cov_diag must be a number"),
], ids=["dt-bool", "dt-string", "noise-string", "p-null", "zone-bool", "zone-string",
        "center-string", "side-bool", "frac-string", "window-string", "dropout-list",
        "cov-bool"])
def test_non_numeric_real_field_is_rejected(tmp_path, edit, message):
    doc = {**_doc(), **edit}
    with pytest.raises(ScenarioError, match=message):
        Scenario.load(_write(tmp_path, json.dumps(doc)))


def test_integral_numbers_load_as_reals(tmp_path):
    doc = {**_doc(), "duration_s": 300, "zones": [[0, -1, 1, 1]]}
    sc = Scenario.load(_write(tmp_path, json.dumps(doc)))
    assert sc.duration_s == 300.0 and type(sc.duration_s) is float
    assert sc.zones == ((0.0, -1.0, 1.0, 1.0),)
    assert all(type(v) is float for v in sc.zones[0])


def test_integral_numbers_load_as_integers(tmp_path):
    doc = {**_doc(), "n_robots": 4.0, "seed": 9.0}
    sc = Scenario.load(_write(tmp_path, json.dumps(doc)))
    assert (sc.n_robots, sc.seed) == (4, 9)
    assert type(sc.n_robots) is int and type(sc.seed) is int


@pytest.mark.parametrize("edit, message", [
    ({"path": {"edge_time_s": 0.04}}, "path.edge_time_s must be at least one step"),
    ({"path": {"turn_time_s": 0.0}}, "path.turn_time_s must be at least one step"),
    ({"meas_period_s": 0.01}, "meas_period_s must be at least one step"),
    ({"meas_noise_std": math.nan}, r"non-finite values in \['meas_noise_std'\]"),
    ({"initial_cov_diag": [0.0025, math.nan, 0.00274]}, "initial_cov_diag"),
    ({"duration_s": math.inf}, "duration_s"),
    ({"path": {"center": [0.0, -math.inf]}}, r"non-finite values in \['path'\]"),
    ({"v_noise_frac": [0.35, 0.30, math.nan, 0.20]}, "v_noise_frac"),
    ({"meas_windows": [[45.0, math.nan, 1, 2]]}, "meas_windows"),
    ({"path": {"growth": -0.5}}, "path.growth must be non-negative, got -0.5"),
], ids=["edge", "turn", "meas-period", "noise-nan", "cov-nan", "duration-inf",
        "center-inf", "frac-nan", "window-nan", "inward"])
def test_unrunnable_scenario_is_rejected(tmp_path, edit, message):
    doc = _doc()
    for key, value in edit.items():
        if key == "path":
            doc["path"].update(value)
        else:
            doc[key] = value
    with pytest.raises(ScenarioError, match=message):
        Scenario.load(_write(tmp_path, json.dumps(doc)))


@pytest.mark.parametrize("edit, name", [
    (lambda sc: {"path": replace(sc.path, center=(0.0, -math.inf))}, "path"),
    (lambda sc: {"meas_windows": (*sc.meas_windows[:3], MeasurementWindow(45.0, math.nan, 1, 2))},
     "meas_windows"),
    (lambda sc: {"dropout_windows": (DropoutWindowSpec(2, math.nan, 60.0),)}, "dropout_windows"),
    (lambda sc: {"zones": ((0.0, -1.0, math.inf, 1.0),)}, "zones"),
], ids=["path-center", "window-end", "dropout-start", "zone-corner"])
def test_nested_non_finite_field_is_named(edit, name):
    # validate walks the fields in place, into the path and the windows,
    # and names the top-level field that holds the non-finite value.
    table1 = build_table1_scenario()
    table1.validate()
    with pytest.raises(ScenarioError, match=rf"^non-finite values in \['{name}'\]$"):
        replace(table1, **edit(table1)).validate()


def test_shortest_runnable_spans_are_accepted():
    # 0.06 s rounds to one step of 0.1 s, as the controls and the schedule
    # count steps, so this scenario runs.
    sc = Scenario(
        duration_s=2.0,
        path=SpiralPath(edge_time_s=0.06, turn_time_s=0.06),
        meas_windows=(MeasurementWindow(0.0, 2.0, 1, 2),),
        meas_period_s=0.06,
    )
    rec = harness.run_once(sc, ["sa_split"], seed=1)
    assert np.isfinite(rec.estimates["sa_split"]).all()


def test_team_size_is_bounded(monkeypatch):
    assert MAX_ROBOTS == 1024
    assert random_scenario(MAX_ROBOTS, 3, duration_s=30.0).n_robots == MAX_ROBOTS
    fracs = (0.2,) * (MAX_ROBOTS + 1)
    with pytest.raises(ScenarioError, match="n_robots must be at most 1024, got 1025"):
        Scenario(n_robots=MAX_ROBOTS + 1, v_noise_frac=fracs, w_noise_frac=fracs)
    # Refused before the generator draws anything.
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ScenarioError, match="at most 1024, got 100000000"):
        random_scenario(100_000_000, 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"window_every_s": 0.0}, "window_every_s must be at least one step"),
        ({"window_every_s": -1.0}, "window_every_s must be at least one step"),
        ({"window_every_s": math.nan}, "window_every_s must be at least one step"),
        ({"window_every_s": 1e-300}, "window_every_s must be at least one step"),
        ({"duration_s": math.inf}, "duration_s must be finite"),
    ],
)
def test_random_window_spacing_that_never_ends_is_refused(monkeypatch, kwargs, message):
    # Each of these would draw windows without end; they are refused before
    # the generator draws anything.
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ScenarioError, match=message):
        random_scenario(4, 1, **kwargs)


def test_random_scenario_refuses_a_negative_seed_before_drawing(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ScenarioError, match=r"^seed must be non-negative, got -1$"):
        random_scenario(4, -1)


@pytest.mark.parametrize("build, message", [
    # Each of these was built, and then failed where it was used: a
    # ZeroDivisionError simulating the truth, a broadcast ValueError
    # drawing the noise, every robot dropped by the channel, and an
    # IndexError in the measurement schedule.
    (lambda: Scenario(dt_s=0.0), "dt_s and duration_s must be positive"),
    (lambda: Scenario(n_robots=3), "noise fraction lists must have one entry per robot"),
    (lambda: Scenario(bernoulli_p=1.5), r"bernoulli_p must be in \[0, 1\)"),
    (lambda: build_table1_scenario(meas_windows=(MeasurementWindow(45.0, 50.0, 1, 9),)),
     r"measurement window MeasurementWindow\(start_s=45.0, end_s=50.0, observer=1, "
     r"landmark=9\) names an unknown robot"),
], ids=["dt-zero", "fractions-for-four", "loss-above-one", "window-robot-9"])
def test_a_scenario_that_fails_validate_cannot_be_built(build, message):
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        build()


def test_an_inward_spiral_is_refused():
    # Its edges shrink to negative lengths: the last of table1 would be
    # -1.75 m long, driven backwards.
    with pytest.raises(ScenarioError, match=r"^path.growth must be non-negative, got -0.25$"):
        build_table1_scenario(path=SpiralPath(growth=-0.25))
    square = build_table1_scenario(path=SpiralPath(growth=0.0))
    speeds = true_controls(square)[:, :, 0]
    assert speeds.min() == 0.0 and np.unique(speeds[speeds > 0]).size == 1


def test_table1_windows_can_be_overridden():
    table1 = build_table1_scenario()
    assert len(table1.meas_windows) == 12
    assert table1.meas_windows[0] == MeasurementWindow(45.0, 50.0, 1, 2)
    assert table1.dropout_windows == (
        DropoutWindowSpec(4, 135.0, 140.0), DropoutWindowSpec(4, 180.0, 185.0)
    )
    assert table1 == build_table1_scenario(
        meas_windows=table1.meas_windows, dropout_windows=table1.dropout_windows
    )
    windows = (MeasurementWindow(10.0, 20.0, 1, 3),)
    dropouts = (DropoutWindowSpec(2, 0.0, 300.0),)
    assert build_table1_scenario(meas_windows=windows) == replace(table1, meas_windows=windows)
    assert build_table1_scenario(dropout_windows=()) == replace(table1, dropout_windows=())
    both = build_table1_scenario(meas_windows=windows, dropout_windows=dropouts, seed=5)
    assert both == replace(table1, meas_windows=windows, dropout_windows=dropouts, seed=5)
