"""Tests of the benchmark itself: restoration, seeding, checks and its spec."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checkout  # noqa: E402

checkout.use_src()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from splitcl.scenario import random_scenario  # noqa: E402


def _small(workload: str, **changes) -> workloads.Inputs:
    """A workload's inputs on a six-robot, 30 s team, fast enough for tier-1."""
    sc = random_scenario(6, 1, duration_s=30, window_every_s=10, bernoulli_p=0.1)
    return replace(workloads.build_inputs(workload, 1), scenario=sc, **changes)


def _attributes(names):
    out = {}
    for name in names:
        for site in tracing.sites(name):
            owner, attr = tracing._resolve(site)
            out[site] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return out


def test_traced_run_restores_every_wrapped_attribute():
    before = _attributes(tracing.SPANS)
    with tracing.Trace(tracing.SPANS) as trace:
        mc = workloads.measure(_small("table1_mc"), 0.0)
        checked = workloads.measure(_small("verify_team32"), 0.0)
    after = _attributes(tracing.SPANS)
    assert all(after[site] is before[site] for site in before)
    assert (mc.attempted, mc.failed) == (3, 0)
    assert (checked.attempted, checked.failed) == (2, 0)
    # Every span fired, so every site was really patched.
    assert all(st.calls > 0 for st in trace.stats.values())
    assert all(st.self_s <= st.total_s for st in trace.stats.values())


def test_trace_restores_attributes_when_the_run_raises():
    before = _attributes(tracing.SPANS)
    with pytest.raises(RuntimeError):
        with tracing.Trace(tracing.SPANS):
            raise RuntimeError("boom")
    assert all(_attributes(tracing.SPANS)[site] is before[site] for site in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert workloads.build_inputs(workload, 3) == workloads.build_inputs(workload, 3)
    assert workloads.build_inputs(workload, 3) != workloads.build_inputs(workload, 4)


def test_seeded_teams_differ_across_seeds():
    for workload in ("team128_server", "verify_team32"):
        a = workloads.build_inputs(workload, 3).scenario
        b = workloads.build_inputs(workload, 4).scenario
        assert a.meas_windows != b.meas_windows


def test_negative_control_counts_failed_checks():
    inputs = _small("verify_team32")
    corrupted = workloads.measure(inputs, 0.0, corrupt_cross_sign=True)
    assert (corrupted.attempted, corrupted.failed) == (2, 2)


def test_times_are_divided_by_the_host_slowdown():
    def call(kind, seconds, epoch_ms, host):
        return workloads.Call(kind, 1, seconds, 1, 0, 0, 0, epoch_ms, host)

    meas = workloads.Measurement(calls=[
        call("exact", 4.0, [2.0, 4.0], 2.0),
        call("dropout", 3.0, [3.0], 1.0),
        call("exact", 1.0, [1.0], 1.0),
        call("exact", 2.0, [], 1.0),
    ])
    # Median over the calls of each kind, one round being one call of each.
    assert meas.runs_per_s() == 2 / (2.0 + 3.0)
    assert meas.epoch_ms() == [1.0, 2.0, 3.0, 1.0]


def test_frame_length_check_rejects_a_grown_frame():
    inputs = workloads.build_inputs("team128_server", 1)
    reference = workloads.reference_frame_lengths()
    empty = workloads.Measurement()
    assert workloads.batch_checks(inputs, empty, {"landmark": {reference["landmark"]}}) == [True]
    grown = {"landmark": {reference["landmark"], reference["landmark"] + 8}}
    assert workloads.batch_checks(inputs, empty, grown) == [False]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units(
        tracing.SPANS
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
