"""splitcl benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1_mc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with only three wrappers in
place (server epoch latency and the two frame encoders). ``--trace 1``
alternates untraced rounds of calls with rounds traced through every public
function listed in ``tracing.SPANS``, and reports the per-layer metrics, the
tracing overhead, and an informational server sweep over team sizes. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark runs in one process with BLAS pinned to one thread and
``jobs=1``; see perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checkout

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 15
# Run length per team size of the server sweep: 200, 100, 30 and 6 epochs.
SWEEP_DURATION_S = {4: 100.0, 16: 50.0, 64: 15.0, 256: 3.0}

END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("server_epoch_ms_p50", "ms"),
    ("server_epoch_ms_p90", "ms"),
    ("wire_bytes_per_epoch", "B"),
    ("peak_rss_mb", "MB"),
)

_SPAN_STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("us_per_call", "us"))
_SWEPT = ("split_ekf.CrossFactorStore.update", "protocol.CooperationServer.handle_epoch")


def per_layer_units(spans) -> list[tuple[str, str]]:
    names = [(f"{span}.{stat}", unit) for span in spans for stat, unit in _SPAN_STATS]
    names += [
        ("messages.bytes_up_per_epoch", "B"),
        ("messages.bytes_down_per_epoch", "B"),
        ("protocol.measurements_used_frac", "ratio"),
        ("network.missed_frac", "ratio"),
        ("split_ekf.CrossFactorStore.update.bytes_computed", "B"),
        ("trace.overhead_frac", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.host_slowdown", "ratio"),
        ("rms_pos_m", "m"),
        ("nees_gap", "ratio"),
    ]
    names += [(f"sweep.N{n}.{span}.us_per_call", "us") for n in SWEEP_DURATION_S for span in _SWEPT]
    return names


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the set-up time (import, scenario,
    truth), each divided by the host's slowdown measured right after it."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(inputs, seconds: float) -> dict:
    import tracing
    import workloads

    setup = setup_seconds(inputs.workload, inputs.seed)
    with tracing.Trace(tracing.PROBES) as probe:
        meas = workloads.measure(inputs, seconds, probe.epoch_ms)
    checks = workloads.batch_checks(inputs, meas, probe.frame_lengths)
    epoch_ms = meas.epoch_ms()
    values = {
        "setup_s": setup,
        "runs_per_s": meas.runs_per_s(),
        "server_epoch_ms_p50": statistics.median(epoch_ms),
        "server_epoch_ms_p90": statistics.quantiles(epoch_ms, n=10)[-1],
        "wire_bytes_per_epoch": probe.wire_bytes_per_epoch(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return _result([meas], checks, values, dict(END_TO_END))


def per_layer(inputs, seconds: float) -> dict:
    import tracing
    import workloads
    from splitcl import harness

    # Rounds alternate between untraced and traced on the same inputs, so
    # both see the same phases of other load on the host.
    untraced, meas = workloads.Measurement(), workloads.Measurement()
    trace = tracing.Trace(tracing.SPANS)
    t0 = perf_counter()
    while not meas.calls or perf_counter() - t0 < seconds:
        with tracing.Trace(tracing.PROBES):
            untraced.run_round(inputs)
        with trace:
            meas.run_round(inputs)
    checks = workloads.batch_checks(inputs, meas, trace.frame_lengths)

    values: dict[str, float] = {}
    for name, st in trace.stats.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.total_s"] = st.total_s
        values[f"{name}.self_s"] = st.self_s
        values[f"{name}.us_per_call"] = st.total_s / st.calls * 1e6 if st.calls else 0.0

    epochs = trace.stats["protocol.CooperationServer.handle_epoch"].calls
    innovations = trace.stats["split_ekf.innovation"].calls
    used = innovations - sum(c.numeric_server for c in meas.calls)
    announced = innovations + sum(c.unreachable for c in meas.calls)
    store_calls = trace.stats["split_ekf.CrossFactorStore.update"].calls
    values["messages.bytes_up_per_epoch"] = trace.bytes_up / epochs
    values["messages.bytes_down_per_epoch"] = trace.bytes_down / epochs
    values["protocol.measurements_used_frac"] = used / announced
    values["network.missed_frac"] = trace.missed_robot_epochs / trace.robot_epochs
    values["split_ekf.CrossFactorStore.update.bytes_computed"] = (
        trace.store_bytes_computed / store_calls
    )
    values["trace.overhead_frac"] = untraced.runs_per_s() / meas.runs_per_s() - 1.0
    values["trace.wall_s"] = trace.wall_s - meas.reference_s
    values["trace.host_slowdown"] = statistics.median(c.host for c in untraced.calls + meas.calls)

    # Accuracy of the split filter with dropouts; the verify workload gets it
    # from one extra untraced Monte-Carlo run on its scenario.
    errors = meas.errors
    if not errors.runs:
        errors.add(harness.run_monte_carlo(
            inputs.scenario, 1, (harness.SA_SPLIT_DROPOUT,), seed=inputs.seed, jobs=1
        ))
    values["rms_pos_m"] = errors.rms_pos(harness.SA_SPLIT_DROPOUT)
    values["nees_gap"] = errors.nees_gap(harness.SA_SPLIT_DROPOUT)

    # One relative measurement per epoch, through the same entry point.
    for n, duration in SWEEP_DURATION_S.items():
        sc = workloads.team_scenario(n, inputs.seed, windows=1, duration_s=duration)
        with tracing.Trace(_SWEPT) as sweep:
            harness.run_monte_carlo(sc, 1, (harness.SA_SPLIT_DROPOUT,), seed=inputs.seed, jobs=1)
        for span in _SWEPT:
            st = sweep.stats[span]
            values[f"sweep.N{n}.{span}.us_per_call"] = st.total_s / st.calls * 1e6

    return _result(
        [untraced, meas], checks, values, dict(per_layer_units(tracing.SPANS))
    )


def _result(measurements, checks: list[bool], values: dict, units: dict[str, str]) -> dict:
    attempted = sum(m.attempted for m in measurements) + len(checks)
    failed = sum(m.failed for m in measurements) + sum(not ok for ok in checks)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.pin_blas()
    checkout.use_src()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    inputs = workloads.build_inputs(args.workload, args.seed)
    run = per_layer if args.trace else end_to_end
    print(json.dumps(run(inputs, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
