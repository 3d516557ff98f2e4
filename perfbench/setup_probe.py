"""Time one workload's set-up in a fresh process and print the seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

The clock starts before splitcl (and with it numpy) is imported and stops
after the scenario is built and its noise-free truth simulated, which is
everything a workload does before its first timed call. The time printed is
divided by ``reference.slowdown()`` measured right after.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import checkout  # noqa: E402


def main(workload: str, seed: int) -> float:
    checkout.pin_blas()
    checkout.use_src()
    import workloads
    from splitcl import harness

    harness.simulate_truth(workloads.build_inputs(workload, seed).scenario)
    seconds = time.perf_counter() - T0
    import reference

    return seconds / reference.slowdown()


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
