"""Run the benchmark over ten seeds and record the figures in one JSON file.

Usage, from the root of a checkout:

    python3 perfbench/record.py --label seed --out perfbench/results/BENCH_seed.json

It runs ``run.py --trace 0`` for every workload and seeds 1-10, seed by
seed, cycling through the workloads, so that a stretch of slow minutes on a
shared host lands on several workloads instead of on consecutive seeds of
one. Per workload and end-to-end metric it reports the ten values, their
median and quartiles, and the spread (interquartile distance over the
median) next to the metric's bound from BENCHMARK.json. One ``--trace 1``
run per workload, on seed 1, adds the per-layer breakdown. Runs are made one
after another.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import checkout

SEEDS = tuple(range(1, 11))


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout.ROOT, check=True, capture_output=True, text=True,
                         timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in SEEDS:
        for workload in names:
            r = _run(spec, workload, seed, 0)
            runs[workload].append(r)
            print(f"seed {seed:2d} {workload:16s} failed {r['failed']} " + " ".join(
                f"{k} {v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)

    doc: dict = {
        "label": args.label,
        "machine": {"cpu": platform.processor() or platform.machine(), "python": sys.version},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in names:
        done = runs[workload]
        traced = _run(spec, workload, SEEDS[0], 1)
        entry = doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "correct": all(r["correct"] for r in done),
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in done], bound)
                for name, bound in bounds.items()
            },
            "traced": {
                "seed": SEEDS[0],
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        for name, s in entry["end_to_end"].items():
            print(f"{workload:16s} {name:22s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
