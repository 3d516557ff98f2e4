"""Command-line entry point.

Subcommands::

    splitcl run          simulate a scenario and export RMS metrics as CSV
    splitcl verify       run the equivalence checks and report discrepancies
    splitcl scenario-gen write a scenario file from a named template

Exit codes: 0 success, 2 invalid input, 3 estimator divergence during a run,
4 verification exceedance. Stdout is human-readable; machine-readable output
goes to files only. The default output directory is ``SPLITCL_OUT_DIR`` or
the current directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import harness, verify
from .scenario import (
    MAX_ROBOTS,
    Scenario,
    ScenarioError,
    build_table1_scenario,
    random_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4

OUT_DIR_ENV = "SPLITCL_OUT_DIR"


def _load_scenario(spec: str) -> Scenario:
    if spec == "table1":
        return build_table1_scenario()
    return Scenario.load(spec)


def _cmd_run(args) -> int:
    try:
        sc = _load_scenario(args.scenario)
        estimators = harness._wanted(
            part.strip() for part in args.estimators.split(",") if part.strip()
        )
        harness.seed_key(sc, args.seed)
        for flag, count in (("--mc", args.mc), ("--jobs", args.jobs)):
            if count < 1:
                raise ValueError(f"{flag} must be at least 1, got {count}")
        out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
        metrics_path = out_dir / "metrics.csv"
        events_path = out_dir / "events.log"
        # Refuse an output file that cannot be written before the run,
        # not after it.
        for path in (metrics_path, events_path):
            if path.exists() and not path.is_file():
                raise ValueError(f"output {path} exists and is not a file")
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = harness.run_monte_carlo(
        sc, args.mc, estimators, seed=args.seed, jobs=args.jobs
    )
    try:
        harness.export_metrics(report, metrics_path)
        harness.write_event_log(report.events, events_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(f"scenario: {args.scenario} ({sc.n_robots} robots, {sc.duration_s:.0f} s)")
    print(f"runs: {report.runs_total}, estimators: {', '.join(report.estimators)}")
    for name in report.estimators:
        if report.runs_flagged[name] == report.runs_total:
            print(f"final RMS [{name}] none: all {report.runs_total} runs were flagged")
            continue
        final = ", ".join(
            f"robot {r + 1}: {v:.4f} m" for r, v in enumerate(report.rms_pos[name][:, -1])
        )
        print(f"final RMS [{name}] {final}")
    print(f"metrics written to {metrics_path}")
    print(f"event log written to {events_path}")
    diverged = {n: c for n, c in report.runs_flagged.items() if c}
    if diverged:
        print(f"error: diverged runs: {diverged}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        sc = _load_scenario(args.scenario)
        harness.seed_key(sc, args.seed)
        if not 0.0 < args.tol < float("inf"):
            raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    except (OSError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    truth = harness.simulate_truth(sc)
    exact = verify.check_exact_equivalence(sc, args.seed, args.corrupt_cross_sign, truth)
    dropout = verify.check_dropout_equivalence(sc, args.seed, args.corrupt_cross_sign, truth)
    ok = True
    for rep in (exact, dropout):
        print(rep.summary())
        if not rep.passed(args.tol):
            ok = False
            print(
                f"FAIL [{rep.mode}]: max discrepancy {rep.max_discrepancy():.3e} "
                f"exceeds {args.tol:.1e} at t={rep.worst_time} robot={rep.worst_robot}"
            )
    if ok:
        print(f"OK: both checks within {args.tol:.1e}")
        return EXIT_OK
    return EXIT_VERIFY


def _cmd_scenario_gen(args) -> int:
    try:
        if args.template == "table1":
            sc = build_table1_scenario()
        else:
            sc = random_scenario(
                n_robots=args.robots,
                seed=args.seed,
                bernoulli_p=args.bernoulli_p,
            )
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        sc.save(out)
    except (OSError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote scenario {args.template!r} to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitcl",
        description="Server-assisted cooperative localization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and export metrics")
    run.add_argument("--scenario", required=True, help="scenario file or 'table1'")
    run.add_argument("--seed", type=int, default=None, help="base seed (default: scenario seed)")
    run.add_argument("--mc", type=int, default=1, help="number of Monte-Carlo runs")
    run.add_argument(
        "--estimators",
        default="dr,sa_split,sa_split_dropout",
        help="comma-separated estimator names",
    )
    run.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or .)")
    run.add_argument("--jobs", type=int, default=1, help="parallel Monte-Carlo workers")
    run.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify", help="run the equivalence checks")
    ver.add_argument("--scenario", default="table1", help="scenario file or 'table1'")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--tol", type=float, default=verify.DEFAULT_TOLERANCE)
    ver.add_argument(
        "--corrupt-cross-sign",
        action="store_true",
        help="negative-control hook: flip the server's store-update sign (must fail)",
    )
    ver.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("scenario-gen", help="write a scenario file from a template")
    gen.add_argument("template", choices=["table1", "random"])
    gen.add_argument(
        "--robots", type=int, default=4, help=f"team size, at most {MAX_ROBOTS} (random template)"
    )
    gen.add_argument("--seed", type=int, default=1, help="seed (random template)")
    gen.add_argument("--bernoulli-p", type=float, default=0.0, help="loss probability (random template)")
    gen.add_argument("--out", required=True, help="output scenario file")
    gen.set_defaults(func=_cmd_scenario_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches EXIT_USAGE
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
