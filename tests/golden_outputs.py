"""Golden outputs: fingerprints of what every estimator and check returns.

Run from the repository root to rewrite ``tests/golden/outputs.json``::

    PYTHONPATH=src python tests/golden_outputs.py

``tests/test_golden.py`` recomputes every entry and compares it with the
file. A change that means to move an output rewrites the file with this
script in the same change.

The recipe. Each scenario, table1 (``build_table1_scenario()``),
``random_scenario(8, 5, bernoulli_p=0.3)`` and
``random_scenario(32, 3, bernoulli_p=0.1)``, is run at seeds 1 and 3. An
entry holds the sha256 of the bytes below and a few float summaries:

``run_once <scenario> seed=<s>``
    ``run_once(sc, ALL_ESTIMATORS, seed)``: for each estimator in sorted
    order its name, its ``estimates`` bytes, its ``covs`` bytes or
    ``none``, and ``True``/``False`` for ``flagged``; then each event's
    line and a newline, in the record's order. Summary: per estimator, the
    final position error, root mean square over the robots.
``frames <scenario> seed=<s>``
    Every frame that ``LandmarkMessage.encode`` and ``UpdateMessage.encode``
    return during that same ``run_once`` call, in call order. The two
    methods are wrapped here for the call and restored after it. Summary:
    the number of frames.
``verify exact|dropout <scenario> seed=<s>``
    ``repr`` of ``check_exact_equivalence(sc, seed)`` or
    ``check_dropout_equivalence(sc, seed)``. Summary: the report's four max
    diffs (position, heading, covariance, cross).
``run_monte_carlo table1 n_runs=3 seed=4``
    ``run_monte_carlo(table1, 3, ALL_ESTIMATORS, seed=4)``: for each
    estimator in sorted order its name, its per-run position errors, its
    ``nees_mean`` bytes or ``none``, and its flagged-run count; then each
    event's line prefixed ``run=<m> `` and a newline. Summary: per
    estimator, the final RMS position error, root mean square over the
    robots.
``splitcl run --scenario table1 --mc 3: metrics.csv|events.log``
    The bytes of that output file. No summary.

Bytes are numpy's native ``tobytes()``, texts UTF-8. The file also records
the toolchain it was written on: the hashes are compared only on that
toolchain, the summaries on every one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np

from splitcl import cli
from splitcl.harness import ALL_ESTIMATORS, run_monte_carlo, run_once
from splitcl.messages import LandmarkMessage, UpdateMessage
from splitcl.scenario import build_table1_scenario, random_scenario
from splitcl.verify import check_dropout_equivalence, check_exact_equivalence

GOLDEN_FILE = Path(__file__).parent / "golden" / "outputs.json"

SCENARIOS = {
    "table1": build_table1_scenario,
    "random_scenario(8, 5, bernoulli_p=0.3)": lambda: random_scenario(8, 5, bernoulli_p=0.3),
    "random_scenario(32, 3, bernoulli_p=0.1)": lambda: random_scenario(32, 3, bernoulli_p=0.1),
}
SEEDS = (1, 3)
CLI_RUN = ["run", "--scenario", "table1", "--mc", "3"]


def toolchain() -> dict[str, str]:
    """What the float bits may depend on: the Python minor version (a patch
    release changes no float arithmetic), numpy, and the machine with the
    SIMD extensions numpy dispatches to on it."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    simd = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "machine": " ".join([platform.machine(), *simd]),
    }


def _entry(chunks, summary: dict[str, float]) -> dict:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode() if isinstance(chunk, str) else chunk)
    return {"sha256": digest.hexdigest(), "summary": summary}


def _final_rms(errors: np.ndarray) -> float:
    """Root mean square over the robots of a (robots, steps) array's last step."""
    return math.sqrt(float(np.mean(errors[:, -1] ** 2)))


@contextlib.contextmanager
def _recorded_frames():
    """The list of every frame the two encoders return while the block runs."""
    frames = []
    originals = {codec: codec.encode for codec in (LandmarkMessage, UpdateMessage)}

    def recording(encode):
        def wrapper(msg):
            frames.append(encode(msg))
            return frames[-1]
        return wrapper

    try:
        for codec, encode in originals.items():
            codec.encode = recording(encode)
        yield frames
    finally:
        for codec, encode in originals.items():
            codec.encode = encode


def _run_once_entries(sc, seed: int) -> tuple[dict, dict]:
    """The ``run_once`` entry and the ``frames`` entry of one run."""
    with _recorded_frames() as frames:
        rec = run_once(sc, ALL_ESTIMATORS, seed)
    chunks = []
    for name in sorted(rec.estimates):
        cov = rec.covs[name]
        chunks += [name, rec.estimates[name].tobytes(),
                   "none" if cov is None else cov.tobytes(), str(rec.flagged[name])]
    chunks += [ev.as_line() + "\n" for ev in rec.events]
    run = _entry(chunks, {name: _final_rms(rec.position_error(name)) for name in sorted(rec.estimates)})
    return run, _entry(frames, {"frames": len(frames)})


def _verify_entry(report) -> dict:
    return _entry([repr(report)], {
        "position": report.max_position_diff,
        "heading": report.max_heading_diff,
        "covariance": report.max_cov_diff,
        "cross": report.max_cross_diff,
    })


def _monte_carlo_entry() -> dict:
    report = run_monte_carlo(build_table1_scenario(), 3, ALL_ESTIMATORS, seed=4)
    chunks = []
    for name in sorted(report.estimators):
        nees = report.nees_mean.get(name)
        chunks += [name, report.per_run_pos_err[name].tobytes(),
                   "none" if nees is None else nees.tobytes(), str(report.runs_flagged[name])]
    chunks += [f"run={m} {ev.as_line()}\n" for m, ev in report.events]
    return _entry(chunks, {name: _final_rms(report.rms_pos[name]) for name in sorted(report.estimators)})


def _cli_entries() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([*CLI_RUN, "--out", out])
        if status != cli.EXIT_OK:
            raise RuntimeError(f"splitcl {' '.join(CLI_RUN)} exited {status}")
        files = {name: (Path(out) / name).read_bytes() for name in ("metrics.csv", "events.log")}
    return {f"splitcl {' '.join(CLI_RUN)}: {name}": _entry([data], {}) for name, data in files.items()}


def compute() -> dict[str, dict]:
    """Every entry of the golden file, by name, computed on this tree."""
    entries = {}
    for label, build in SCENARIOS.items():
        sc = build()
        for seed in SEEDS:
            run, frames = _run_once_entries(sc, seed)
            entries[f"run_once {label} seed={seed}"] = run
            entries[f"frames {label} seed={seed}"] = frames
            entries[f"verify exact {label} seed={seed}"] = _verify_entry(check_exact_equivalence(sc, seed))
            entries[f"verify dropout {label} seed={seed}"] = _verify_entry(check_dropout_equivalence(sc, seed))
    entries["run_monte_carlo table1 n_runs=3 seed=4"] = _monte_carlo_entry()
    entries.update(_cli_entries())
    return entries


def main() -> None:
    doc = {"toolchain": toolchain(), "entries": compute()}
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(doc['entries'])} entries to {GOLDEN_FILE}")


if __name__ == "__main__":
    main()
