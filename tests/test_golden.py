"""Every output the golden file pins, recomputed on this tree.

``tests/golden_outputs.py`` states the recipe and rewrites the file. The
hashes are compared only on the toolchain that wrote the file, since the
float bits may differ on another Python, numpy or machine; there the hash
test is skipped and its reason names both toolchains. The summaries are
compared on every toolchain, each within ``RELATIVE_BOUND`` of its recorded
value or within ``ABSOLUTE_FLOOR`` of it. The floor is for verify's max
diffs: they are rounding error, so another toolchain has its own bits for
them, and only their scale, far under verify's 1e-8 gate, is pinned.
"""

import json
import math

import pytest

from golden_outputs import GOLDEN_FILE, compute, toolchain

RELATIVE_BOUND = 1e-6
ABSOLUTE_FLOOR = 1e-10


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute()


def test_summaries_match_the_golden_file(golden, computed):
    assert computed.keys() == golden["entries"].keys()
    for name, entry in golden["entries"].items():
        got = computed[name]["summary"]
        assert got.keys() == entry["summary"].keys(), name
        for key, want in entry["summary"].items():
            assert math.isclose(
                got[key], want, rel_tol=RELATIVE_BOUND, abs_tol=ABSOLUTE_FLOOR
            ), f"{name}, {key}: {got[key]!r}, recorded {want!r}"


def test_hashes_match_the_golden_file_on_its_toolchain(golden, computed):
    running = toolchain()
    if running != golden["toolchain"]:
        pytest.skip(
            f"summaries only, hashes not compared: the file was written on "
            f"{golden['toolchain']}, this is {running}"
        )
    differ = [
        name for name, entry in golden["entries"].items()
        if computed[name]["sha256"] != entry["sha256"]
    ]
    assert not differ, f"outputs differ from the golden file: {differ}"
