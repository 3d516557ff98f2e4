"""Point the benchmark at the splitcl sources of its own checkout.

The benchmark lives in ``perfbench/`` next to ``src/``; it never relies on an
installed copy of the package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Thread-count variables of the BLAS builds numpy may link against. They are
# read when numpy loads, so pin_blas() must run before the first numpy import.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas() -> None:
    """Run every BLAS call of this process and its children on one thread."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit 1 if it is missing."""
    if not (SRC / "splitcl" / "__init__.py").is_file():
        sys.exit(f"error: no splitcl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
