"""How fast the host runs right now, from a fixed reference kernel.

On a shared host other processes slow every CPU-bound loop down together:
on a 2-vCPU Intel Xeon guest the same work ran 1.0-1.8x its fastest time,
in stretches from milliseconds to tens of minutes. The kernel below does the
same kind of work as splitcl (3x3 numpy products and float arithmetic in a
Python loop) and never changes, so its speed next to a timed call says how
much of that call's time the host took. ``slowdown()`` is the kernel's mean
unit time over ``UNIT_S``; a call's time divided by it is the time the call
would take on the host the constant was measured on, left alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Mean time of one unit on an unloaded 2-vCPU Intel Xeon guest, Python 3.11,
# numpy 2.4; its fastest units there take 1.87-1.93 ms.
UNIT_S = 2.0e-3
UNITS = 25


def _unit() -> float:
    a = np.eye(3) * 1.01
    x = np.ones(3)
    s = 0.0
    for i in range(400):
        b = a @ a.T + np.diag(x)
        x = b @ x / 3.0
        s += float(x[0]) * 0.5 + i % 7
    return s


def slowdown(units: int = UNITS) -> float:
    """Mean time of ``units`` kernel units over ``UNIT_S``."""
    t0 = perf_counter()
    for _ in range(units):
        _unit()
    return (perf_counter() - t0) / units / UNIT_S
