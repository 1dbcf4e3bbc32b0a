"""A fixed pure-Python reference workload, timed to track machine speed.

On a shared virtual machine the speed at which the interpreter runs
drifts by tens of percent over seconds to minutes, in CPU time as much
as in wall time, as co-tenants come and go. The benchmark times this
loop next to the library's ops (between ops, at least every
CALIBRATE_EVERY_S) and reports times scaled by NOMINAL_NS / (its time
now): the time the op would take on the machine running at the speed
where this loop takes NOMINAL_NS. The loop never touches the library,
so a change to the library moves the scaled figures exactly as it
moves the raw ones. Raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_NS = 550_000  # the loop's time on a quiet 2-core Xeon, Python 3.11
CALIBRATE_EVERY_S = 0.1


def _work():
    # Integer arithmetic, dict stores, calls and exact fractions, like
    # the library's own inner loops.
    s = 0
    d = {}
    for i in range(3000):
        s += (i * i) % 7
        d[i & 63] = s
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(1, i)
    return s, f


def reference_ns() -> int:
    """The loop's time now: the faster of two back-to-back runs, so an
    interrupt in one of them does not count."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        _work()
        t = time.perf_counter_ns() - t0
        best = t if best is None else min(best, t)
    return best


class Calibrator:
    """The median of the last five reference times, refreshed at most
    every CALIBRATE_EVERY_S."""

    def __init__(self) -> None:
        self.recent: list[int] = []
        self.last = float("-inf")
        self.current = 0

    def now_ns(self) -> int:
        t = time.perf_counter()
        if t - self.last >= CALIBRATE_EVERY_S:
            self.recent = (self.recent + [reference_ns()])[-5:]
            self.current = sorted(self.recent)[len(self.recent) // 2]
            self.last = time.perf_counter()
        return self.current
