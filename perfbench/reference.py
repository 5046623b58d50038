"""A fixed reference loop that times the host, not the program.

The host is shared, and its speed drifts by up to a third from one minute
to the next.  The pass launcher (perfbench/child.py) times this loop just before
and just after each pass, and `wall_rel` is the pass's wall time divided by
the mean of the two, so that a slow spell of the host lengthens both and
cancels.  The loop imports nothing from divfilt and never changes, so a
change to the program moves only the numerator.  Its mix resembles where
divfilt spends its time: int products and isqrt, dict counting, Fractions
with growing denominators, and str formatting.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from math import isqrt
from time import perf_counter

N = 60_000


def work() -> int:
    counts: dict = {}
    total = Fraction(0)
    chars = 0
    for k in range(1, N + 1):
        s = isqrt(3 * k * k)
        v = (9 * k + s) // 26
        counts[v % 7] = counts.get(v % 7, 0) + 1
        if k % 8 == 0:
            total += Fraction(v, k)
            chars += len(f"{k},{v},{s}")
    return chars + sum(counts.values()) + total.numerator % 97


def seconds() -> float:
    """Wall time of one `work()`, with the garbage collector off (the loop
    makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
