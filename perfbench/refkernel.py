"""The reference kernel: a fixed pure-Python loop that never calls qaffine.

Its duration is the benchmark's unit `ref`.  It is timed just before and
just after every op, and the op is divided by the geometric mean of the two,
so a slow stretch of the machine stretches both and cancels out of the
op/ref ratio.  The loop mixes what qaffine's hot paths do (small-int
arithmetic, gcd, tuple allocation, dict lookups) so that both respond to
the same kinds of slow-down.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

ITERATIONS = 1500
# the kernel's median duration on the machine the benchmark was tuned on
# (2-vCPU Intel Xeon VM, Python 3.11); it converts refs back to seconds
NOMINAL_SECONDS = 1.2e-3


def kernel() -> int:
    acc: dict[tuple[int, int, int], int] = {}
    x = 12345
    for _ in range(ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        num, den = x % 37 - 18, (x >> 8) % 6 + 1
        g = gcd(num, den)
        key = ((x >> 4) % 24, num // g, den // g)
        acc[key] = acc.get(key, 0) + 1
    return len(acc)


def ref_seconds() -> float:
    """The kernel's duration now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
