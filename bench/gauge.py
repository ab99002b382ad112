"""Machine-speed gauge: scales measured seconds to a reference speed.

The benchmark shares its machine with other work, which slows the CPU by up
to a third for minutes at a time.  A fixed pure-Python loop, independent of
the program and made of the same kind of work as its kernels (Fraction and
dict arithmetic), is timed around each instance's ops; multiplying a
measured time by REFERENCE_S / (loop time) gives the time at the reference
speed, so a slow spell of the machine does not read as a slow program.
"""

import time
from fractions import Fraction

# the loop's time on an unloaded 2-core x86-64 container with CPython 3.11
REFERENCE_S = 0.013


def loop_seconds() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total = (total + Fraction(i, i + 7)) * Fraction(3, 5)
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor for times measured between two loop timings."""
    return REFERENCE_S / ((before + after) / 2)
