"""A fixed pure-Python reference computation that gauges the machine's speed.

Other tenants of a shared machine can slow every process on it by a third
or more for minutes at a time, longer than one benchmark run.  ``run.py``
therefore times this chunk between the operations of each list and scales
the list's timings by ``NOMINAL_S`` over the chunk's median time: a
slowdown that hits the program hits the chunk too and cancels, while a
change to the program leaves the chunk alone.

The chunk does the kinds of work the library does, with nothing imported
from it: an exact ``Fraction`` remainder sequence (the Sturm kernel's
shape), an integer convolution (``polyalg.multiply``'s shape) and float
Horner evaluation (the line-field tracers' shape).
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# About the median time of one chunk on a 2-vCPU Intel Xeon (2.0 GHz) VM under
# Python 3.11; a scaled time reads as wall seconds at that speed.
NOMINAL_S = 0.003

_rng = random.Random(20130110)
_P = [Fraction(_rng.randint(-2 ** 12, 2 ** 12)) for _ in range(13)]
_DP = [c * (len(_P) - 1 - i) for i, c in enumerate(_P[:-1])]
_A = [_rng.randint(-2 ** 64, 2 ** 64) for _ in range(40)]
_B = [_rng.randint(-2 ** 64, 2 ** 64) for _ in range(40)]
_F = [_rng.uniform(-1.0, 1.0) for _ in range(24)]


def _remainders(p, q) -> int:
    count = 2
    while len(q) > 1:
        r = list(p)
        while len(r) >= len(q):
            c = r[0] / q[0]
            for i in range(len(q)):
                r[i] -= c * q[i]
            r.pop(0)
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            break
        p, q = q, [-x for x in r]
        count += 1
    return count


def _convolve(a, b) -> int:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out[len(a)]


def _horner(coeffs, points: int) -> float:
    total = 0.0
    for k in range(points):
        t = -1.0 + 2.0 * k / points
        acc = 0.0
        for c in coeffs:
            acc = acc * t + c
        total += acc
    return total


def chunk() -> float:
    """Run the chunk once; returns its wall time in seconds."""
    t0 = perf_counter()
    _remainders(_P, _DP)
    _convolve(_A, _B)
    _horner(_F, 400)
    return perf_counter() - t0


def scale(times: list[float]) -> float:
    """Factor that turns wall seconds measured beside ``times`` into
    seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(times)
