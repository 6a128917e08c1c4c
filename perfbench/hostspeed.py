"""Host-speed calibration, so that timings measure the library, not the host.

The benchmark runs on a few cores of a shared host whose speed swings by up
to about 1.8x within seconds (a fixed pure-Python loop, in wall and in CPU
time alike).  ``slice_s()`` times a fixed piece of stdlib-only work in the
library's own style (exact ``Fraction`` arithmetic on piecewise-linear
functions: breakpoint merge, evaluation, trapezoid integrals) that does not
touch ``almostfull``, so no change to the library can move it.  Timed
between queries, it says how fast the host ran around each query, and
``normalize`` turns a wall time into seconds on a reference host, one on
which a slice takes ``REFERENCE_SLICE_S``.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

# Slice time of the reference host, a fixed constant that is part of the
# metrics' definition.  On the 2-vCPU shared VM the bounds were measured on
# (Python 3.11.7), a slice took 0.020-0.045 s, most often 0.025-0.037 s.
REFERENCE_SLICE_S = 0.028

_GRID = 48
_XS = [Fraction(k, _GRID) for k in range(_GRID + 1)]
_FS = [Fraction((7 * k) % 13, 13) for k in range(_GRID + 1)]
_GS_XS = [Fraction(k, 37) for k in range(38)]
_GS = [Fraction((5 * k) % 11, 11) for k in range(38)]


def _eval(xs, vs, x):
    i = min(bisect_right(xs, x) - 1, len(xs) - 2)
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return vs[i] + (vs[i + 1] - vs[i]) * t


def _work() -> Fraction:
    """max(f, g) of two rational polygonals, integrated exactly."""
    xs = sorted(set(_XS) | set(_GS_XS))
    top = [max(_eval(_XS, _FS, x), _eval(_GS_XS, _GS, x)) for x in xs]
    return sum(((b - a) * (u + v) / 2
                for a, b, u, v in zip(xs, xs[1:], top, top[1:])), Fraction(0))


def slice_s() -> float:
    """Wall time of the fixed work, about 30 ms, with the cyclic collector
    paused so the heap the queries left behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(6):
            _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalize(wall_s: float, slices: list) -> float:
    """``wall_s`` in reference-host seconds, given slices timed around it."""
    return wall_s * REFERENCE_SLICE_S * len(slices) / sum(slices)
