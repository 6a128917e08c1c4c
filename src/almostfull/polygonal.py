"""Exact calculus of piecewise-linear functions on the unit interval.

A ``Polygonal`` is determined by strictly increasing rational breakpoints
``0 = t0 < ... < tM = 1`` and rational values, interpolated linearly in
between.  It stores its nodes as integers over two common denominators:
breakpoint i is ``x[i] / xd`` and its value ``v[i] / vd``, where ``xd`` and
``vd`` are the lcm of the breakpoints' and of the values' denominators.
Evaluation, integrals, lattice and linear combinations and sublevel sets
are integer arithmetic on these numerators, with a ``Fraction`` built only
for the result.  The form is canonical (interior nodes on the segment
through their neighbours are dropped, both denominators are reduced), so
equality of objects is equality of functions.  ``xs`` and ``vs`` view the
nodes as tuples of ``Fraction``, built on first use.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import add, lt, mul, ne, sub
from typing import Iterable, Sequence

from .exact import (CReal, DyadicInterval, ceil_log2, clamp01, to_ratstr,
                    from_ratstr)

ZERO = Fraction(0)
ONE = Fraction(1)


class Polygonal:
    """Continuous piecewise-linear function on [0, 1] with exact arithmetic."""

    __slots__ = ("_x", "_xd", "_v", "_vd", "_integral", "_lipschitz", "_xs", "_vs")

    def __init__(self, xs: Sequence, vs: Sequence):
        xs = [Fraction(x) for x in xs]
        vs = [Fraction(v) for v in vs]
        if len(xs) != len(vs) or len(xs) < 2:
            raise ValueError("need matching breakpoints and values, at least two")
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not all(map(lt, xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        xd = lcm(*(t.denominator for t in xs))
        vd = lcm(*(t.denominator for t in vs))
        self._set(*_reduced(*_kinks([t.numerator * (xd // t.denominator) for t in xs], xd,
                                    [t.numerator * (vd // t.denominator) for t in vs], vd)))

    def _set(self, x, xd, v, vd) -> None:
        self._x, self._xd, self._v, self._vd = x, xd, v, vd
        self._integral = self._lipschitz = self._xs = self._vs = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_integers(x: Sequence[int], xd: int, v: Sequence[int],
                      vd: int) -> "Polygonal":
        """Nodes ``(x[i] / xd, v[i] / vd)``; x strictly increasing from 0 to xd."""
        return _of_kinks(*_kinks(x, xd, v, vd))

    @staticmethod
    def constant(c) -> "Polygonal":
        c = Fraction(c)
        return _of_kinks((0, 1), 1, (c.numerator, c.numerator), c.denominator)

    @staticmethod
    def identity() -> "Polygonal":
        return _of_kinks((0, 1), 1, (0, 1), 1)

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "Polygonal":
        pts = sorted((Fraction(t), Fraction(v)) for t, v in pairs)
        return cls(tuple(t for t, _ in pts), tuple(v for _, v in pts))

    @staticmethod
    def tent(center, height=ONE, half_width=None) -> "Polygonal":
        """Triangular bump of the given height around ``center``, clipped to [0, 1]."""
        c = Fraction(center)
        h = Fraction(height)
        w = Fraction(half_width) if half_width is not None else min(c, 1 - c)
        if not 0 < c < 1:
            raise ValueError("tent center must be interior")
        if w <= 0 or h < 0:
            raise ValueError("tent needs positive width and nonnegative height")
        # Over xd, the center is cn and the half-width wn; values over wn * hd.
        xd = lcm(c.denominator, w.denominator)
        cn, wn = c.numerator * (xd // c.denominator), w.numerator * (xd // w.denominator)
        x = [0, *(t for t in (cn - wn, cn, cn + wn) if 0 < t < xd), xd]
        v = [h.numerator * max(0, wn - abs(t - cn)) for t in x]
        return Polygonal.from_integers(x, xd, v, wn * h.denominator)

    # -- rational views ----------------------------------------------------------

    @property
    def xs(self) -> tuple:
        """Breakpoints as rationals."""
        if self._xs is None:
            self._xs = tuple(map(Fraction, self._x, repeat(self._xd)))
        return self._xs

    @property
    def vs(self) -> tuple:
        """Values at the breakpoints as rationals."""
        if self._vs is None:
            self._vs = tuple(map(Fraction, self._v, repeat(self._vd)))
        return self._vs

    # -- basic queries ---------------------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact value at a rational point of [0, 1]: one point of ``values_at``."""
        x = x if type(x) is Fraction else Fraction(x)
        (num,), den = self.values_at((x.numerator,), x.denominator)
        return Fraction(num, den)

    def values_at(self, nums: Sequence[int], den: int):
        """Exact values at the sorted points ``nums[i] / den`` of [0, 1], one
        segment at a time: ``(out, d)``, value i being ``out[i] / d``."""
        if nums and (nums[0] < 0 or nums[-1] > den):
            bad = nums[0] if nums[0] < 0 else nums[bisect_right(nums, den)]
            raise ValueError(f"point {Fraction(bad, den)} outside [0, 1]")
        xs, v, xd, last, n = self._x, self._v, self._xd, len(self._x) - 2, len(nums)
        # Segment i holds nums[lo] / den and the next q / den with q * xd < xs[i + 1] * den;
        # the last one takes the rest.  w is the lcm of their widths.
        runs, lo, w = [], 0, 1
        while lo < n:
            i = bisect_right(xs, nums[lo] * xd // den, 0, last + 1) - 1
            hi = n if i == last else bisect_left(nums, -(-xs[i + 1] * den // xd), lo)
            runs.append((i, lo, hi))
            w = lcm(w, xs[i + 1] - xs[i])
            lo = hi
        # On segment i the value's numerator over vd * den * w is affine in p.
        out = []
        for i, lo, hi in runs:
            x0, x1, k = xs[i], xs[i + 1], w // (xs[i + 1] - xs[i])
            a, b = (v[i] * x1 - v[i + 1] * x0) * den * k, (v[i + 1] - v[i]) * xd * k
            out += repeat(a, hi - lo) if b == 0 else [a + b * p for p in nums[lo:hi]]
        return out, self._vd * den * w

    def _twice_area(self, i: int, j: int) -> int:
        """Twice the integral from node i to node j, as a numerator over ``xd * vd``."""
        x, v = self._x, self._v
        return sum(map(mul, map(sub, x[i + 1:j + 1], x[i:j]),
                       map(add, v[i:j], v[i + 1:j + 1])))

    def integral(self) -> Fraction:
        """Exact integral over [0, 1] (trapezoid sum)."""
        if self._integral is None:
            self._integral = Fraction(self._twice_area(0, len(self._x) - 1),
                                      2 * self._xd * self._vd)
        return self._integral

    def integral_on(self, lo, hi) -> Fraction:
        """Exact integral over [lo, hi] within [0, 1]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi <= 1:
            raise ValueError("bad subinterval")
        if lo == hi:
            return ZERO
        if lo == 0 and hi == 1:
            return self.integral()
        i, a, da = self._partial(lo)
        j, b, db = self._partial(hi)
        return Fraction(self._twice_area(i, j) * da * db + b * da - a * db,
                        2 * self._xd * self._vd * da * db)

    def _partial(self, t: Fraction):
        """``(i, num, den)``: node i at or before t, and twice the integral
        from node i to t as ``num / (den * xd * vd)``.

        With ``s = t xd - x[i]`` that is ``s (2 v[i] + dv s / dx)`` over ``xd vd``.
        """
        x, v, xd = self._x, self._v, self._xd
        p, q = t.numerator, t.denominator
        i = min(bisect_right(x, p * xd // q), len(x) - 1) - 1
        s, dx = p * xd - x[i] * q, x[i + 1] - x[i]
        return i, s * (2 * v[i] * q * dx + (v[i + 1] - v[i]) * s), q * q * dx

    def lipschitz(self) -> Fraction:
        """Largest absolute slope; 0 for constants."""
        if self._lipschitz is None:
            x, v = self._x, self._v
            rise, run = 0, 1
            for dx, dv in zip(map(sub, x[1:], x[:-1]), map(sub, v[1:], v[:-1])):
                if abs(dv) * run > rise * dx:
                    rise, run = abs(dv), dx
            self._lipschitz = Fraction(rise * self._xd, run * self._vd)
        return self._lipschitz

    def vanishes_on(self, lo, hi) -> bool:
        """Whether the function is identically 0 on ``[lo, hi]``, for ``lo < hi``.

        True when every node from the last one at or before lo to the first
        one at or after hi is 0; for a nonnegative function that is exactly
        ``integral_on(lo, hi) == 0``.
        """
        x, xd = self._x, self._xd
        i = bisect_right(x, lo.numerator * xd // lo.denominator) - 1
        j = bisect_left(x, -(-hi.numerator * xd // hi.denominator), i)
        return not any(self._v[i:j + 1])

    def min_value(self) -> Fraction:
        return Fraction(min(self._v), self._vd)

    def max_value(self) -> Fraction:
        return Fraction(max(self._v), self._vd)

    def is_zero(self) -> bool:
        return not any(self._v)

    def is_nonneg(self) -> bool:
        return min(self._v) >= 0

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "Polygonal") -> "Polygonal":
        x, xd, a, b, vd = _merge(self, other)
        return Polygonal.from_integers(x, xd, list(map(add, a, b)), vd)

    def __sub__(self, other: "Polygonal") -> "Polygonal":
        x, xd, a, b, vd = _merge(self, other)
        return Polygonal.from_integers(x, xd, list(map(sub, a, b)), vd)

    def __mul__(self, c) -> "Polygonal":
        c = Fraction(c)
        if c == 0:
            return Polygonal.constant(0)
        cn = c.numerator
        return _of_kinks(self._x, self._xd, [t * cn for t in self._v],
                         self._vd * c.denominator)

    __rmul__ = __mul__

    def __neg__(self) -> "Polygonal":
        return self * -1

    def __abs__(self) -> "Polygonal":
        v = self._v
        # The absolute value of a canonical function keeps every kink.
        return _with_crossings(self._x, self._xd, list(map(abs, v)), v, v, self._vd,
                               _of_kinks)

    def min_with(self, other: "Polygonal") -> "Polygonal":
        x, xd, a, b, vd = _merge(self, other)
        return _with_crossings(x, xd, list(map(min, a, b)), a, list(map(sub, a, b)), vd)

    def max_with(self, other: "Polygonal") -> "Polygonal":
        x, xd, a, b, vd = _merge(self, other)
        return _with_crossings(x, xd, list(map(max, a, b)), a, list(map(sub, a, b)), vd)

    # -- evaluation at certified reals ------------------------------------------

    def eval_creal(self, x: CReal) -> CReal:
        """Value at a CReal point, with slope-aware precision bookkeeping.

        At a rational point the value is computed once and is exact.
        """
        if x.rational is not None:
            return CReal.from_rational(self.eval(clamp01(x.rational)))
        lam = self.lipschitz()
        shift = 0 if lam <= 1 else ceil_log2(lam)

        def fn(p: int) -> Fraction:
            return self.eval(clamp01(x.approx(p + shift)))

        return CReal(fn)

    # -- serialization -----------------------------------------------------------

    def to_pairs(self) -> list:
        return [[to_ratstr(t), to_ratstr(v)] for t, v in zip(self.xs, self.vs)]

    def to_json(self) -> str:
        return json.dumps(self.to_pairs(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Polygonal":
        pairs = json.loads(text)
        return cls.from_pairs((from_ratstr(t), from_ratstr(v)) for t, v in pairs)

    # -- dunder plumbing -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equality of functions: the canonical integer nodes are compared."""
        if not isinstance(other, Polygonal):
            return NotImplemented
        return (self._xd == other._xd and self._vd == other._vd
                and self._x == other._x and self._v == other._v)

    def __hash__(self):
        return hash((self._x, self._xd, self._v, self._vd))

    def __repr__(self):
        if len(self._x) <= 6:
            pts = ", ".join(f"({t}, {v})" for t, v in zip(self.xs, self.vs))
        else:
            pts = f"{len(self._x)} nodes"
        return f"Polygonal({pts})"


def _kinks(x, xd, v, vd):
    """Drop the interior nodes that lie on the segment through their neighbours.

    A node is dropped when the slopes on its two sides agree; its original
    neighbours decide this even when they are dropped too, since a dropped
    node passes its slope on.
    """
    if len(x) > 2:
        dx = list(map(sub, x[1:], x[:-1]))
        dv = list(map(sub, v[1:], v[:-1]))
        keep = list(map(ne, map(mul, dv[:-1], dx[1:]), map(mul, dv[1:], dx[:-1])))
        if not all(keep):
            x = [x[0], *compress(x[1:-1], keep), x[-1]]
            v = [v[0], *compress(v[1:-1], keep), v[-1]]
    return x, xd, v, vd


def _lowest(nums, den):
    """Numerators and their denominator divided by the gcd of all of them."""
    g = gcd(den, *nums)
    return tuple([t // g for t in nums] if g > 1 else nums), den // g


def _reduced(x, xd, v, vd):
    """Canonical form of nodes that are all kinks: both denominators reduced."""
    return (*_lowest(x, xd), *_lowest(v, vd))


def _of_kinks(x, xd, v, vd) -> Polygonal:
    out = object.__new__(Polygonal)
    out._set(*_reduced(x, xd, v, vd))
    return out


def _merge(a: Polygonal, b: Polygonal):
    """Common refinement of two polygonals, in integers.

    Returns ``(grid, xd, va, vb, vd)``: the union of both breakpoint sets as
    numerators over ``xd``, the lcm of the x-denominators, and both
    functions' values at every grid point as numerators over one ``vd``.
    """
    xd = lcm(a._xd, b._xd)
    ax, bx = _nodes_over(a, xd), _nodes_over(b, xd)
    if ax == bx:
        grid, at = ax, None
    else:
        grid = sorted(set(ax).union(bx))
        at = dict(zip(grid, count()))
    va, da = _resample(ax, a._v, a._vd, grid, at)
    vb, db = _resample(bx, b._v, b._vd, grid, at)
    vd = lcm(da, db)
    if vd != da:
        va = list(map(mul, va, repeat(vd // da)))
    if vd != db:
        vb = list(map(mul, vb, repeat(vd // db)))
    return grid, xd, va, vb, vd


def _nodes_over(h: Polygonal, xd: int):
    """h's breakpoint numerators over ``xd``, a multiple of ``h._xd``."""
    return h._x if xd == h._xd else tuple(map(mul, h._x, repeat(xd // h._xd)))


def linear_sum(pairs: Iterable) -> Polygonal:
    """``sum c * h`` over the pairs ``(c, h)``, in one merge of all breakpoints.

    Each term is resampled onto the union of every term's breakpoints and
    added, scaled by c, into one running list of numerators over one
    denominator, so only one resampled column is held at a time and no
    intermediate polygonal is built.  Equals the fold of ``*`` and ``+``.
    """
    pairs = [(c, h) for c, h in ((Fraction(c), h) for c, h in pairs)
             if c and not h.is_zero()]
    if not pairs:
        return Polygonal.constant(0)
    xd = lcm(*(h._xd for _, h in pairs))
    grid = sorted(set().union(*(_nodes_over(h, xd) for _, h in pairs)))
    at = dict(zip(grid, count()))
    acc, den = repeat(0, len(grid)), 1
    for c, h in pairs:
        col, d = _resample(_nodes_over(h, xd), h._v, h._vd, grid, at)
        d *= c.denominator
        common = lcm(den, d)
        if common != den:
            acc = map(mul, acc, repeat(common // den))
        acc = list(map(add, acc, map(mul, col, repeat(c.numerator * (common // d)))))
        den = common
    return Polygonal.from_integers(grid, xd, acc, den)


def _resample(x, v, vd, grid, at):
    """Values at every point of ``grid``, a superset of the nodes ``x``.

    ``at`` maps grid points to their positions.  A grid point inside the
    segment from ``x0`` to ``x1`` gets ``(v0 (x1 - t) + v1 (t - x0)) / (x1 - x0)``;
    in a second pass every value is brought over ``vd`` times the lcm of the
    split segments' widths.  Returns the numerators and that denominator.
    """
    if len(x) == len(grid):
        return v, vd
    pos = list(map(at.__getitem__, x))
    splits = list(compress(count(), map(lt, repeat(1), map(sub, pos[1:], pos[:-1]))))
    scale = lcm(*(x[k + 1] - x[k] for k in splits))
    sv = v if scale == 1 else list(map(mul, v, repeat(scale)))
    out, done = [], 0
    for k in splits:
        x0, x1, v0, v1 = x[k], x[k + 1], v[k], v[k + 1]
        f = scale // (x1 - x0)
        c0, c1 = (v0 * x1 - v1 * x0) * f, (v1 - v0) * f
        out += sv[done:k + 1]
        out += [c0 + c1 * t for t in grid[pos[k] + 1:pos[k + 1]]]
        done = k + 1
    out += sv[done:]
    return out, vd * scale


def _sign_changes(d):
    """Indices k where d changes sign strictly between k and k + 1."""
    return compress(count(), map(lt, map(mul, d[:-1], d[1:]), repeat(0)))


def _with_crossings(x, xd, out, a, d, vd, make=Polygonal.from_integers) -> Polygonal:
    """Nodes ``x`` with values ``out``, plus a node wherever d changes sign.

    On a segment where d goes from d0 to d1 of the other sign, the crossing
    is at ``(x1 d0 - x0 d1) / (d0 - d1)`` and takes a's value there,
    ``(a1 d0 - a0 d1) / (d0 - d1)``, over the denominators ``xd`` and ``vd``.
    Each crossing is reduced by its gcd, then all are brought to one pair of
    denominators; ``make`` builds the result.
    """
    pts = []
    for k in _sign_changes(d):
        d0, d1 = d[k], d[k + 1]
        e = d0 - d1
        tn, vn = x[k + 1] * d0 - x[k] * d1, a[k + 1] * d0 - a[k] * d1
        if e < 0:
            e, tn, vn = -e, -tn, -vn
        gt, gv = gcd(tn, e), gcd(vn, e)
        pts.append((k, tn // gt, e // gt, vn // gv, e // gv))
    if not pts:
        return make(x, xd, out, vd)
    mx = lcm(*(p[2] for p in pts))
    mv = lcm(*(p[4] for p in pts))
    sx = x if mx == 1 else list(map(mul, x, repeat(mx)))
    sv = out if mv == 1 else list(map(mul, out, repeat(mv)))
    nx, nv, done = [], [], 0
    for k, tn, te, vn, ve in pts:
        nx += sx[done:k + 1]
        nx.append(tn * (mx // te))
        nv += sv[done:k + 1]
        nv.append(vn * (mv // ve))
        done = k + 1
    nx += sx[done:]
    nv += sv[done:]
    return make(nx, xd * mx, nv, vd * mv)


def l1_distance(a: Polygonal, b: Polygonal) -> Fraction:
    """Exact ``integral |a - b|`` in one pass, without building a - b.

    Sums over the common grid in integers.  Where ``d = a - b`` keeps its
    sign on a segment, ``|d0 + d1| dx / 2`` is exact; where it changes sign
    the two triangles give ``dx (d0^2 + d1^2) / (2 (|d0| + |d1|))``, so only
    crossing segments pay a division.
    """
    x, xd, va, vb, vd = _merge(a, b)
    d = list(map(sub, va, vb))
    dx = list(map(sub, x[1:], x[:-1]))
    total = sum(map(mul, map(abs, map(add, d[:-1], d[1:])), dx))
    crossings = ZERO
    for k in _sign_changes(d):
        d0, d1 = d[k], d[k + 1]
        total -= abs(d0 + d1) * dx[k]
        crossings += Fraction(dx[k] * (d0 * d0 + d1 * d1), abs(d0) + abs(d1))
    return (crossings + total) / (2 * xd * vd)


class IntervalUnion:
    """Finite disjoint union of open rational intervals inside [0, 1].

    Components are kept sorted; neighbouring components may share an endpoint
    (the shared point itself is excluded, which matters for strict sublevel
    sets).  The exact total length is the measure of the union.
    """

    __slots__ = ("ivs",)

    def __init__(self, intervals: Iterable, _trusted: bool = False):
        if _trusted:
            self.ivs = tuple(intervals)
            return
        cleaned = []
        for a, b in intervals:
            a, b = Fraction(a), Fraction(b)
            if b <= a:
                continue
            if a < 0 or b > 1:
                raise ValueError("components must lie inside [0, 1]")
            cleaned.append((a, b))
        cleaned.sort()
        for (a0, b0), (a1, b1) in zip(cleaned, cleaned[1:]):
            if a1 < b0:
                raise ValueError("components must be disjoint")
        self.ivs = tuple(cleaned)

    @classmethod
    def whole(cls) -> "IntervalUnion":
        return cls(((ZERO, ONE),))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @property
    def length(self) -> Fraction:
        return sum((b - a for a, b in self.ivs), ZERO)

    def is_empty(self) -> bool:
        return not self.ivs

    def endpoints(self) -> list:
        out = []
        for a, b in self.ivs:
            out.append(a)
            out.append(b)
        return out

    def contains(self, x) -> bool:
        """Strict interior membership."""
        x = Fraction(x)
        return any(a < x < b for a, b in self.ivs)

    def largest_component(self):
        if not self.ivs:
            raise ValueError("empty union has no components")
        return max(self.ivs, key=lambda iv: (iv[1] - iv[0], -iv[0]))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        i = j = 0
        a, b = self.ivs, other.ivs
        while i < len(a) and j < len(b):
            lo = a[i][0] if a[i][0] >= b[j][0] else b[j][0]
            hi = a[i][1] if a[i][1] <= b[j][1] else b[j][1]
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion(out, _trusted=True)

    def intersect_interval(self, lo, hi) -> "IntervalUnion":
        lo, hi = Fraction(lo), Fraction(hi)
        out = []
        for a, b in self.ivs:
            if b <= lo:
                continue
            if a >= hi:
                break
            s = a if a >= lo else lo
            e = b if b <= hi else hi
            if s < e:
                out.append((s, e))
        return IntervalUnion(out, _trusted=True)

    def complement(self) -> "IntervalUnion":
        """Open complement within (0, 1), up to finitely many points."""
        out = []
        prev = ZERO
        for a, b in self.ivs:
            if prev < a:
                out.append((prev, a))
            prev = b
        if prev < 1:
            out.append((prev, ONE))
        return IntervalUnion(out)

    def __eq__(self, other):
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self.ivs == other.ivs

    def __hash__(self):
        return hash(self.ivs)

    def __repr__(self):
        return f"IntervalUnion({list(self.ivs)!r})"


def sublevel(h: Polygonal, theta) -> IntervalUnion:
    """Open set where h < theta, as a finite union of open intervals.

    Touch points with h == theta are excluded, so membership in a component
    certifies the strict inequality.  For nonnegative h the total length is
    at least 1 - integral(h)/theta.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("threshold must be positive")
    # h < theta at node i exactly when w[i] < top.
    x, xd = h._x, h._xd
    top = theta.numerator * h._vd
    w = list(map(mul, h._v, repeat(theta.denominator)))
    out = []
    start = ZERO if w[0] < top else None
    for i in range(len(x) - 1):
        w0, w1 = w[i], w[i + 1]
        if (w0 < top) == (w1 < top):
            continue
        # h crosses theta on this segment (at a node when it touches it there).
        r = Fraction(x[i] * (w1 - top) + x[i + 1] * (top - w0), xd * (w1 - w0))
        if start is None:
            start = r
        else:
            out.append((start, r))
            start = None
    if start is not None:
        out.append((start, ONE))
    return IntervalUnion(out, _trusted=True)


def indicator_approx(interval, j: int) -> Polygonal:
    """Trapezoid approximant of the indicator of an open interval: the
    ``union_indicator`` of the one-component union.

    Ramps of width ``2**-(j+2) * length`` sit just inside the interval, so the
    function is 1 on the middle, 0 outside, and successive approximants differ
    by ``2**-(j+3) * length`` in the L1 norm.
    """
    if isinstance(interval, DyadicInterval):
        a, b = interval.left, interval.right
    else:
        a, b = Fraction(interval[0]), Fraction(interval[1])
    if not 0 <= a < b <= 1:
        raise ValueError("need a nondegenerate interval inside [0, 1]")
    return union_indicator(IntervalUnion(((a, b),), _trusted=True), j)


def union_indicator(union: IntervalUnion, j: int) -> Polygonal:
    """Sum of indicator approximants over the components of a disjoint union."""
    if j < 0:
        raise ValueError("grid index must be >= 0")
    if union.is_empty():
        return Polygonal.constant(0)
    den = lcm(*(t.denominator for iv in union.ivs for t in iv))
    pieces = ((a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), 1)
              for a, b in union.ivs)
    return _of_kinks(*_trapezoids(pieces, den, j + 2), 1)


def _trapezoids(pieces, den: int, s: int):
    """Canonical integer nodes ``(x, xd, v)`` of a sum of trapezoids on
    disjoint intervals: the one place that knows the trapezoid shape.

    Piece ``(a, b, h)`` has integer ends over ``den`` and a nonzero height
    h, with ramps of width ``(b - a) * 2**-s``, s >= 2, just inside its
    ends.  Every node is a kink except, possibly, the one where two pieces
    touch: it is dropped when their ramps have one slope, which needs
    heights of opposite sign.
    """
    x, v, hp, wp = [0], [0], 0, 1
    for a, b, h in pieces:
        w, a, b = b - a, a << s, b << s
        if a != x[-1]:
            x.append(a)
            v.append(0)
        elif h * wp == -hp * w:
            x.pop()
            v.pop()
        x += (a + w, b - w, b)
        v += (h, h, 0)
        hp, wp = h, w
    if x[-1] != den << s:
        x.append(den << s)
        v.append(0)
    return x, den << s, v


class Plateaus:
    """Cell values of a step profile as integers over one common denominator.

    Value l is ``nums[l] / den``, where ``den`` is the lcm of the values'
    denominators; ``total`` and ``abs_total`` are the sums of the numerators
    and of their absolute values.  Indexing and iteration give the values as
    rationals.  A net builds one and shares it between all of its profiles,
    so their integrals and L1 bounds are integer sums with a single division.
    """

    __slots__ = ("nums", "den", "total", "abs_total")

    def __init__(self, values: Iterable):
        values = [v if type(v) is Fraction else Fraction(v) for v in values]
        den = lcm(*{v.denominator for v in values})
        self.nums = tuple(v.numerator * (den // v.denominator) for v in values)
        self.den = den
        self.total = sum(self.nums)
        self.abs_total = sum(map(abs, self.nums))

    @classmethod
    def from_integers(cls, nums: Sequence[int], den: int) -> "Plateaus":
        """Values ``nums[l] / den``, in the canonical form the rationals give."""
        out, g = cls.__new__(cls), gcd(den, *nums)
        if g > 1:
            nums, den = [n // g for n in nums], den // g
        out.nums, out.den = tuple(nums), den
        out.total, out.abs_total = sum(out.nums), sum(map(abs, out.nums))
        return out

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, l: int) -> Fraction:
        return Fraction(self.nums[l], self.den)


class StepPolygonal(Polygonal):
    """Dyadic step profile with trapezoid ramps, kept in closed form.

    Stores the cell values as ``Plateaus`` (integer numerators over one
    common denominator) plus the ramp grid index.  ``integral``, ``eval``
    and ``ramp_slack`` (and with it ``l1_upper`` against another step
    profile) run off that metadata in integer arithmetic; every other
    method is the inherited one, on the canonical nodes that ``_trapezoids``
    emits when first asked for.
    """

    __slots__ = ("coeffs", "level", "ramp_exp")

    def __init__(self, coeffs, level: int, ramp_exp: int):
        if not isinstance(coeffs, Plateaus):
            coeffs = Plateaus(coeffs)
        if len(coeffs) != (1 << level):
            raise ValueError("need one coefficient per cell")
        if ramp_exp < 0:
            raise ValueError("ramp grid index must be >= 0")
        self.coeffs = coeffs
        self.level = level
        self.ramp_exp = ramp_exp
        self._integral = self._lipschitz = self._xs = self._vs = None

    def __getattr__(self, name):
        if name in ("_x", "_xd", "_v", "_vd"):
            c = self.coeffs
            cells = zip(count(), count(1), c.nums)
            x, xd, v = _trapezoids(compress(cells, c.nums), 1 << self.level, self.ramp_exp + 2)
            self._x, self._xd, self._v, self._vd = _reduced(x, xd, v, c.den)
            return getattr(self, name)
        raise AttributeError(name)

    @property
    def _ramp_bits(self) -> int:
        """The ramp width is ``2**-_ramp_bits``."""
        return self.level + self.ramp_exp + 2

    def integral(self) -> Fraction:
        if self._integral is None:
            # Each plateau spans 2**-level less one ramp width, which is
            # (2**(ramp_exp + 2) - 1) ramp widths.
            c = self.coeffs
            spans = (1 << (self.ramp_exp + 2)) - 1
            self._integral = Fraction(c.total * spans, c.den << self._ramp_bits)
        return self._integral

    def eval(self, x) -> Fraction:
        if type(x) is not Fraction:
            x = Fraction(x)
        p, q = x.numerator, x.denominator
        if not 0 <= p <= q:
            raise ValueError(f"point {x} outside [0, 1]")
        m, bits = self.level, self._ramp_bits
        idx = (p << m) // q
        if idx == (1 << m):
            return ZERO
        num = self.coeffs.nums[idx]
        if num == 0:
            return ZERO
        # The offset into the cell is off / q ramp widths; a cell is span of them.
        span = 1 << (bits - m)
        off = (p << bits) - idx * span * q
        if off <= q:
            return Fraction(num * off, self.coeffs.den * q)
        if off >= (span - 1) * q:
            return Fraction(num * (span * q - off), self.coeffs.den * q)
        return Fraction(num, self.coeffs.den)

    def ramp_slack(self) -> Fraction:
        """Exact L1 distance to the pure step with the same plateaus."""
        return Fraction(self.coeffs.abs_total, self.coeffs.den << self._ramp_bits)


def step_function(coeffs, m: int, j: int) -> Polygonal:
    """Dyadic step profile with trapezoid ramps at grid index j.

    ``coeffs[l]`` is the plateau value on the cell (l*2**-m, (l+1)*2**-m);
    ``coeffs`` is a sequence of rationals or a ``Plateaus`` to share.  The
    profile is 0 at every cell boundary and climbs over ramps of width
    ``2**-(j+2) * 2**-m`` just inside each cell, so it equals the sum of the
    cells' indicator approximants scaled by their coefficients.
    """
    return StepPolygonal(coeffs, m, j)


def step_plateau_l1(a: StepPolygonal, b: StepPolygonal) -> Fraction:
    """Exact L1 distance between the pure-step parts of two profiles."""
    if a.level > b.level:
        a, b = b, a
    pa, pb = a.coeffs, b.coeffs
    if pa is pb:
        return ZERO
    # Bring both to the denominator lcm(da, db) and a to b's cells.
    g = gcd(pa.den, pb.den)
    sa, sb = pb.den // g, pa.den // g
    na = pa.nums if sa == 1 else [n * sa for n in pa.nums]
    nb = pb.nums if sb == 1 else [n * sb for n in pb.nums]
    ratio = 1 << (b.level - a.level)
    if ratio > 1:
        na = chain.from_iterable(map(repeat, na, repeat(ratio)))
    total = sum(map(abs, map(sub, na, nb)))
    return Fraction(total, (pa.den * sa) << b.level)


def l1_upper(a: Polygonal, b: Polygonal):
    """Cheap certified upper bound for ``integral |a - b|``, when available.

    Returns None unless both sides are step profiles; the bound charges the
    exact plateau distance plus both ramp masses, so it dominates the exact
    integral.
    """
    if isinstance(a, StepPolygonal) and isinstance(b, StepPolygonal):
        return step_plateau_l1(a, b) + a.ramp_slack() + b.ramp_slack()
    return None


def l1_bound(a: Polygonal, b: Polygonal, enough=lambda gap: True) -> Fraction:
    """An upper bound for ``integral |a - b|``: ``l1_upper`` when it exists and
    ``enough`` accepts it, else the exact ``l1_distance``."""
    gap = l1_upper(a, b)
    if gap is None or not enough(gap):
        gap = l1_distance(a, b)
    return gap
