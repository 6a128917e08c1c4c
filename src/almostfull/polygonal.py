"""Exact calculus of piecewise-linear functions on the unit interval.

A ``Polygonal`` is determined by strictly increasing rational breakpoints
``0 = t0 < ... < tM = 1`` and rational values, interpolated linearly in
between.  All operations (evaluation, integrals, lattice and linear
combinations, sublevel sets) are computed exactly in rational arithmetic.
Instances are canonicalized by dropping interior breakpoints that lie on the
segment through their neighbours, so equality of objects is equality of
functions.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import sub
from typing import Iterable, Sequence

from .exact import (CReal, DyadicInterval, ceil_log2, clamp01, pow2, to_ratstr,
                    from_ratstr)

ZERO = Fraction(0)
ONE = Fraction(1)


class Polygonal:
    """Continuous piecewise-linear function on [0, 1] with exact arithmetic."""

    __slots__ = ("xs", "vs", "_integral", "_lipschitz", "_canon", "_slopes")

    def __init__(self, xs: Sequence, vs: Sequence, _trusted: bool = False):
        if not _trusted:
            xs = tuple(Fraction(x) for x in xs)
            vs = tuple(Fraction(v) for v in vs)
            if len(xs) != len(vs) or len(xs) < 2:
                raise ValueError("need matching breakpoints and values, at least two")
            if xs[0] != 0 or xs[-1] != 1:
                raise ValueError("breakpoints must start at 0 and end at 1")
            for a, b in zip(xs, xs[1:]):
                if not a < b:
                    raise ValueError("breakpoints must be strictly increasing")
            xs, vs = _drop_collinear(xs, vs)
        self.xs = tuple(xs)
        self.vs = tuple(vs)
        self._integral = None
        self._lipschitz = None
        self._canon = None
        self._slopes = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polygonal":
        c = Fraction(c)
        return cls((ZERO, ONE), (c, c), _trusted=True)

    @classmethod
    def identity(cls) -> "Polygonal":
        return cls((ZERO, ONE), (ZERO, ONE), _trusted=True)

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "Polygonal":
        pts = sorted((Fraction(t), Fraction(v)) for t, v in pairs)
        return cls(tuple(t for t, _ in pts), tuple(v for _, v in pts))

    @classmethod
    def tent(cls, center, height=ONE, half_width=None) -> "Polygonal":
        """Triangular bump of the given height around ``center``, clipped to [0, 1]."""
        c = Fraction(center)
        h = Fraction(height)
        w = Fraction(half_width) if half_width is not None else min(c, 1 - c)
        if not 0 < c < 1:
            raise ValueError("tent center must be interior")
        if w <= 0 or h < 0:
            raise ValueError("tent needs positive width and nonnegative height")
        xs = [ZERO]
        vs = [h * (1 - c / w) if c < w else ZERO]
        for t in (c - w, c, c + w):
            if 0 < t < 1 and t > xs[-1]:
                xs.append(t)
                vs.append(h if t == c else ZERO)
        xs.append(ONE)
        vs.append(h * (1 - (1 - c) / w) if 1 - c < w else ZERO)
        return cls(tuple(xs), tuple(vs), _trusted=True)

    # -- basic queries ---------------------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact value at a rational point of [0, 1]."""
        if type(x) is not Fraction:
            x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError(f"point {x} outside [0, 1]")
        xs = self.xs
        i = bisect_right(xs, x) - 1
        if i >= len(xs) - 1:
            return self.vs[-1]
        x0 = xs[i]
        if x == x0:
            return self.vs[i]
        return self.vs[i] + self._seg_slopes()[i] * (x - x0)

    def integral(self) -> Fraction:
        """Exact integral over [0, 1] (trapezoid sum)."""
        if self._integral is None:
            total = ZERO
            xs, vs = self.xs, self.vs
            for i in range(len(xs) - 1):
                total += (xs[i + 1] - xs[i]) * (vs[i] + vs[i + 1])
            self._integral = total / 2
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
        xs, vs = self.xs, self.vs
        i = bisect_right(xs, lo) - 1
        total = ZERO
        prev_x, prev_v = lo, self.eval(lo)
        j = i + 1
        while j < len(xs) and xs[j] < hi:
            total += (xs[j] - prev_x) * (prev_v + vs[j])
            prev_x, prev_v = xs[j], vs[j]
            j += 1
        total += (hi - prev_x) * (prev_v + self.eval(hi))
        return total / 2

    def lipschitz(self) -> Fraction:
        """Largest absolute slope; 0 for constants."""
        if self._lipschitz is None:
            best = ZERO
            xs, vs = self.xs, self.vs
            for i in range(len(xs) - 1):
                s = abs(vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i])
                if s > best:
                    best = s
            self._lipschitz = best
        return self._lipschitz

    def min_value(self) -> Fraction:
        return min(self.vs)

    def max_value(self) -> Fraction:
        return max(self.vs)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.vs)

    def is_nonneg(self) -> bool:
        return self.min_value() >= 0

    def _nodes(self):
        """Canonical node tuples: collinear interior nodes removed, cached."""
        if self._canon is None:
            self._canon = _drop_collinear(self.xs, self.vs)
        return self._canon

    def _seg_slopes(self):
        if self._slopes is None:
            xs, vs = self.xs, self.vs
            self._slopes = tuple(
                (vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i])
                for i in range(len(xs) - 1))
        return self._slopes

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "Polygonal") -> "Polygonal":
        grid, va, vb = _merge(self, other)
        return Polygonal(grid, tuple(a + b for a, b in zip(va, vb)), _trusted=True)

    def __sub__(self, other: "Polygonal") -> "Polygonal":
        grid, va, vb = _merge(self, other)
        return Polygonal(grid, tuple(a - b for a, b in zip(va, vb)), _trusted=True)

    def __mul__(self, c) -> "Polygonal":
        c = Fraction(c)
        return Polygonal(self.xs, tuple(c * v for v in self.vs), _trusted=True)

    __rmul__ = __mul__

    def __neg__(self) -> "Polygonal":
        return self * -1

    def __abs__(self) -> "Polygonal":
        grid, va = _with_roots(self.xs, self.vs)
        return Polygonal(grid, tuple(abs(v) for v in va), _trusted=True)

    def min_with(self, other: "Polygonal") -> "Polygonal":
        grid, va, vb = _merge_with_crossings(self, other)
        return Polygonal(grid, tuple(min(a, b) for a, b in zip(va, vb)), _trusted=True)

    def max_with(self, other: "Polygonal") -> "Polygonal":
        grid, va, vb = _merge_with_crossings(self, other)
        return Polygonal(grid, tuple(max(a, b) for a, b in zip(va, vb)), _trusted=True)

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
        """Equality of functions: canonical node forms are compared."""
        if not isinstance(other, Polygonal):
            return NotImplemented
        return self._nodes() == other._nodes()

    def __hash__(self):
        return hash(self._nodes())

    def __repr__(self):
        if len(self.xs) <= 6:
            pts = ", ".join(f"({t}, {v})" for t, v in zip(self.xs, self.vs))
        else:
            pts = f"{len(self.xs)} nodes"
        return f"Polygonal({pts})"


def _drop_collinear(xs, vs):
    """Remove interior nodes lying on the segment through their neighbours."""
    n = len(xs)
    if n <= 2:
        return tuple(xs), tuple(vs)
    keep_x = [xs[0]]
    keep_v = [vs[0]]
    for i in range(1, n - 1):
        x0, v0 = keep_x[-1], keep_v[-1]
        if (vs[i] - v0) * (xs[i + 1] - x0) == (vs[i + 1] - v0) * (xs[i] - x0):
            continue
        keep_x.append(xs[i])
        keep_v.append(vs[i])
    keep_x.append(xs[-1])
    keep_v.append(vs[-1])
    return tuple(keep_x), tuple(keep_v)


def _merge(a: Polygonal, b: Polygonal):
    """Common refinement grid with both value sequences."""
    ax, av = a.xs, a.vs
    bx, bv = b.xs, b.vs
    grid, va, vb = [], [], []
    i = j = 0
    na, nb = len(ax), len(bx)
    while i < na or j < nb:
        if j >= nb or (i < na and ax[i] <= bx[j]):
            x = ax[i]
        else:
            x = bx[j]
        grid.append(x)
        if i < na and ax[i] == x:
            va.append(av[i])
            i += 1
        else:
            x0, x1 = ax[i - 1], ax[i]
            va.append(av[i - 1] + (av[i] - av[i - 1]) * (x - x0) / (x1 - x0))
        if j < nb and bx[j] == x:
            vb.append(bv[j])
            j += 1
        else:
            x0, x1 = bx[j - 1], bx[j]
            vb.append(bv[j - 1] + (bv[j] - bv[j - 1]) * (x - x0) / (x1 - x0))
    return tuple(grid), tuple(va), tuple(vb)


def _with_roots(xs, vs):
    """Insert zero crossings so the sign of v is constant on each segment."""
    grid, vals = [xs[0]], [vs[0]]
    for i in range(len(xs) - 1):
        v0, v1 = vs[i], vs[i + 1]
        if (v0 > 0 > v1) or (v0 < 0 < v1):
            t = xs[i] + (xs[i + 1] - xs[i]) * v0 / (v0 - v1)
            grid.append(t)
            vals.append(ZERO)
        grid.append(xs[i + 1])
        vals.append(v1)
    return tuple(grid), tuple(vals)


def _merge_with_crossings(a: Polygonal, b: Polygonal):
    """Common refinement including points where a - b changes sign."""
    grid, va, vb = _merge(a, b)
    out_x, out_a, out_b = [grid[0]], [va[0]], [vb[0]]
    for i in range(len(grid) - 1):
        d0 = va[i] - vb[i]
        d1 = va[i + 1] - vb[i + 1]
        if (d0 > 0 > d1) or (d0 < 0 < d1):
            t = grid[i] + (grid[i + 1] - grid[i]) * d0 / (d0 - d1)
            dx = grid[i + 1] - grid[i]
            cross = va[i] + (va[i + 1] - va[i]) * (t - grid[i]) / dx
            out_x.append(t)
            out_a.append(cross)
            out_b.append(cross)
        out_x.append(grid[i + 1])
        out_a.append(va[i + 1])
        out_b.append(vb[i + 1])
    return tuple(out_x), tuple(out_a), tuple(out_b)


def l1_distance(a: Polygonal, b: Polygonal) -> Fraction:
    """Exact ``integral |a - b|`` in one pass, without building a - b.

    Walks the merged grid stepping both functions by their segment slopes;
    sign changes inside a segment are integrated by the two-triangle formula,
    so only crossing segments pay a division.
    """
    ax, av = a.xs, a.vs
    bx, bv = b.xs, b.vs
    sa = a._seg_slopes()
    sb = b._seg_slopes()
    ia = ib = 0
    x = ax[0]
    va, vb = av[0], bv[0]
    total = ZERO
    last_a = len(ax) - 1
    last_b = len(bx) - 1
    while ia < last_a or ib < last_b:
        na = ax[ia + 1] if ia < last_a else ONE
        nb = bx[ib + 1] if ib < last_b else ONE
        nxt = na if na <= nb else nb
        dx = nxt - x
        va1 = av[ia + 1] if nxt == na else va + sa[ia] * dx
        vb1 = bv[ib + 1] if nxt == nb else vb + sb[ib] * dx
        d0 = va - vb
        d1 = va1 - vb1
        s0 = d0.numerator
        s1 = d1.numerator
        if s0 == 0 and s1 == 0:
            pass
        elif (s0 >= 0 and s1 >= 0) or (s0 <= 0 and s1 <= 0):
            total += abs(d0 + d1) * dx
        else:
            total += dx * (d0 * d0 + d1 * d1) / (abs(d0) + abs(d1))
        if nxt == na:
            ia += 1
        if nxt == nb:
            ib += 1
        x = nxt
        va, vb = va1, vb1
    return total / 2


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
    xs, vs = h.xs, h.vs
    raw = []
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        v0, v1 = vs[i], vs[i + 1]
        if v0 < theta and v1 < theta:
            raw.append((x0, x1))
        elif v0 < theta <= v1:
            r = x0 + (x1 - x0) * (theta - v0) / (v1 - v0)
            raw.append((x0, r))
        elif v1 < theta <= v0:
            r = x0 + (x1 - x0) * (theta - v0) / (v1 - v0)
            raw.append((r, x1))
    merged = []
    for a, b in raw:
        if merged and merged[-1][1] == a and h.eval(a) < theta:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return IntervalUnion((a, b) for a, b in merged)


def indicator_approx(interval, j: int) -> Polygonal:
    """Trapezoid approximant of the indicator of an open interval.

    Ramps of width ``2**-(j+2) * length`` sit just inside the interval, so the
    function is 1 on the middle, 0 outside, and successive approximants differ
    by ``2**-(j+3) * length`` in the L1 norm.
    """
    if j < 0:
        raise ValueError("grid index must be >= 0")
    if isinstance(interval, DyadicInterval):
        a, b = interval.left, interval.right
    else:
        a, b = Fraction(interval[0]), Fraction(interval[1])
    if not 0 <= a < b <= 1:
        raise ValueError("need a nondegenerate interval inside [0, 1]")
    return _union_indicator(((a, b),), j)


def union_indicator(union: IntervalUnion, j: int) -> Polygonal:
    """Sum of indicator approximants over the components of a disjoint union."""
    if j < 0:
        raise ValueError("grid index must be >= 0")
    if union.is_empty():
        return Polygonal.constant(0)
    return _union_indicator(union.ivs, j)


def _union_indicator(components, j: int) -> Polygonal:
    xs = [ZERO]
    vs = [ZERO]

    def push(x, v):
        if x == xs[-1]:
            if v != vs[-1]:
                raise ValueError("conflicting node values")
            return
        xs.append(x)
        vs.append(v)

    for a, b in components:
        w = (b - a) * pow2(-(j + 2))
        push(a, ZERO)
        push(a + w, ONE)
        push(b - w, ONE)
        push(b, ZERO)
    push(ONE, ZERO)
    return Polygonal(tuple(xs), tuple(vs), _trusted=True)


def _step_nodes(plateaus: "Plateaus", m: int, j: int):
    cell = pow2(-m)
    w = cell * pow2(-(j + 2))
    den = plateaus.den
    xs = [ZERO]
    vs = [ZERO]
    for l, num in enumerate(plateaus.nums):
        if num == 0:
            continue
        c = Fraction(num, den)
        a = l * cell
        b = a + cell
        if a != xs[-1]:
            xs.append(a)
            vs.append(ZERO)
        xs.append(a + w)
        vs.append(c)
        xs.append(b - w)
        vs.append(c)
        xs.append(b)
        vs.append(ZERO)
    if xs[-1] != 1:
        xs.append(ONE)
        vs.append(ZERO)
    return tuple(xs), tuple(vs)


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

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, l: int) -> Fraction:
        return Fraction(self.nums[l], self.den)


class StepPolygonal(Polygonal):
    """Dyadic step profile with trapezoid ramps, kept in closed form.

    Stores the cell values as ``Plateaus`` (integer numerators over one
    common denominator) plus the ramp grid index; integrals, evaluation and
    L1 comparisons against other step profiles run off that metadata in
    integer arithmetic, and the explicit node arrays are materialized only
    when some generic polygonal operation asks for them.
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
        self._integral = None
        self._lipschitz = None
        self._canon = None
        self._slopes = None

    def __getattr__(self, name):
        if name in ("xs", "vs"):
            xs, vs = _step_nodes(self.coeffs, self.level, self.ramp_exp)
            self.xs = xs
            self.vs = vs
            return xs if name == "xs" else vs
        raise AttributeError(name)

    @property
    def _ramp_bits(self) -> int:
        """The ramp width is ``2**-_ramp_bits``."""
        return self.level + self.ramp_exp + 2

    @property
    def ramp_width(self) -> Fraction:
        return pow2(-self._ramp_bits)

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
        if not 0 <= x <= 1:
            raise ValueError(f"point {x} outside [0, 1]")
        m = self.level
        idx = int(x * (1 << m))
        if idx == (1 << m):
            return ZERO
        num = self.coeffs.nums[idx]
        if num == 0:
            return ZERO
        c = Fraction(num, self.coeffs.den)
        lo = Fraction(idx, 1 << m)
        off = x - lo
        w = self.ramp_width
        cell = pow2(-m)
        if off <= w:
            return c * off / w
        if off >= cell - w:
            return c * (cell - off) / w
        return c

    def min_value(self) -> Fraction:
        worst = min(self.coeffs.nums)
        return Fraction(worst, self.coeffs.den) if worst < 0 else ZERO

    def max_value(self) -> Fraction:
        best = max(self.coeffs.nums)
        return Fraction(best, self.coeffs.den) if best > 0 else ZERO

    def is_zero(self) -> bool:
        return not any(self.coeffs.nums)

    def is_nonneg(self) -> bool:
        return min(self.coeffs.nums) >= 0

    def lipschitz(self) -> Fraction:
        if self._lipschitz is None:
            c = self.coeffs
            peak = max(map(abs, c.nums), default=0)
            self._lipschitz = Fraction(peak << self._ramp_bits, c.den)
        return self._lipschitz

    def abs_mass(self) -> Fraction:
        return Fraction(self.coeffs.abs_total, self.coeffs.den)

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
        na = [n for n in na for _ in range(ratio)]
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
