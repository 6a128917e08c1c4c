"""Dyadic sampling nets and the Riemann-to-Lebesgue conversion.

For an a.e.-defined function f this module builds the chain of derived
objects used to integrate it through Riemann-style sampling: sublevel sets
of the domain sequence (almost-full up to geometric defects), their finite
intersections, a decidable positivity relation for dyadic cells, memoized
sample points, step-function nets indexed by a directed set of refined
dyadic partitions, and finally the conversion of a mean-Cauchy net into a
summable function with a sampled equality verification.
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress
from math import ceil, floor, lcm
from operator import not_
from threading import RLock
from typing import Callable

from .aefunc import (AEFunction, MeasurableSet, Summable, certify_l1_gap,
                     char_of_interval_union, limit_of_summables, piecewise_constant)
from .errors import BudgetExhausted, CertificationError
from .exact import CReal, Memo, clamp01, pow2, rat_approx, to_ratstr
from .polygonal import (IntervalUnion, Plateaus, Polygonal, StepPolygonal,
                        l1_bound, step_function, sublevel, union_indicator)
from .regular import (DomainWitness, RegularSeq, intersect_pair,
                      point_avoiding_seq, realize_point)

ZERO = Fraction(0)
TWO_THIRDS = Fraction(2, 3)
THREE_QUARTERS = Fraction(3, 4)
THIRD = Fraction(1, 3)
RAMP_REDRAWS = 8


@dataclass(frozen=True)
class UniformCells(Sequence):
    """The cells ``(l, level, depth)`` of a uniform index, kept as level and depth."""

    level: int
    depth: int

    def __len__(self) -> int:
        return 1 << self.level

    def __getitem__(self, l):
        if isinstance(l, slice):
            return tuple(self[k] for k in range(len(self))[l])
        return range(len(self))[l], self.level, self.depth


@dataclass(frozen=True)
class NetIndex:
    """Member of the directed set of refined dyadic partitions.

    ``level`` is the coarse partition exponent m; ``cells[l]`` is a triple
    ``(k, m_l, n_l)`` naming a refined subcell of the l-th coarse cell and
    the depth of the intersection set used to place its sample point.
    Indices compare by level alone.  Uniform cells ``(l, m, n)`` for one
    depth n are kept as ``UniformCells(m, n)``, however they were given, so
    both spellings of an index are equal and hash alike.
    """

    level: int
    cells: Sequence

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("net level must be >= 0")
        cells = self.cells
        if len(cells) != (1 << self.level):
            raise ValueError("need one cell triple per coarse cell")
        uniform = isinstance(cells, UniformCells)
        # Uniform cells all have the shape of the first.
        for l, (k, ml, nl) in enumerate(cells[:1] if uniform else cells):
            if ml < self.level:
                raise ValueError(f"cell {l}: refinement level {ml} below net level")
            if nl < 0:
                raise ValueError(f"cell {l}: negative depth")
            ratio = 1 << (ml - self.level)
            if not l * ratio <= k < (l + 1) * ratio:
                raise ValueError(f"cell {l}: subcell {k} at level {ml} not inside")
        if not uniform and all(c[1:] == (self.level, cells[0][2]) for c in cells):
            object.__setattr__(self, "cells", UniformCells(self.level, cells[0][2]))

    @staticmethod
    def uniform(level: int, depth: int) -> "NetIndex":
        """Canonical index: each coarse cell sampled at its own level."""
        return NetIndex(level=level, cells=UniformCells(level, depth))

    @staticmethod
    def canonical(level: int) -> "NetIndex":
        return NetIndex.uniform(level, level)

    def is_above(self, other: "NetIndex") -> bool:
        return self.level > other.level


@dataclass(frozen=True)
class RiemannCertificate:
    """Mean-convergence modulus: for each eps a net index above which all
    pairs of nets are within eps in L1."""

    modulus: Callable[[Fraction], NetIndex]

    def __call__(self, eps) -> NetIndex:
        return self.modulus(Fraction(eps))


@dataclass(frozen=True)
class GammaInfo:
    """Finite realization of an intersection set with exact accounting."""

    set: MeasurableSet
    union: IntervalUnion
    lower_bound: Fraction
    tail: Fraction
    prefix: int


def _cell_bounds(k: int, m: int):
    return Fraction(k, 1 << m), Fraction(k + 1, 1 << m)


class Bridge:
    """Net machinery for one a.e.-defined function, with write-once memo tables.

    The tables compute from closures over the function's fields and over one
    another, never through the bridge or the function, so a bridge, its
    plans and its nets are freed by reference counting, with no cycle left
    for the collector.  ``f`` is an equal copy of the function, which does
    not hold the bridge.
    """

    def __init__(self, f: AEFunction, name: str = ""):
        self.f, self.name = replace(f), name or f.name or "f"
        own, name, chains = self.f, self.name, {}
        deltas = self._delta_unions = Memo(
            lambda n: sublevel(own.domain.term(n), TWO_THIRDS ** n))

        def gamma_union(key):
            # Under the table's lock, a prefix extends the longest one stored.
            # Where term k is 0 on every component, each lies inside delta_k.
            n, prefix = key
            if prefix < n:
                raise ValueError("prefix must be at least the start index")
            chain = chains.setdefault(n, [deltas(n)])
            while len(chain) <= prefix - n:
                k, last = n + len(chain), chain[-1]
                if not all(own.domain.vanishes_on(k, a, b) for a, b in last.ivs):
                    last = last.intersect(deltas(k))
                chain.append(last)
            return chain[prefix - n]

        gammas = self._gamma_unions = Memo(gamma_union)
        plans = self._plans = Memo(lambda key: _level_plan(gammas, *key))
        self._zeta = Memo(
            lambda key: _sample_in(plans, gammas, own.domain, *key, THIRD)[0])
        # Only a live bridge builds a net: its cells ask the bridge's zeta
        # through a weak proxy.
        me = weakref.proxy(self)
        self._nets = Memo(lambda alpha: _build_net(alpha, plans, me.zeta, own, name))

    # -- sublevel sets and intersections -------------------------------------------

    def delta_union(self, n: int) -> IntervalUnion:
        """Carrier of the n-th sublevel set, where h_n < (2/3)**n."""
        return self._delta_unions(n)

    def delta(self, n: int) -> MeasurableSet:
        """Measurable sublevel set; its exact length beats 1 - (3/4)**n."""
        return char_of_interval_union(self.delta_union(n),
                                      extra_domain=self.f.domain,
                                      name=f"delta({self.name},{n})")

    def delta_defect(self, n: int) -> Fraction:
        return 1 - self.delta_union(n).length

    def gamma_depth(self, m: int, n: int) -> int:
        """Prefix making the unrealized tail at most a quarter cell area."""
        return _gamma_depth(m, n)

    def gamma_union(self, n: int, prefix: int) -> IntervalUnion:
        """The intersection of the sublevel sets n..prefix, as a chain of
        pairwise intersections.  A step whose domain term is 0 on every
        component so far cannot cut, so it keeps the chain and builds nothing
        (see ``RegularSeq.vanishes_on``)."""
        return self._gamma_unions((n, prefix))

    def gamma(self, n: int) -> GammaInfo:
        """Finite realization of the tail intersection of sublevel sets.

        The prefix is ``gamma_depth(max(n, 4), n)``.  The reported lower
        bound charges the exact defects of the realized prefix plus the
        geometric tail, and always exceeds 1 - 4*(3/4)**n.
        """
        prefix = self.gamma_depth(max(n, 4), n)
        union = self.gamma_union(n, prefix)
        defects = sum((self.delta_defect(k) for k in range(n, prefix + 1)), ZERO)
        tail = 3 * THREE_QUARTERS ** prefix
        ms = char_of_interval_union(union, extra_domain=self.f.domain,
                                    name=f"gamma({self.name},{n})")
        return GammaInfo(set=ms, union=union, lower_bound=1 - defects - tail,
                         tail=tail, prefix=prefix)

    # -- the decidable cell relation ------------------------------------------------

    def theta(self, k: int, m: int, n: int) -> bool:
        """Decide whether a cell meets the intersection set substantially.

        The measure of the cell's intersection with the realized prefix set
        overestimates the true one by at most 4**-m/4; thresholding at
        4**-m/2 therefore guarantees: positive answers have true measure
        above 4**-m/4, negative answers below 4**-m.  Decisions are read by
        bisection from the level plan of ``(m, n)`` (see ``_level_plan``).
        """
        return _piece(self._plans, k, m, n) is not False

    # -- sample points ------------------------------------------------------------

    def zeta(self, k: int, m: int, n: int) -> DomainWitness:
        """Memoized sample point for a cell triple, with a domain witness for f.

        Cells passing ``theta`` sample a third into their plan piece; others
        a third into the cell.  Where the domain has no profile there, a
        point of the cell's part of the realized set is realized by
        bisection instead.  Points asked for here are kept; net builds
        recompute the same rational points and keep none.
        """
        return self._zeta((k, m, n))

    def _point(self, k: int, m: int, n: int) -> Fraction:
        return _point(self._plans, k, m, n)

    # -- nets ---------------------------------------------------------------------

    def net(self, alpha: NetIndex) -> Summable:
        """Step-function net: cell plateaus carry sampled function values.

        Each coefficient is ``rat_approx`` of the sampled value at precision
        ``level + 4``: a rational within ``2**-(level+4)`` of it, which is
        the exact sample value wherever f evaluates exactly (polygonals at
        rational sample points).  When f has ``values_at``, the cells' points
        are written as integers over one denominator in one pass over the
        level plan, and every cell where the domain has a profile gets its
        exact value from one call of it, with no witness made or kept; other
        cells go through ``zeta``.  The coefficients are kept as one shared
        ``Plateaus``, and the net's function is ``piecewise_constant`` on
        the cells, so it carries ``values_at`` too.  Term j is the step
        profile at grid index j + s, s the bit length of mean|plateau| // 8,
        so its gap to term j + 1, ``mean|plateau| * 2**-(j+s+3)``, is below
        2**-j.  The net's domain avoids the cell boundaries; it is built when
        a term or profile of it is first asked for.
        """
        return self._nets(alpha)

    # -- probing and conversion ------------------------------------------------------

    def random_above(self, rng: random.Random, alpha: NetIndex) -> NetIndex:
        """A random refinement one or two levels above alpha."""
        m = alpha.level + rng.randint(1, 2)
        cells = []
        for l in range(1 << m):
            extra = rng.randint(0, 1)
            ml = m + extra
            ratio = 1 << (ml - m)
            k = l * ratio + rng.randrange(ratio)
            cells.append((k, ml, ml))
        return NetIndex(level=m, cells=tuple(cells))

    def cauchy_probe(self, alpha: NetIndex, trials: int, precision: int,
                     seed: int) -> dict:
        """Sampled falsification probe for mean-Cauchy behaviour above alpha.

        Universal quantification is the certificate's business; this reports
        the maximum observed L1 distance between random pairs of nets.
        """
        rng = random.Random(seed)
        gaps = []
        for _ in range(trials):
            a1 = self.random_above(rng, alpha)
            a2 = self.random_above(rng, alpha)
            gap = (self.net(a1) - self.net(a2)).abs().integral(precision)
            gaps.append(gap)
        return {
            "alpha_level": alpha.level,
            "trials": trials,
            "precision": precision,
            "seed": seed,
            "gaps": [to_ratstr(g) for g in gaps],
            "max_gap": to_ratstr(max(gaps) if gaps else ZERO),
        }

    def to_lebesgue(self, cert: RiemannCertificate, name: str = "") -> Summable:
        """Summable limit of the net sequence selected by the certificate.

        Selects nets just above ``cert(2**-(j+1))`` with non-decreasing
        levels; successive L1 bounds are certified exactly as the limit's
        terms materialize, and a failure names the offending index.
        """
        # Net j is canonical at the largest level one above cert(2**-(i+1)), i <= j.
        above = Memo(lambda i: cert(pow2(-(i + 1))).level + 1)
        return limit_of_summables(
            lambda j: self.net(NetIndex.canonical(max(map(above, range(j + 1))))),
            name=name or f"lebesgue({self.name})")

    def equality_check(self, g: Summable, n: int, samples: int, q: int,
                       seed: int) -> dict:
        """Sampled verification that f and its converted limit agree.

        Builds a ladder of 8 nets at the fixed depth n with exactly
        certified L1 steps, below level ``max(n, 4) + 16``, realizes fresh
        witness points in cells that pass ``theta`` (offset away from every
        sample point used by the nets), and compares f against g's
        approximant at grid q+2.  When that approximant is a step profile,
        a point on one of its ramps, where it is below the plateau the limit
        takes, is drawn again, at most ``RAMP_REDRAWS`` times.  The equality
        region itself is never constructed; the report carries the pass
        fraction and the ladder data.
        """
        rungs = 8
        level_cap = max(n, 4) + 16
        ladder_levels = [max(n, 1)]
        gaps: list[Fraction] = []
        prev = self.net(NetIndex.uniform(ladder_levels[0], n))
        for k in range(1, rungs + 1):
            bound = pow2(-(k - 1))
            m_try = ladder_levels[-1] + 1
            placed = False
            while m_try <= level_cap:
                cand = self.net(NetIndex.uniform(m_try, n))
                try:
                    at = certify_l1_gap(cand, prev, bound, cap=24)
                except BudgetExhausted:
                    m_try += 1
                    continue
                ladder_levels.append(m_try)
                gaps.append(l1_bound(cand.term(at), prev.term(at)))
                prev = cand
                placed = True
                break
            if not placed:
                raise CertificationError(
                    f"ladder step {k} unachievable below level {level_cap}",
                    index=k)

        rng = random.Random(seed)
        m_s = ladder_levels[min(2, len(ladder_levels) - 1)]
        positive = [l for l in range(1 << m_s) if self.theta(l, m_s, n)]
        while len(positive) < samples:
            m_s += 1
            if m_s > level_cap:
                raise CertificationError("not enough positive cells for sampling")
            positive = [l for l in range(1 << m_s) if self.theta(l, m_s, n)]
        chosen = rng.sample(positive, samples)
        g_grid = g.term(q + 2)
        rows = []
        passes = 0
        for l in sorted(chosen):
            for _ in range(1 + RAMP_REDRAWS):
                t = Fraction(3 * rng.randrange(32) + 1, 96)
                if not _off_plateau(g_grid, _point(self._plans, l, m_s, n, t)):
                    break
            wit, xi = _sample_in(self._plans, self._gamma_unions, self.f.domain,
                                 l, m_s, n, t)
            f_val = self.f.eval(wit).approx(q + 2)
            x_for_g = clamp01(xi if xi is not None else wit.x.approx(q + m_s + 8))
            g_val = g_grid.eval(x_for_g)
            diff = abs(f_val - g_val)
            ok = diff <= pow2(-q)
            passes += ok
            rows.append({
                "cell": [l, m_s],
                "point": to_ratstr(x_for_g),
                "f": to_ratstr(f_val),
                "g": to_ratstr(g_val),
                "diff": to_ratstr(diff),
                "pass": bool(ok),
            })
        return {
            "depth": n,
            "samples": samples,
            "q": q,
            "seed": seed,
            "ladder_levels": ladder_levels,
            "ladder_gaps": [to_ratstr(x) for x in gaps],
            "sample_rows": rows,
            "passes": passes,
            "pass_fraction": to_ratstr(Fraction(passes, samples)),
        }


def _piece(plans: Memo, k: int, m: int, n: int):
    """False when the cell fails ``theta``; else the largest component of
    its part of the realized set, or None when that is the whole cell."""
    if not 0 <= k < (1 << m):
        raise ValueError(f"cell index {k} out of range at level {m}")
    starts, runs = plans((m, n))
    i = bisect_right(starts, k) - 1
    return runs[i][2] if i >= 0 and k < runs[i][1] else False


def _level_plan(gammas: Memo, m: int, n: int):
    """The cells passing ``theta`` at level m, from one sweep of the realized
    set: sorted runs ``(start, stop, piece)`` of cells inside a component
    (piece None), or one partly covered cell with its largest piece.  The
    realized set's chain skips every sublevel set whose term is 0 on it, so
    a domain that knows its supports builds only the terms that can cut."""
    scale, runs, partial = 1 << m, [], {}
    for a, b in gammas((n, _gamma_depth(m, n))).ivs:
        # Cells first..last meet (a, b); cells full..stop-1 lie inside it.
        first, full = floor(a * scale), ceil(a * scale)
        stop, last = floor(b * scale), ceil(b * scale) - 1
        if full < stop:
            runs.append((full, stop, None))
        for k in {first, last}:
            if not full <= k < stop:
                lo, hi = _cell_bounds(k, m)
                partial.setdefault(k, []).append((max(a, lo), min(b, hi)))
    for k, pieces in partial.items():
        part = IntervalUnion(pieces, _trusted=True)
        if part.length > pow2(-2 * m) / 2:
            runs.append((k, k + 1, part.largest_component()))
    runs.sort()
    return [r[0] for r in runs], runs


def _off_plateau(grid: Polygonal, x: Fraction) -> bool:
    """Whether a step profile at x, 0 <= x < 1, differs from the plateau of
    the cell holding x: x is on a ramp of a nonzero cell."""
    if not isinstance(grid, StepPolygonal):
        return False
    return grid.eval(x) != grid.coeffs[(x.numerator << grid.level) // x.denominator]


def _point(plans: Memo, k: int, m: int, n: int, t: Fraction = THIRD) -> Fraction:
    """The point at fraction t of the cell's plan piece, or of the cell."""
    piece = _piece(plans, k, m, n)
    if piece:
        a, b = piece
        return a + (b - a) * t
    return Fraction(k * t.denominator + t.numerator, t.denominator << m)


def _sample_grid(plans: Memo, alpha: NetIndex):
    """The cells' ``zeta`` points as integer numerators over one denominator.

    A uniform index reads its few plan pieces (a, b), sampled at (2a + b)
    / 3, off the plan's runs; every other cell k samples (3k + 1) / (3 *
    2**m).  The points of explicit cells are found one by one.
    """
    m, cells = alpha.level, alpha.cells
    if isinstance(cells, UniformCells):
        odd = {k: (2 * p[0] + p[1]) / 3 for k, _, p in plans((m, cells.depth))[1] if p}
    else:
        odd = dict(enumerate(_point(plans, *cell) for cell in cells))
    den = lcm(3 << m, *(x.denominator for x in odd.values()))
    unit = den // (3 << m)
    nums = list(range(unit, (3 * unit) << m, 3 * unit))
    for l, x in odd.items():
        nums[l] = x.numerator * (den // x.denominator)
    return nums, den


def _sample_in(plans: Memo, gammas: Memo, domain: RegularSeq, k: int, m: int, n: int,
               t: Fraction):
    """A witnessed point in a cell, and the rational point, or None for a
    realized point.

    Takes the point at fraction t of the cell's plan piece, or of a cell
    failing ``theta``, with the domain's profile there as its bound.  Where
    there is none, a point of the cell's part of the realized set (the
    cell, when it fails ``theta``) is realized on the part's indicator
    approximant against the domain shifted by s = 2m + 6, and the first s
    terms' maxima join its bound.  The plan passes a cell only when its part
    is the cell or longer than ``4**-m / 2``, so the approximant's integral
    exceeds the ``3 * 2**-s`` that ``realize_point`` needs.
    """
    xi = _point(plans, k, m, n, t)
    gamma = domain.profile_at(xi)
    if gamma is not None:
        return DomainWitness(x=CReal.from_rational(xi), gamma=gamma), xi
    lo, hi = _cell_bounds(k, m)
    carrier = (IntervalUnion.whole() if _piece(plans, k, m, n) is False
               else gammas((n, _gamma_depth(m, n))))
    shift = 2 * m + 6
    realized = realize_point(union_indicator(carrier.intersect_interval(lo, hi), 0),
                             domain.shifted(shift), shift)
    extra = sum((domain.term(i).max_value() for i in range(shift)), ZERO)
    return DomainWitness(x=realized.point, gamma=realized.bound + extra), None


def _build_net(alpha: NetIndex, plans: Memo, zeta: Callable, f: AEFunction,
               name: str) -> Summable:
    m, cells, domain = alpha.level, alpha.cells, f.domain
    exact, values, den = [False] * len(cells), [], 1
    if f.values_at is not None:
        # zeta's points, where the domain has a profile (the zero sequence has).
        points, pden = _sample_grid(plans, alpha)
        exact = domain.profiled(points, pden)
        values, den = f.values_at(list(compress(points, exact)), pden)
    rest = [rat_approx(f.eval(zeta(*cells[l])), m + 4)
            for l in compress(range(len(exact)), map(not_, exact))]
    if rest:
        common, got, fell = lcm(den, *(v.denominator for v in rest)), iter(values), iter(rest)
        values, den = [next(got) * (common // den) if ok else int(next(fell) * common)
                       for ok in exact], common
    plateaus = Plateaus.from_integers(values, den)

    def grid_domain() -> RegularSeq:
        avoid = point_avoiding_seq([Fraction(l, 1 << m) for l in range(1, 1 << m)],
                                   name=f"grid({m})")
        return intersect_pair(avoid, domain, name=f"netdom({m})")

    dom = _built_on_first_use(grid_domain, name=f"netdom({m})")
    base = piecewise_constant(range(1, 1 << m), 1 << m, plateaus.nums, plateaus.den, dom,
                              f"net({name},m={m})", m + 2)
    s = (plateaus.abs_total // (plateaus.den << (m + 3))).bit_length()
    out = Summable(base, lambda j: step_function(plateaus, m, j + s), name=base.name)
    out.coefficient_sum = Fraction(plateaus.total, plateaus.den << m)
    return out


def _gamma_depth(m: int, n: int) -> int:
    """The least k >= n with tail 3 * (3/4)**k at most 4**-m / 4, that is
    with 12 * 3**k * 4**m <= 4**k."""
    k = max(n, 0)
    while (12 * 3 ** k) << 2 * m > 1 << 2 * k:
        k += 1
    return k


def _built_on_first_use(build: Callable[[], RegularSeq], name: str) -> RegularSeq:
    """The sequence ``build()``, which runs once, when a term, profile or
    support is first asked for."""
    built = Memo(lambda _: build())
    return RegularSeq(lambda n: built(None).term(n), name=name,
                      profile=lambda x: built(None).profile_at(x),
                      support=lambda k: built(None).support(k))


_BRIDGE_LOCK = RLock()


def bridge_for(f: AEFunction) -> Bridge:
    """The bridge of a function, built once and kept on the function itself.

    It is stored in f's instance ``__dict__``, outside the dataclass fields,
    so it leaves f's equality and hash alone and is freed together with f.
    """
    with _BRIDGE_LOCK:
        got = f.__dict__.get("_bridge")
        if got is None:
            got = f.__dict__["_bridge"] = Bridge(f)
        return got
