"""Almost-everywhere-defined functions, summability, and measurable sets.

An ``AEFunction`` pairs a regular sequence (whose almost-full set is the
function's domain) with an evaluator from domain witnesses to certified
reals.  A ``Summable`` adds an approximating sequence of polygonals whose
successive L1 distances decay below ``2**-n``; that decay chain certifies
the tail ``2**-(n-1)``, which a declared tail may sharpen.  Its integral is
read from the coarsest term the tail allows and is reported with that
bound.  All decay conditions are checked exactly in rational arithmetic
when terms materialize.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import lcm
from threading import RLock
from typing import Callable, Optional, Sequence

from .errors import BudgetExhausted, CertificationError
from .exact import (CReal, Memo, budget_cap, ceil_log2, pow2,
                    refine_until_decided, to_ratstr)
from .polygonal import IntervalUnion, Polygonal, l1_bound, linear_sum, union_indicator
from .regular import (DomainWitness, RegularSeq, geometric_decay,
                      intersect_countable, intersect_pair, point_avoiding_seq,
                      realize_point, row_witness)

ZERO = Fraction(0)
ONE = Fraction(1)
_ZERO_POLY = Polygonal.constant(0)


@dataclass(frozen=True)
class AEFunction:
    """A function defined almost everywhere on [0, 1].

    ``evaluator`` must be extensional: witnesses carrying the same point give
    the same real, whatever their bounds.  ``values_at``, when given, maps
    sorted domain points ``nums[i] / den`` to the exact values there in one
    pass, as ``(out, d)`` with value i equal to ``out[i] / d`` (all
    integers), raising ValueError where it cannot decide; equality and hash
    ignore it.  Polygonals and ``piecewise_constant`` functions carry it.
    """

    domain: RegularSeq
    evaluator: Callable[[DomainWitness], CReal]
    name: str = ""
    values_at: Optional[Callable[[Sequence[int], int], tuple]] = field(
        default=None, compare=False)

    def eval(self, w: DomainWitness) -> CReal:
        return self.evaluator(w)

    @staticmethod
    def from_polygonal(h: Polygonal, name: str = "") -> "AEFunction":
        return AEFunction(domain=RegularSeq.zero(),
                          evaluator=lambda w: h.eval_creal(w.x),
                          name=name, values_at=h.values_at)


def piecewise_constant(breaks: Sequence[int], bd: int, values: Sequence[int], vd: int,
                       domain: RegularSeq, name: str, start: int) -> AEFunction:
    """The function ``values[i] / vd`` between ``breaks[i-1] / bd`` and ``breaks[i] / bd``.

    ``breaks`` increase and ``values`` has one entry more, for the pieces
    left of the first break and right of the last.  The function is
    undefined at the breaks, which ``domain`` must avoid: there ``values_at``
    and a rational witness raise ValueError.  Any other witness is located
    from precision ``start`` on, until the approximation's closed interval,
    clamped to [0, 1], lies in the closure of one piece, which holds the point.
    """
    def values_at(nums: Sequence[int], den: int) -> tuple:
        out, lo, n = [], 0, len(nums)
        while lo < n:
            # Piece i holds nums[lo] / den and the next q / den with q * bd < breaks[i] * den.
            p = nums[lo] * bd
            i = bisect_left(breaks, p, key=lambda b: b * den)
            if i < len(breaks) and breaks[i] * den == p:
                raise ValueError(f"{name} is undefined at the break {Fraction(nums[lo], den)}")
            hi = n if i == len(breaks) else bisect_left(nums, -(-breaks[i] * den // bd), lo)
            out += repeat(values[i], hi - lo)
            lo = hi
        return out, vd

    def decide(xt: Fraction, r: Fraction) -> Optional[Fraction]:
        lo, hi = max(ZERO, xt - r) * bd, min(ONE, xt + r) * bd
        i = bisect_left(breaks, hi)
        return Fraction(values[i], vd) if i == 0 or breaks[i - 1] <= lo else None

    def evaluator(w: DomainWitness) -> CReal:
        x = w.x.rational
        if x is not None:
            return CReal.from_rational(
                Fraction(values_at((x.numerator,), x.denominator)[0][0], vd))
        return refine_until_decided(w.x, start, 2, decide,
                                    f"locating a point of {name} exceeded the budget")

    return AEFunction(domain, evaluator, name=name, values_at=values_at)


class Summable:
    """An a.e.-defined function together with an L1-certified approximation.

    ``approx(n)`` yields polygonals with ``integral |f_{n+1} - f_n| < 2**-n``,
    converging to the function on the almost-full set of its domain.  The
    chain certifies ``integral |f - f_n| <= 2**-(n-1)``; a declared
    ``tail(n)`` is an exact rational bound that telescopes, each gap at most
    ``tail(n) - tail(n+1)``.  ``self.tail`` is the lesser of the two, which
    telescopes as both do, and ``integral`` reads the coarsest term it
    allows.  The chain and the tail are verified exactly whenever
    neighbouring terms materialize.
    ``prefetch(summable, n)``, if given, runs under the term lock first.
    """

    def __init__(self, base: AEFunction, approx: Callable[[int], Polygonal],
                 name: str = "",
                 prefetch: Optional[Callable[["Summable", int], None]] = None,
                 *, tail: Optional[Callable[[int], Fraction]] = None):
        self.base = base
        self.name = name or base.name
        terms = self._terms = Memo(approx)
        declared = tail or _chain_tail
        tails = self.tail = Memo(lambda n: min(Fraction(declared(n)), _chain_tail(n)))
        where = f" in {self.name}" if self.name else ""

        def certify_gap(lo: int) -> None:
            bound = pow2(-lo)
            drop = tails(lo) - tails(lo + 1)
            gap = l1_bound(terms(lo + 1), terms(lo), lambda g: g < bound and g <= drop)
            if not gap < bound:
                raise CertificationError(
                    f"approximation gap {gap} at index {lo} is not below 2^-{lo}{where}",
                    index=lo)
            if gap > drop:
                raise CertificationError(f"approximation gap {gap} at index {lo} exceeds "
                                         f"the declared tail's drop {drop}{where}", index=lo)
            if tails(lo + 1) < 0:
                raise CertificationError(f"declared tail {tails(lo + 1)} at index "
                                         f"{lo + 1} is negative{where}", index=lo)

        # Index lo is stored once |f_{lo+1} - f_lo| is certified below 2**-lo
        # and within the tail's drop.
        self._gaps = Memo(certify_gap)
        self._lock = RLock()
        self._prefetch = prefetch

    @property
    def domain(self) -> RegularSeq:
        return self.base.domain

    def eval(self, w: DomainWitness) -> CReal:
        return self.base.evaluator(w)

    def term(self, n: int) -> Polygonal:
        if n < 0:
            raise ValueError("term index must be >= 0")
        if self._prefetch is None:
            return self._term(n)
        with self._lock:
            self._prefetch(self, n)
            return self._term(n)

    def _term(self, n: int) -> Polygonal:
        terms, gaps = self._terms, self._gaps
        got = terms(n)
        for lo in (n - 1, n):
            if lo >= 0 and lo not in gaps and lo in terms and lo + 1 in terms:
                gaps(lo)
        return got

    def check_prefix(self, n: int) -> None:
        """Materialize terms 0..n, verifying every consecutive L1 bound."""
        for k in range(n + 1):
            self._term(k)

    def integral_index(self, p: int) -> tuple:
        """The index n that ``integral(p)`` reads and its bound on ``integral |f - f_n|``:
        the least n with tail within ``2**-(p+1)``, at most p + 2 by the decay chain."""
        if p < 0:
            raise ValueError("precision exponent must be >= 0")
        bound = pow2(-(p + 1))
        n = next(n for n in range(p + 3) if self.tail(n) <= bound)
        return n, self.tail(n)

    def integral(self, p: int) -> Fraction:
        """The Lebesgue integral to precision 2**-p: ``f_n`` integrated exactly,
        n from ``integral_index``."""
        return self.term(self.integral_index(p)[0]).integral()

    def integral_report(self, p: int) -> dict:
        n, bound = self.integral_index(p)
        return {"function": self.name, "p": p, "value": to_ratstr(self.term(n).integral()),
                "prefix_used": n, "tail_bound": to_ratstr(bound)}

    # -- pointwise algebra ------------------------------------------------------

    def scale(self, c) -> "Summable":
        c = Fraction(c)
        if c == 0:
            return Summable(
                AEFunction(self.domain, lambda w: CReal.from_rational(0)),
                lambda n: _ZERO_POLY, name=f"0*{self.name}", tail=lambda n: ZERO)
        base = AEFunction(self.domain,
                          lambda w: self.base.evaluator(w).scale(c),
                          name=f"{c}*{self.name}")
        return _derived(base, lambda t: t * c, [self], max(0, ceil_log2(abs(c))),
                        abs(c))

    def __add__(self, other: "Summable") -> "Summable":
        return _pointwise([self, other], lambda a, b: a + b, f"({self.name}+{other.name})", ONE)

    def __sub__(self, other: "Summable") -> "Summable":
        return _pointwise([self, other], lambda a, b: a - b, f"({self.name}-{other.name})", ONE)

    def min_with(self, other: "Summable") -> "Summable":
        return _pointwise([self, other], lambda a, b: a.min_with(b), f"({self.name}&{other.name})")

    def max_with(self, other: "Summable") -> "Summable":
        return _pointwise([self, other], lambda a, b: a.max_with(b), f"({self.name}|{other.name})")

    def abs(self) -> "Summable":
        base = AEFunction(self.domain, lambda w: abs(self.base.evaluator(w)),
                          name=f"|{self.name}|")
        return _derived(base, abs, [self], 0)

    def clip_nonneg(self) -> "Summable":
        """Pointwise maximum with 0; a contraction, so decay bounds survive."""
        zero_real = CReal.from_rational(0)
        base = AEFunction(self.domain,
                          lambda w: self.base.evaluator(w).max_with(zero_real),
                          name=f"{self.name}+")
        return _derived(base, lambda t: t.max_with(_ZERO_POLY), [self], 0)

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_polygonal(h: Polygonal, name: str = "") -> "Summable":
        return Summable(AEFunction.from_polygonal(h, name), lambda n: h, name=name,
                        tail=lambda n: ZERO)

    @staticmethod
    def constant(c, name: str = "") -> "Summable":
        c = Fraction(c)
        return Summable.from_polygonal(Polygonal.constant(c),
                                       name=name or f"const({c})")


def _chain_tail(n: int) -> Fraction:
    """The tail every decay chain certifies: the gaps from n on sum below 2**-(n-1)."""
    return pow2(1 - n)


def _derived(base: AEFunction, op, operands: list, offset: int,
             weight: Optional[Fraction] = None) -> Summable:
    """``op`` of the operands' terms ``n + offset``.

    Given ``weight``, ``op`` is ``weight``-Lipschitz in L1 in each operand,
    and the result declares ``weight`` times the sum of the operands' tails
    at ``n + offset``.  The lattice operations pass none, so their results
    carry the chain tail ``2**-(n-1)``.
    """
    tail = None
    if weight is not None:
        def tail(n: int) -> Fraction:
            return weight * sum(g.tail(n + offset) for g in operands)

    return Summable(base, lambda n: op(*(g.term(n + offset) for g in operands)),
                    name=base.name, tail=tail)


def _pointwise(fs: list, op, name: str, weight: Optional[Fraction] = None) -> Summable:
    """Pointwise ``op``, which acts alike on approximants and on reals, of k
    summables: on the intersection of their domains, from their terms ``n + ceil(log2 k) + 1``."""
    dom = intersect_countable([g.domain for g in fs], name=f"dom[{name}]")

    def evaluator(w: DomainWitness) -> CReal:
        return op(*(g.base.evaluator(row_witness(w, i)) for i, g in enumerate(fs)))

    return _derived(AEFunction(dom, evaluator, name), op, fs, ceil_log2(len(fs)) + 1, weight)


def integral_uniqueness_check(f1: Summable, f2: Summable, p: int) -> bool:
    """Two approximation schedules of one function must agree to 2**-(p-2)."""
    return abs(f1.integral(p) - f2.integral(p)) <= pow2(-p + 2)


def certify_l1_gap(f1: Summable, f2: Summable, bound,
                   cap: Optional[int] = None) -> int:
    """Certify ``integral |f1 - f2| < bound`` from finite approximants.

    Returns the grid index k at which the exact polygonal distance plus the
    tail slack ``2**-(k-2)`` drops below the bound, searching upward from
    ``3 + ceil(log2(1/bound))`` for at most ``cap`` grid steps (default: the
    budget).  The certificate is sound: the true L1 distance differs from
    the grid distance by at most the slack.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    if f1 is f2:
        return 0
    k = max(0, 3 + ceil_log2(1 / bound))
    steps = cap if cap is not None else budget_cap(64)
    for _ in range(steps):
        slack = pow2(-k + 2)
        if l1_bound(f1.term(k), f2.term(k), lambda g: g + slack < bound) + slack < bound:
            return k
        k += 1
    raise BudgetExhausted(
        f"could not certify L1 gap below {bound} within {steps} grid steps",
        needed=k)


def positive_point(f: Summable, prefix: int) -> DomainWitness:
    """A domain witness at which a positively-integrable function is positive.

    Searches for an index m whose approximant dominates the combined error
    series (successive approximation gaps plus the scaled domain sequence),
    then realizes a point by bisection.  The returned witness bounds the
    partial sums of the domain sequence by ``2**m * realized bound``.
    """
    domain = f.domain
    last_error = None
    for m in range(1, prefix + 1):
        scale = pow2(-m)

        def gen(k: int, m=m, scale=scale) -> Polygonal:
            piece = abs(f.term(m + k + 1) - f.term(m + k))
            hk = domain.term(k)
            if hk.is_zero():
                return piece
            return piece + hk * scale

        seq_m = RegularSeq(gen, name=f"margin({f.name},{m})")
        try:
            realized = realize_point(f.term(m), seq_m, prefix)
        except CertificationError as exc:
            last_error = exc
            continue
        return DomainWitness(x=realized.point, gamma=pow2(m) * realized.bound)
    raise CertificationError(
        f"no index up to {prefix} certifies a positive margin; raise the prefix"
    ) from last_error


@dataclass(frozen=True)
class MeasurableSet:
    """A subset of [0, 1] carried by a 0/1-valued summable characteristic."""

    characteristic: Summable
    support: Optional[IntervalUnion] = None
    name: str = ""

    def measure(self, p: int) -> Fraction:
        return self.characteristic.integral(p)

    def dichotomy_check(self, w: DomainWitness) -> bool:
        """Characteristic values sit within 1/8 of {0, 1} at precision 3."""
        v = self.characteristic.eval(w).approx(3)
        return abs(v) <= Fraction(1, 8) or abs(v - 1) <= Fraction(1, 8)


def char_of_interval_union(union: IntervalUnion,
                           extra_domain: Optional[RegularSeq] = None,
                           name: str = "") -> MeasurableSet:
    """Measurable set backed by a finite union of open rational intervals.

    The characteristic is ``piecewise_constant`` with the sorted component
    endpoints as breaks, 1 on the pieces that start a component and 0 on
    the others.  Its domain avoids the endpoints (where no evaluator could
    decide membership); an optional extra domain sequence is intersected
    in, so witnesses transport to it by row.
    """
    name = name or "union"
    if union.is_empty():
        zero = Summable.constant(0, name=f"chi[{name}]")
        return MeasurableSet(characteristic=zero, support=union, name=name)

    endpoints = sorted(set(union.endpoints()))
    avoid = point_avoiding_seq(endpoints, name=f"edges[{name}]")
    if extra_domain is None:
        dom = avoid
    else:
        dom = intersect_pair(avoid, extra_domain, name=f"dom[{name}]")
    # The piece right of an endpoint lies in the union when a component starts there.
    starts = {a for a, _ in union.ivs}
    ed = lcm(*(t.denominator for t in endpoints))
    base = piecewise_constant([t.numerator * (ed // t.denominator) for t in endpoints], ed,
                              [0, *(int(t in starts) for t in endpoints)], 1, dom,
                              f"chi[{name}]", 3)
    # Term k falls short only on two ramps per component, each (b - a) * 2**-(k+2)
    # wide: its L1 distance from the indicator is length * 2**-(k+2), and each
    # gap is that tail's drop.
    length = union.length
    characteristic = Summable(base, lambda k: union_indicator(union, k),
                              name=base.name, tail=lambda k: length * pow2(-(k + 2)))
    return MeasurableSet(characteristic=characteristic, support=union, name=name)


def point_in_positive_set(x: MeasurableSet, prefix: int = 24) -> DomainWitness:
    """A witness inside a set of positive measure, characteristic value 1.

    Interval-backed sets with profiled domains admit a direct interior
    selection (a third of the way into the largest component, which carries
    an exact witness); anything else falls back to the certified
    positive-point realization :func:`positive_point`.
    """
    if x.support is not None and not x.support.is_empty():
        a, b = x.support.largest_component()
        candidate = a + (b - a) / 3
        gamma = x.characteristic.domain.profile_at(candidate)
        if gamma is not None:
            w = DomainWitness(x=CReal.from_rational(candidate), gamma=gamma)
            value = x.characteristic.eval(w).approx(3)
            if abs(value - 1) <= Fraction(1, 8):
                return w
    w = positive_point(x.characteristic, prefix)
    value = x.characteristic.eval(w).approx(3)
    if abs(value - 1) > Fraction(1, 8):
        raise CertificationError("realized point does not certify membership")
    return w


def limit_of_summables(seq: Callable[[int], Summable],
                       name: str = "") -> Summable:
    """Limit of an L1-fast sequence of summable functions.

    The result's approximants are the diagonal of the input grids; its
    domain intersects the geometric-decay refinements of the diagonal-gap
    and staircase-gap sequences with every input's domain, so witnesses
    give a computable convergence rate.  Asking for term n first certifies
    the input gaps ``integral |F_{i+1} - F_i| < 2**-i`` for ``i <= n + 1``
    from finite grids, then the output's own decay chain up to n; failures
    name the offending index.  ``seq`` is called at most once per index,
    under a memo's lock, so callers may keep unlocked schedules behind it.
    """
    f = Memo(seq)

    def certify_input_gap(n: int) -> None:
        a, b = f(n + 1), f(n)
        if a is not b:
            try:
                certify_l1_gap(a, b, pow2(-n))
            except BudgetExhausted as exc:
                raise CertificationError(
                    f"input L1 bound 2^-{n} could not be certified", index=n) from exc

    input_gaps = Memo(certify_input_gap)
    diag = Memo(lambda j: f(j + 2).term(j + 2))

    def prefetch(limit: Summable, n: int) -> None:
        for i in range(n + 2):
            input_gaps(i)
        limit.check_prefix(n - 1)

    delta = RegularSeq(lambda j: abs(diag(j + 1) - diag(j)),
                       name=f"diag-gaps[{name}]")

    def staircase(n: int) -> Polygonal:
        pieces = []
        for k in range(n + 3):
            fk = f(n + 2 - k)
            pieces.append((1, abs(fk.term(n + 4 + k) - fk.term(n + 2 + k))))
        return linear_sum(pieces)

    stairs = RegularSeq(staircase, name=f"stair-gaps[{name}]")
    dec_delta, _ = geometric_decay(delta)
    dec_stairs, _ = geometric_decay(stairs)

    def rows(r: int) -> RegularSeq:
        if r == 0:
            return dec_delta
        if r == 1:
            return dec_stairs
        return f(r - 2).domain

    dom = intersect_countable(rows, name=f"dom[{name}]")

    def evaluator(w: DomainWitness) -> CReal:
        gamma0 = row_witness(w, 0).gamma

        def fn(p: int) -> Fraction:
            target = pow2(-(p + 1))
            bound = 8 * gamma0
            j = 0
            cap = budget_cap(4096)
            while bound > target:
                bound = bound * 3 / 4
                j += 1
                if j > cap:
                    raise BudgetExhausted("convergence rate exceeded the budget",
                                          needed=j)
            return diag(j).eval_creal(w.x).approx(p + 1)

        return CReal(fn)

    base = AEFunction(dom, evaluator, name=name or "limit")
    return Summable(base, diag, name=base.name, prefetch=prefetch)


def ae_zero_of_null_integral(f: Summable, p: int) -> RegularSeq:
    """Almost-full set on which a nonnegative null-integral function vanishes.

    Checks nonnegativity of the approximants (negative parts must stay below
    the convergence slack) and the null-integral certificate at precision p,
    then takes the limit of the scaled functions ``2**j * f``: wherever that
    limit exists, f must be zero.  Returns the limit's domain sequence.
    """
    for n in range(min(p, 20) + 1):
        neg = -(f.term(n).min_with(_ZERO_POLY).integral())
        if neg > pow2(-n + 1):
            raise CertificationError(
                f"negative mass {neg} at index {n} contradicts nonnegativity",
                index=n)
    value = f.integral(p)
    if value > pow2(-p + 2):
        raise CertificationError(
            f"integral {value} at precision {p} is not certified null")

    limit = limit_of_summables(lambda j: f.scale(pow2(j)),
                               name=f"null[{f.name}]")
    return limit.domain


def full_measure_to_pps(x: MeasurableSet, p: int) -> RegularSeq:
    """Almost-full set inside a measurable set of certified full measure."""
    if x.measure(p) < 1 - pow2(-p + 2):
        raise CertificationError(
            f"measure at precision {p} does not certify fullness")
    residual = (Summable.constant(1) - x.characteristic).clip_nonneg()
    return ae_zero_of_null_integral(residual, max(3, p - 2))


def summable_min(fs: Sequence[Summable], name: str = "") -> Summable:
    """Pointwise minimum of finitely many summable functions."""
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one function")
    if len(fs) == 1:
        return fs[0]
    return _pointwise(fs, lambda *xs: reduce(lambda a, b: a.min_with(b), xs), name or "min")


def countable_set_intersection(sets: Callable[[int], MeasurableSet],
                               defects: Callable[[int], Fraction],
                               defect_tail: Callable[[int], Fraction],
                               name: str = ""):
    """Intersection of the measurable sets ``X_n = sets(n)`` with summable defects.

    ``defects(n)`` bounds ``1 - measure(X_n)`` and ``defect_tail(n)`` the
    exact tail ``sum_{k>n} defects(k)``.  Partial intersections are thinned
    greedily (earliest index whose tail fits the next L1 budget) and passed
    through the summable limit; returns the intersection together with the
    exact reported lower bound ``1 - sum defects``.
    """
    def meet(n: int) -> Summable:
        chars = [sets(i).characteristic for i in range(n + 1)]
        return summable_min(chars, name=f"{name}[0..{n}]")

    partial = Memo(meet)
    cap = budget_cap(4096)

    # Where each step of the greedy walk stopped.  The walk goes on from the
    # last one; it is kept here, not read back from the table, so the table
    # holds no reference to itself.
    stops = []

    def cut(j: int) -> int:
        while len(stops) <= j:
            nu = stops[-1] if stops else 0
            while defect_tail(nu) >= pow2(-len(stops) - 1):
                nu += 1
                if nu > cap:
                    raise BudgetExhausted(
                        "defect tail does not shrink; series may diverge", needed=nu)
            stops.append(nu)
        return stops[j]

    thin = Memo(cut)

    limit = limit_of_summables(lambda j: partial(thin(j)), name=name or "meet")
    k_report = thin(2) + 4
    total_defect = sum((Fraction(defects(k)) for k in range(k_report + 1)), ZERO) \
        + defect_tail(k_report)
    lower = 1 - total_defect
    return MeasurableSet(characteristic=limit, support=None,
                         name=name or "meet"), lower
