"""Regular sequences, almost-full sets, and certified point realization.

A regular sequence is a lazily generated sequence of nonnegative polygonal
functions ``h_n`` whose integrals decay below ``2**-n``; the set of points
where the series ``sum h_n(x)`` stays bounded is an almost-full subset of
[0, 1], and a pair ``(x, gamma)`` bounding every partial sum is a checkable
membership witness.  This module certifies regularity exactly, realizes
points of almost-full sets by interval bisection, and provides the two
combinators used everywhere downstream: countable intersection and
geometric-decay refinement, each with explicit witness transport.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from threading import RLock
from typing import Callable, Optional, Sequence

from .errors import BudgetExhausted, CertificationError, RegularityError
from .exact import CReal, Memo, budget_cap, ceil_log2, clamp01, pow2
from .polygonal import Polygonal, linear_sum

ZERO = Fraction(0)
ONE = Fraction(1)


class RegularSeq:
    """Lazy sequence of nonnegative polygonals with ``integral(h_n) < 2**-n``.

    Terms are generated on demand, memoized, and checked exactly at
    generation time: a violating term raises RegularityError.  Generators
    must be pure, so concurrent readers always observe identical terms.
    ``profile(x)``, when given, is an exact bound for every partial sum
    ``sum_{k<=m} h_k(x)``, or None; ``avoids``, when known, is the finite
    set of points where ``profile_at`` is None.
    ``support(k)``, when given, covers every point where term k is nonzero
    by open intervals, without calling ``gen``, or is None when unknown: parts
    ``(nums, den, w)``, each the intervals ``(c/den - w, c/den + w)`` for c in
    the sorted integers ``nums``.  :meth:`vanishes_on` answers from it, so a
    term it shows dead is never built, nor regularity-checked.
    """

    def __init__(self, gen: Callable[[int], Polygonal], name: str = "",
                 profile: Optional[Callable[[Fraction], Optional[Fraction]]] = None,
                 avoids: Optional[Sequence[Fraction]] = None, *,
                 support: Optional[Callable[[int], Optional[list]]] = None):
        label = name or "sequence"

        def checked(n: int) -> Polygonal:
            h = gen(n)
            if not h.is_nonneg():
                raise RegularityError(f"term {n} of {label} takes negative values",
                                      index=n)
            if not h.integral() < pow2(-n):
                raise RegularityError(
                    f"term {n} of {label} has integral {h.integral()} >= 2^-{n}",
                    index=n)
            return h

        self._terms = Memo(checked)
        self._support = None if support is None else Memo(support)
        self._profile = profile
        self.name = name
        self.avoids = avoids

    def term(self, n: int) -> Polygonal:
        if n < 0:
            raise ValueError("term index must be >= 0")
        return self._terms(n)

    def support(self, k: int) -> Optional[list]:
        """The parts ``(nums, den, w)`` covering term k's nonzero set, or None."""
        return None if self._support is None else self._support(k)

    def vanishes_on(self, n: int, lo: Fraction, hi: Fraction) -> bool:
        """Whether term n is 0 on ``[lo, hi]``, ``lo < hi``; from its support if known."""
        parts = self.support(n)
        if parts is None:
            return self.term(n).vanishes_on(lo, hi)
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        for nums, den, w in parts:
            # The first center above lo - w is the only one that can lie below hi + w.
            p, q = w.numerator, w.denominator
            i = bisect_right(nums, den * (a * q - p * b) // (b * q))
            if i < len(nums) and (nums[i] * q - p * den) * d < c * den * q:
                return False
        return True

    def prefix(self, n: int) -> list:
        return [self.term(k) for k in range(n + 1)]

    def check_prefix(self, n: int) -> None:
        """Force generation (and hence exact regularity checks) up to index n."""
        self.prefix(n)

    def prefix_integral(self, n: int) -> Fraction:
        """Exact ``sum_{k<=n} integral(h_k)``."""
        return sum((self.term(k).integral() for k in range(n + 1)), ZERO)

    @staticmethod
    def tail_bound(n: int) -> Fraction:
        """Geometric bound for ``sum_{k>n} integral(h_k)``; equals 2**-n."""
        return pow2(-n)

    def profile_at(self, x) -> Optional[Fraction]:
        """The exact bound for every partial sum at x, or None where there is none."""
        if self._profile is None:
            return None
        return self._profile(x if type(x) is Fraction else Fraction(x))

    def profiled(self, nums: Sequence[int], den: int) -> list:
        """Whether ``profile_at(n / den)`` is not None for each n, from ``avoids`` if known."""
        if self.avoids is None:
            return [self.profile_at(Fraction(n, den)) is not None for n in nums]
        off = {a.numerator * (den // a.denominator) for a in self.avoids
               if den % a.denominator == 0}
        return [n not in off for n in nums] if off else [True] * len(nums)

    def shifted(self, s: int) -> "RegularSeq":
        """The sequence ``n -> h_{n+s}``; regularity is inherited, and so is
        the profile: its partial sums are tails of the sequence's own."""
        if s < 0:
            raise ValueError("shift must be >= 0")
        return RegularSeq(lambda n: self.term(n + s),
                          name=f"{self.name}>>{s}" if self.name else "",
                          profile=self._profile, avoids=self.avoids,
                          support=lambda k: self.support(k + s))

    @staticmethod
    def zero() -> "RegularSeq":
        z = Polygonal.constant(0)
        return RegularSeq(lambda n: z, name="zero",
                          profile=lambda x: ZERO, avoids=(), support=lambda k: ())

    @staticmethod
    def from_terms(terms: Sequence[Polygonal], name: str = "") -> "RegularSeq":
        """Finitely many explicit terms padded with zeros."""
        terms = list(terms)
        z = Polygonal.constant(0)

        def support(n):
            # A nonzero node is nonzero up to (not at) its neighbours.
            h = terms[n] if n < len(terms) else z
            xs = (-ONE, *h.xs, 2 * ONE)
            spans = [(xs[i] + xs[i + 2], xs[i + 2] - xs[i]) for i, v in enumerate(h.vs) if v]
            return [((m.numerator,), 2 * m.denominator, w / 2) for m, w in spans]

        return RegularSeq(lambda n: terms[n] if n < len(terms) else z,
                          name=name, profile=lambda x: sum((t.eval(x) for t in terms), ZERO),
                          support=support)


def serialize_prefix(seq: RegularSeq, n: int) -> str:
    """JSON fixture for the first n+1 terms (rational-string node pairs)."""
    import json

    return json.dumps([seq.term(k).to_pairs() for k in range(n + 1)],
                      separators=(",", ":"))


def deserialize_prefix(text: str) -> list:
    """Terms back from a fixture produced by :func:`serialize_prefix`."""
    import json

    from .exact import from_ratstr

    out = []
    for pairs in json.loads(text):
        out.append(Polygonal.from_pairs(
            (from_ratstr(t), from_ratstr(v)) for t, v in pairs))
    return out


def point_avoiding_seq(points: Sequence, name: str = "") -> RegularSeq:
    """Sequence of shrinking unit-height tents around finitely many points.

    The bounded-sum set excludes exactly the given points: each tent at index
    k has half-width ``2**-(k+2) / count``, so the series diverges on the
    points and vanishes eventually everywhere else.  The points are brought
    to one common denominator when the sequence is built; terms (all tents
    of an index summed in one pass) and profiles are integer arithmetic, and
    profiles are computed in closed form without materializing the terms.
    """
    pts = sorted({Fraction(p) for p in points})
    for p in pts:
        if not 0 <= p <= 1:
            raise ValueError("avoided points must lie in [0, 1]")
    if not pts:
        return RegularSeq.zero()
    den = lcm(*(p.denominator for p in pts))
    nums = [p.numerator * (den // p.denominator) for p in pts]
    # 1 / width(k) = scale << k.
    scale = 4 * len(pts)

    def gen(k: int) -> Polygonal:
        # Over den * (scale << k) every half-width is den and point i is at c[i].
        xd = den * (scale << k)
        c = [t * (scale << k) for t in nums]
        x = [0, *sorted({t for p in c for t in (p - den, p, p + den) if 0 < t < xd}), xd]
        v = [sum(den - abs(t - p) for p in c[bisect_right(c, t - den):bisect_left(c, t + den)])
             for t in x]
        return Polygonal.from_integers(x, xd, v, den)

    def profile(x):
        # Point i adds 1 - d_i / width(k) while d_i < width(k).  With
        # big = b * den, d_i = |a den - b p_i| / big; for q = scale * |a den - b p_i|
        # that is q << k < big, i.e. k < n for the least n with q << n >= big,
        # and the terms sum to (n * big - q * (2**n - 1)) / big.
        a, b = x.numerator, x.denominator
        big = b * den
        total = 0
        for p in nums:
            q = scale * abs(a * den - b * p)
            if q == 0:
                return None
            n = (-(-big // q) - 1).bit_length()
            total += n * big - q * ((1 << n) - 1)
        return Fraction(total, big)

    return RegularSeq(gen, name=name or "avoid", profile=profile, avoids=tuple(pts),
                      support=lambda k: ((nums, den, Fraction(1, scale << k)),))


@dataclass(frozen=True)
class DomainWitness:
    """A point together with a bound for all partial sums of the sequence."""

    x: CReal
    gamma: Fraction

    def verify(self, seq: RegularSeq, depth: int, precision: int):
        """Check the witness inequality on a finite prefix.

        Evaluates ``sum_{n<=m} h_n(x~)`` for all ``m <= depth`` at a rational
        approximant ``x~`` of the point, and accepts when each partial sum
        stays within ``gamma`` plus the accumulated slope-induced error.
        Returns ``(ok, accumulated_error)``.
        """
        xt = clamp01(self.x.approx(precision))
        err = ZERO
        run = ZERO
        step = pow2(-precision)
        for n in range(depth + 1):
            h = seq.term(n)
            run += h.eval(xt)
            err += h.lipschitz() * step
            if run > self.gamma + err:
                return False, err
        return True, err


def witness_precision(seq: RegularSeq, depth: int, target_exp: int) -> int:
    """Precision making the accumulated evaluation error at most 2**-target_exp."""
    lam = sum((seq.term(n).lipschitz() for n in range(depth + 1)), ZERO)
    if lam <= 0:
        return target_exp
    return target_exp + max(0, ceil_log2(lam))


@dataclass(frozen=True)
class RealizedPoint:
    """Result of a certified realization.

    ``bound`` is a rational upper bound for the series ``sum h_n(point)``
    that sits strictly below ``h(point)``; ``margin`` (= epsilon/2) is the
    certified gap usable in finite-precision comparisons.
    """

    point: CReal
    bound: Fraction
    epsilon: Fraction
    margin: Fraction
    prefix: int


class _Bisection:
    """Nested dyadic intervals preserving the weighted averaged inequality.

    State at depth d is an interval I of width 2**-d, a prefix length K and
    an exact margin  M = int_I (h - eps) - sum_{n<=K} (1+eps)^n int_I h_n - T(K),
    where T(K) bounds the remaining tail.  M stays positive: extending K can
    only increase it, and after arranging T(K) <= M/2 at least one half of I
    keeps a positive margin.  The walk keeps the indices of the terms that
    are not identically 0 on the last interval, and integrates only those: a
    term dead on I adds exactly 0 there and on both halves, so each step
    filters the live list with the exact test ``seq.vanishes_on``, and a new
    prefix term is tested once, against the interval it joins.  Where the
    sequence knows its term supports, that test builds nothing, so a term
    dead on the interval it joins is never built.
    """

    CHUNK = 4

    def __init__(self, h: Polygonal, seq: RegularSeq, eps: Fraction, k0: int,
                 depth_cap: int):
        self.h = h
        self.seq = seq
        self.eps = eps
        lam = (1 + eps) / 2
        self.depth_cap = depth_cap
        self._lock = RLock()
        growth = 1 + eps
        self._pow = Memo(lambda n: growth ** n)
        self.tail = Memo(lambda k: lam ** (k + 1) / (1 - lam))
        # chain entries: (lo, hi, K, margin); _live: the terms alive on chain[-1].
        self._live = self._alive(range(k0 + 1), ZERO, ONE)
        self.chain = [(ZERO, ONE, k0, self._margin(ZERO, ONE, k0, self._live))]

    def _alive(self, indices, lo, hi) -> list:
        vanishes = self.seq.vanishes_on
        return [n for n in indices if not vanishes(n, lo, hi)]

    def _weighted(self, lo, hi, live) -> Fraction:
        term, pw = self.seq.term, self._pow
        return sum((pw(n) * term(n).integral_on(lo, hi) for n in live), ZERO)

    def _margin(self, lo, hi, k, live) -> Fraction:
        d = self.h.integral_on(lo, hi) - self.eps * (hi - lo) - self._weighted(lo, hi, live)
        return d - self.tail(k)

    def refine_to(self, depth: int) -> None:
        tail = self.tail
        with self._lock:
            while len(self.chain) - 1 < depth:
                if len(self.chain) - 1 >= self.depth_cap:
                    raise BudgetExhausted(
                        "bisection depth cap reached during realization",
                        needed=depth)
                lo, hi, k, margin = self.chain[-1]
                live = self._live
                # Deepen the prefix until the tail is dominated.
                while tail(k) > margin / 2:
                    k2 = k + self.CHUNK
                    new = self._alive(range(k + 1, k2 + 1), lo, hi)
                    margin += (tail(k) - tail(k2)) - self._weighted(lo, hi, new)
                    live, k = live + new, k2
                mid = (lo + hi) / 2
                left_live = self._alive(live, lo, mid)
                left = self._margin(lo, mid, k, left_live)
                if left > 0:
                    self.chain.append((lo, mid, k, left))
                    self._live = left_live
                else:
                    right = (margin - tail(k)) - left
                    if not right > 0:
                        raise CertificationError(
                            "bisection invariant lost; underlying certificates inconsistent")
                    self.chain.append((mid, hi, k, right))
                    self._live = self._alive(live, mid, hi)

    def point(self) -> CReal:
        def fn(p: int) -> Fraction:
            self.refine_to(p)
            lo, hi, _, _ = self.chain[p]
            return (lo + hi) / 2

        return CReal(fn)


def realize_point(h: Polygonal, seq: RegularSeq, prefix: int) -> RealizedPoint:
    """Realize a point where the series ``sum h_n`` stays strictly below h.

    Requires the finite certificate
    ``integral(h) > prefix_integral(prefix) + 2**-prefix``; searches downward
    through ``eps = 2**-e`` (extending the certified prefix by 2 per halving)
    until the weighted inequality
    ``integral(h - eps) > sum (1+eps)^n integral(h_n) + tail`` holds, then
    bisects [0, 1] keeping a half on which the inequality persists, always
    preferring the left half when both qualify.
    """
    total_h = h.integral()
    lhs = seq.prefix_integral(prefix) + pow2(-prefix)
    if not total_h > lhs:
        raise CertificationError(
            f"hypothesis margin insufficient at prefix {prefix}: "
            f"integral {total_h} vs certified bound {lhs}")

    e_cap = budget_cap(64)
    depth_cap = budget_cap(4096)
    for e in range(1, e_cap + 1):
        walk = _Bisection(h, seq, pow2(-e), prefix + 2 * e, depth_cap)
        if walk.chain[0][3] > 0:
            break
    else:
        raise BudgetExhausted("no admissible eps found; raise the budget", needed=e_cap)

    eps = walk.eps
    xi = walk.point()
    p = e + 2
    h_at = h.eval_creal(xi).approx(p)
    bound = h_at + pow2(-p) - eps
    return RealizedPoint(point=xi, bound=bound, epsilon=eps, margin=eps / 2,
                         prefix=prefix + 2 * e)


def point_in_pps(seq: RegularSeq) -> DomainWitness:
    """A point of the almost-full set of the sequence, with witness bound 2.

    Always applicable: the constant 2 dominates every certified prefix sum.
    """
    realized = realize_point(Polygonal.constant(2), seq, 0)
    return DomainWitness(x=realized.point, gamma=Fraction(2))


def intersect_countable(rows: Callable[[int], RegularSeq] | Sequence[RegularSeq],
                        name: str = "") -> RegularSeq:
    """Diagonal combination certifying a countable intersection.

    Returns the sequence ``g_k = sum_{n<=k} 2**-(2n+1) * h_{n, k-n}`` built
    from the rows; its almost-full set is contained in every row's.  A
    witness ``(x, gamma)`` for the result transports to row n as
    ``(x, 2**(2n+1) * gamma)`` via :func:`row_witness`.  A finite list of
    rows is padded with zero rows, and only then has a pointwise profile.
    """
    zero_from = None
    if not callable(rows):
        seqs = list(rows)
        zero_from = len(seqs)
        zero = RegularSeq.zero()

        def row_fn(n: int) -> RegularSeq:
            return seqs[n] if n < len(seqs) else zero
    else:
        row_fn = rows

    row = Memo(row_fn)

    def rows_of(k: int) -> range:
        return range((k if zero_from is None else min(k, zero_from - 1)) + 1)

    def gen(k: int) -> Polygonal:
        pairs = []
        for n in rows_of(k):
            try:
                pairs.append((pow2(-(2 * n + 1)), row(n).term(k - n)))
            except RegularityError as exc:
                raise RegularityError(
                    f"row {n} violates regularity at index {k - n}",
                    index=(n, k - n)) from exc
        return linear_sum(pairs)

    profile = avoids = None
    if zero_from is not None:
        if all(r.avoids is not None for r in seqs):
            avoids = tuple(sorted({a for r in seqs for a in r.avoids}))

        def profile(x):
            # Every row is read: the profile exists only where all rows have one.
            total = ZERO
            for n in range(zero_from):
                p = row(n).profile_at(x)
                if p is None:
                    return None
                total += pow2(-(2 * n + 1)) * p
            return total

    # Every c * h has c > 0 and h >= 0: term k is 0 where every row term is.
    return RegularSeq(gen, name=name or "intersection", profile=profile, avoids=avoids,
                      support=lambda k: _union(row(n).support(k - n) for n in rows_of(k)))


def _union(supports) -> Optional[list]:
    """The parts of each support in turn, or None at the first unknown one."""
    parts = []
    for got in supports:
        if got is None:
            return None
        parts += got
    return parts


def row_witness(w: DomainWitness, n: int) -> DomainWitness:
    """Transport an intersection witness to row n."""
    return DomainWitness(x=w.x, gamma=pow2(2 * n + 1) * w.gamma)


def intersect_pair(a: RegularSeq, b: RegularSeq, name: str = "") -> RegularSeq:
    """Countable intersection specialized to two rows."""
    return intersect_countable([a, b], name=name or "pair")


def geometric_decay(seq: RegularSeq, name: str = ""):
    """Refine a regular sequence so members decay like (3/4)**n pointwise.

    Returns ``(g, transport)`` where
    ``g_n = ((4/3)**(2n) h_{2n} + (4/3)**(2n+1) h_{2n+1}) / 2``
    is again regular (``integral(g_n) <= (5/6)(4/9)**n <= 2**-n``), and
    ``transport(w, n)`` converts a witness for g into the exact pointwise
    bound ``h_n(x) <= 2 * gamma * (3/4)**n``.  g declares no profile.
    """
    four_thirds = Fraction(4, 3)

    def gen(n: int) -> Polygonal:
        return linear_sum(((four_thirds ** (2 * n) / 2, seq.term(2 * n)),
                           (four_thirds ** (2 * n + 1) / 2, seq.term(2 * n + 1))))

    def transport(w: DomainWitness, n: int) -> Fraction:
        return decay_bound(w.gamma, n)

    return RegularSeq(gen, name=name or "decay",
                      support=lambda n: _union(map(seq.support, (2 * n, 2 * n + 1)))), transport


def decay_bound(gamma, n: int) -> Fraction:
    """The transported geometric pointwise bound ``2 * gamma * (3/4)**n``."""
    return 2 * Fraction(gamma) * Fraction(3, 4) ** n
