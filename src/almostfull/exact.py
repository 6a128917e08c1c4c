"""Exact arithmetic substrate: rationals, certified reals, dyadic cells.

Every quantity in this library is either an exact ``fractions.Fraction`` or a
``CReal``: a real number represented by a map from a precision exponent ``p``
to a rational approximant within ``2**-p`` of the value.  Nothing here ever
rounds through binary floating point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from threading import RLock
from typing import Callable, Optional

from .errors import BudgetExhausted

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def pow2(e: int) -> Fraction:
    """2**e as an exact rational, for any integer e."""
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << (-e))


def ceil_log2(q: Fraction) -> int:
    """Smallest integer t with 2**t >= q, for rational q > 0."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ceil_log2 requires a positive rational")
    t = q.numerator.bit_length() - q.denominator.bit_length()
    while pow2(t) < q:
        t += 1
    while pow2(t - 1) >= q:
        t -= 1
    return t


def to_ratstr(q: Fraction) -> str:
    """Wire format for rationals: always ``"numerator/denominator"``.  A rational
    past the interpreter's int-to-str digit limit raises BudgetExhausted."""
    q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        digits = max(abs(q.numerator), q.denominator).bit_length() * 30103 // 100000 + 1
        raise BudgetExhausted(f"rational of about {digits} digits is too long to print") from None


def from_ratstr(s: str) -> Fraction:
    if not isinstance(s, str):
        raise TypeError(f"a rational is written as a \"p/q\" string, not {s!r}")
    num, _, den = s.partition("/")
    if den:
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def budget_cap(default: int) -> int:
    """Step cap for bounded searches.

    The environment variable ``ALMOSTFULL_BUDGET`` overrides every default at
    once; raising it gives constructions more room before they give up.  Any
    value but a positive decimal integer raises ValueError.
    """
    raw = os.environ.get("ALMOSTFULL_BUDGET")
    if raw is None:
        return default
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"ALMOSTFULL_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


def clamp01(q: Fraction) -> Fraction:
    """The nearest point of [0, 1] to q."""
    if q < 0:
        return ZERO
    if q > 1:
        return ONE
    return q


class Memo(dict):
    """Write-once table: ``memo(key)`` is ``compute(key)``, computed once.

    A miss runs ``compute`` under the table's own reentrant lock, so it runs
    once per key however many threads ask, and it may read other keys of
    the same table.  A ``compute`` that raises stores nothing.  Reads of
    stored keys take no lock, and ``key in memo`` tells whether a key is
    stored.  A table kept on an object should compute from that object's
    fields, not through the object: a ``compute`` holding its owner puts
    the owner in a reference cycle, freed only by the cyclic collector.
    """

    __slots__ = ("_compute", "_lock")

    def __init__(self, compute: Callable):
        self._compute = compute
        self._lock = RLock()

    __call__ = dict.__getitem__

    def __missing__(self, key):
        with self._lock:
            if key not in self:
                self[key] = self._compute(key)
            return self[key]


class CReal:
    """A real number carried as certified rational approximants.

    ``approx(p)`` returns a rational within ``2**-p`` of the represented
    value.  Approximant functions must be pure; results are memoized per
    instance, and instances may be shared freely between threads.  A real
    made by ``from_rational`` keeps its value in ``rational`` (None for
    every other real) and answers each precision with it directly.
    """

    __slots__ = ("_approx", "rational")

    def __init__(self, fn: Callable[[int], Fraction]):
        self._approx = Memo(fn)
        self.rational = None

    def approx(self, p: int) -> Fraction:
        if p < 0:
            raise ValueError("precision exponent must be >= 0")
        if self.rational is not None:
            return self.rational
        memo = self._approx
        got = memo.get(p)
        if got is None:
            # Memo's miss path, inlined: a chain of nested reals then recurses
            # through approx and fn alone, two frames per level.
            with memo._lock:
                got = memo.get(p)
                if got is None:
                    got = memo[p] = memo._compute(p)
        return got

    @staticmethod
    def from_rational(q) -> "CReal":
        x = object.__new__(CReal)
        x.rational = q if type(q) is Fraction else Fraction(q)
        return x

    # Arithmetic requests operand precision p+2: the two operand errors then
    # total at most 2**-(p+1), inside the 2**-p contract.

    def __add__(self, other: "CReal") -> "CReal":
        return CReal(lambda p: self.approx(p + 2) + other.approx(p + 2))

    def __sub__(self, other: "CReal") -> "CReal":
        return CReal(lambda p: self.approx(p + 2) - other.approx(p + 2))

    def __neg__(self) -> "CReal":
        return CReal(lambda p: -self.approx(p))

    def scale(self, c) -> "CReal":
        c = Fraction(c)
        if c == 0:
            return CReal.from_rational(0)
        shift = max(0, ceil_log2(abs(c)))
        return CReal(lambda p: c * self.approx(p + shift))

    def __abs__(self) -> "CReal":
        return CReal(lambda p: abs(self.approx(p + 2)))

    def min_with(self, other: "CReal") -> "CReal":
        return CReal(lambda p: min(self.approx(p + 2), other.approx(p + 2)))

    def max_with(self, other: "CReal") -> "CReal":
        return CReal(lambda p: max(self.approx(p + 2), other.approx(p + 2)))


def rat_approx(x: CReal, p: int) -> Fraction:
    """Rational within 2**-p of x.  Total: every CReal answers at every p."""
    if p < 0:
        raise ValueError("precision exponent must be >= 0")
    return x.approx(p)


def refine_until_decided(x: CReal, start: int, step: int,
                         decide: Callable[[Fraction, Fraction], Optional[Fraction]],
                         message: str) -> CReal:
    """A real whose value is settled by locating a point x closely enough.

    Approximates x at precisions ``start, start + step, ...`` and hands each
    approximant (clamped to [0, 1]) and its radius ``2**-p`` to ``decide``,
    which returns the value once the answer is certain and None while it is
    not.  The decided value is computed once and answers every precision;
    past the budget cap the search raises ``BudgetExhausted(message)``.
    """
    def search(_) -> Fraction:
        cap = budget_cap(4096)
        for p in range(start, cap + 1, step):
            got = decide(clamp01(x.approx(p)), pow2(-p))
            if got is not None:
                return got
        raise BudgetExhausted(message, needed=cap)

    decided = Memo(search)
    return CReal(lambda q: decided(None))


class Verdict(Enum):
    LEFT_BELOW = "left_below"
    RIGHT_BELOW = "right_below"


def soft_compare(a: CReal, b: CReal, eps) -> Verdict:
    """Comparison with slack eps > 0.

    LEFT_BELOW guarantees a < b + eps, RIGHT_BELOW guarantees b < a + eps.
    Near-equal inputs may receive either verdict; the returned guarantee
    always holds.  Terminates unconditionally: both operands are approximated
    to precision with 2**-p <= eps/4 and compared exactly.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = max(0, ceil_log2(4 / eps))
    if a.approx(p) <= b.approx(p):
        return Verdict.LEFT_BELOW
    return Verdict.RIGHT_BELOW


@dataclass(frozen=True)
class DyadicInterval:
    """Open dyadic cell (k * 2**-m, (k+1) * 2**-m) inside the unit interval."""

    k: int
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("dyadic level must be >= 0")
        if not 0 <= self.k < (1 << self.m):
            raise ValueError(f"cell index {self.k} out of range at level {self.m}")

    @property
    def left(self) -> Fraction:
        return Fraction(self.k, 1 << self.m)

    @property
    def right(self) -> Fraction:
        return Fraction(self.k + 1, 1 << self.m)

    @property
    def length(self) -> Fraction:
        return pow2(-self.m)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(2 * self.k + 1, 1 << (self.m + 1))

    def contains(self, x) -> bool:
        """Strict interior membership."""
        x = Fraction(x)
        return self.left < x < self.right
