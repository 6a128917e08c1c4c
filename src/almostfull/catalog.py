"""Catalog of test functions driving the command-line harness.

Each entry builds deterministically: an a.e.-defined function, where
available a summable representation with an exact expected integral, and
where available a mean-convergence certificate for the net route.  The
oscillating entry is a negative probe only: its effective modulus sits far
beyond desk-scale nets, so it deliberately carries no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .aefunc import AEFunction, Summable, char_of_interval_union, piecewise_constant
from .bridge import Bridge, NetIndex, RiemannCertificate, bridge_for
from .exact import CReal, HALF, Memo, ceil_log2, clamp01, pow2
from .polygonal import IntervalUnion, Polygonal
from .regular import DomainWitness, RegularSeq, point_avoiding_seq

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    function: AEFunction
    summable: Optional[Summable]
    certificate: Optional[RiemannCertificate]
    expected: Optional[Fraction]
    expected_note: str = ""


def _lipschitz_certificate(lip) -> RiemannCertificate:
    """Canonical modulus for Lipschitz functions.

    Above level m, any two nets sample each point's value within a cell of
    width 2**-m, so their plateau values differ by at most ``lip * 2**-m``
    plus twice the coefficient rounding; mesh ``(lip + 1/2) * 2**-m < eps``
    suffices.
    """
    lip = Fraction(lip)

    def modulus(eps: Fraction) -> NetIndex:
        m = max(1, ceil_log2((lip + Fraction(1, 2)) / eps))
        return NetIndex.canonical(m)

    return RiemannCertificate(modulus=modulus)


def _constant_certificate(level: int) -> RiemannCertificate:
    alpha = NetIndex.canonical(level)
    return RiemannCertificate(modulus=lambda eps: alpha)


def poly_entry(name: str, h: Polygonal, description: str) -> CatalogEntry:
    s = Summable.from_polygonal(h, name=name)
    return CatalogEntry(
        name=name, description=description, function=s.base, summable=s,
        certificate=_lipschitz_certificate(h.lipschitz()),
        expected=h.integral(), expected_note="exact trapezoid integral")


def _square_summable(name: str = "square") -> Summable:
    """Interpolants of x**2 on 2**n uniform pieces, above x**2 and falling with
    n: the tail ``integral I_n - 1/3 = 4**-n/6`` is exact, each gap its drop."""

    def term(n: int) -> Polygonal:
        nodes = range((1 << n) + 1)
        return Polygonal.from_integers(nodes, 1 << n, [i * i for i in nodes], 1 << 2 * n)

    def evaluator(w: DomainWitness) -> CReal:
        def fn(p: int) -> Fraction:
            x = clamp01(w.x.approx(p + 2))
            return x * x

        return CReal(fn)

    base = AEFunction(RegularSeq.zero(), evaluator, name=name)
    return Summable(base, term, name=name, tail=lambda n: Fraction(1, 6 << 2 * n))


def square_offset_summable() -> Summable:
    """Second approximation schedule for x**2: interpolants one level finer.

    Shares the evaluator and domain with the uniform schedule, so the pair
    feeds the integral uniqueness check.
    """
    uniform = _square_summable("square-alt")
    return Summable(uniform.base, lambda n: uniform.term(n + 1), name="square-alt",
                    tail=lambda n: Fraction(1, 6 << 2 * n + 2))


def _step_summable(name: str = "ae-step") -> Summable:
    """Unit step, 0 left of the midpoint and 1 right of it, undefined at it.

    The domain sequence is a stack of unit-height tents shrinking around the
    midpoint, so the bounded-sum set excludes exactly that point; every
    witness carries an effective distance from it.  The function is
    ``piecewise_constant``, so its nets sample it in one batch.
    """
    domain = point_avoiding_seq([HALF], name="step-dom")

    def ramp_width(n: int) -> Fraction:
        return pow2(-(n + 2))

    def term(n: int) -> Polygonal:
        w = ramp_width(n)
        return Polygonal((ZERO, HALF, HALF + w, ONE), (ZERO, ZERO, ONE, ONE))

    # The ramp's triangle, half its width, is term n's L1 distance from the step.
    base = piecewise_constant((1,), 2, (0, 1), 1, domain, name, 2)
    return Summable(base, term, name=name, tail=lambda n: ramp_width(n) / 2)


def _osc_function(scale_exp: int = 24, name: str = "osc") -> AEFunction:
    """Triangular wave oscillating at a scale finer than any desk net.

    Total and extensional, but running through full amplitude on every cell
    of every net coarser than its scale, so sampled nets cannot become
    L1-Cauchy at desk resolution.  The frequency is odd, so dyadic-rational
    sample points do not alias onto a single phase.
    """
    freq = (1 << scale_exp) - 1

    def evaluator(w: DomainWitness) -> CReal:
        def fn(p: int) -> Fraction:
            x = clamp01(w.x.approx(p + scale_exp + 1))
            y = x * freq
            u = y - 2 * (y.numerator // (2 * y.denominator))
            return u if u <= 1 else 2 - u

        return CReal(fn)

    return AEFunction(RegularSeq.zero(), evaluator, name=name)


def tents_at_center_seq(name: str = "tents-half") -> RegularSeq:
    """Tents at the midpoint with heights 2**-(n+1) spanning the interval.

    The areas are 2**-(n+2), summing to 1/2; the pointwise series equals
    1 - 2|x - 1/2| everywhere, so the whole interval admits witnesses.
    """

    def term(n: int) -> Polygonal:
        return Polygonal.tent(HALF, pow2(-(n + 1)), HALF)

    def profile(x: Fraction) -> Fraction:
        return 1 - 2 * abs(x - HALF)

    return RegularSeq(term, name=name, profile=profile)


THREE_PIECE = Polygonal.from_pairs([
    (ZERO, Fraction(1, 4)),
    (Fraction(1, 4), ONE),
    (Fraction(3, 4), HALF),
    (ONE, ZERO),
])


def _build_entry(name: str) -> CatalogEntry:
    if name == "identity":
        h = Polygonal.identity()
        s = Summable.from_polygonal(h, name="identity")
        return CatalogEntry(
            name="identity", description="the ramp x on [0, 1]",
            function=s.base, summable=s,
            certificate=_lipschitz_certificate(1),
            expected=HALF, expected_note="exact ramp area")
    if name == "constant":
        s = Summable.constant(1, name="constant")
        return CatalogEntry(
            name="constant", description="the constant 1",
            function=s.base, summable=s,
            certificate=_constant_certificate(1),
            expected=ONE, expected_note="constant value")
    if name == "tent":
        return poly_entry("tent", Polygonal.tent(HALF),
                          "unit tent peaking at the midpoint")
    if name == "three-piece":
        return poly_entry("three-piece", THREE_PIECE,
                          "a three-segment profile with mixed slopes")
    if name == "square":
        s = _square_summable()
        return CatalogEntry(
            name="square", description="x squared via uniform interpolants",
            function=s.base, summable=s,
            certificate=_lipschitz_certificate(2),
            expected=Fraction(1, 3), expected_note="closed-form integral")
    if name == "ae-step":
        s = _step_summable()
        return CatalogEntry(
            name="ae-step",
            description="unit step, undefined at the midpoint",
            function=s.base, summable=s,
            certificate=_constant_certificate(2),
            expected=HALF, expected_note="exact step area")
    if name == "char-upper-half":
        ms = char_of_interval_union(IntervalUnion(((HALF, ONE),)),
                                    name="char-upper-half")
        s = ms.characteristic
        return CatalogEntry(
            name="char-upper-half",
            description="characteristic of the open upper half interval",
            function=s.base, summable=s, certificate=None,
            expected=HALF, expected_note="interval length")
    if name == "osc":
        f = _osc_function()
        return CatalogEntry(
            name="osc",
            description="triangular wave at scale 2**-24; negative probe only",
            function=f, summable=None, certificate=None,
            expected=None, expected_note="")
    raise KeyError(name)


# One entry per name, built on first use and shared by every caller.
get_entry = Memo(_build_entry)

CATALOG_NAMES = ("identity", "constant", "tent", "three-piece", "square",
                 "ae-step", "char-upper-half", "osc")


def get_bridge(name: str) -> Bridge:
    """The bridge of a catalog entry's function, shared like the entry."""
    return bridge_for(get_entry(name).function)
