"""Seeded invariant suites behind the ``verify`` command.

Each suite runs a list of named checks at desk scale and reports pass/fail
per check; any failure makes the suite fail.  A fault-injection flag
corrupts one catalog-derived object so the harness can demonstrate that
violations are caught and named.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .aefunc import Summable, integral_uniqueness_check
from .bridge import NetIndex
from .catalog import (CATALOG_NAMES, get_bridge, get_entry, square_offset_summable,
                      tents_at_center_seq)
from .errors import AlmostFullError, CertificationError
from .exact import clamp01, pow2, to_ratstr
from .polygonal import Polygonal
from .regular import (RegularSeq, geometric_decay, intersect_countable,
                      point_in_pps, row_witness, witness_precision)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _first_failure(name: str, cases, failure) -> CheckResult:
    """Check ``name`` over ``cases`` in order, stopping at the first one for
    which ``failure(case)`` returns a detail string instead of None."""
    for case in cases:
        detail = failure(case)
        if detail is not None:
            return CheckResult(name, False, detail)
    return CheckResult(name, True)


def _random_poly(rng: random.Random, low: int = -32, nodes: int = 4) -> Polygonal:
    """Random polygonal with values in ``[low/16, 2]`` on sixteenth steps."""
    cuts = sorted(rng.sample(range(1, 64), nodes))
    xs = [ZERO] + [Fraction(c, 64) for c in cuts] + [ONE]
    vs = [Fraction(rng.randint(low, 32), 16) for _ in xs]
    return Polygonal(tuple(xs), tuple(vs))


def _scaled_regular(rng: random.Random, n: int) -> Polygonal:
    h = _random_poly(rng, low=0)
    total = h.integral()
    if total == 0:
        return h
    target = pow2(-n) * Fraction(rng.randint(1, 7), 8)
    return h * (target / total)


def _random_regular_seq(seed: int, count: int, offset: int = 0) -> RegularSeq:
    rng = random.Random(seed)
    terms = [_scaled_regular(rng, n + offset) for n in range(count)]
    return RegularSeq.from_terms(terms)


def suite_regularity(seed: int) -> list:
    checks = []

    seq = _random_regular_seq(seed, 17)
    try:
        seq.check_prefix(16)
        checks.append(CheckResult("random-sequence-regular", True))
    except AlmostFullError as exc:
        checks.append(CheckResult("random-sequence-regular", False, str(exc)))

    const = RegularSeq(lambda n: Polygonal.constant(pow2(-(n + 1))))
    dec, _ = geometric_decay(const)

    def decay_failure(n):
        bound = Fraction(5, 6) * Fraction(4, 9) ** n
        val = dec.term(n).integral()
        if not (val <= bound and val < pow2(-n)):
            return f"n={n}: {val}"

    checks.append(_first_failure("decay-bound-exact", range(21), decay_failure))

    rows = [_random_regular_seq(seed + i, 20, offset=1) for i in range(3)]
    meet = intersect_countable(rows)
    try:
        meet.check_prefix(12)
        checks.append(CheckResult("intersection-regular", True))
    except AlmostFullError as exc:
        checks.append(CheckResult("intersection-regular", False, str(exc)))

    bad = RegularSeq(lambda n: Polygonal.constant(pow2(-n)))
    try:
        bad.term(3)
        checks.append(CheckResult("violation-detected", False, "accepted a bad term"))
    except AlmostFullError:
        checks.append(CheckResult("violation-detected", True))
    return checks


def suite_witnesses(seed: int) -> list:
    checks = []
    tents = tents_at_center_seq()
    w = point_in_pps(tents)
    prec = witness_precision(tents, 20, 30)
    ok, err = w.verify(tents, 20, prec)
    checks.append(CheckResult("tents-witness-verifies", ok,
                              f"accumulated error {to_ratstr(err)}"))

    rows = [_random_regular_seq(seed + 7 * i, 20, offset=1) for i in range(3)]
    meet = intersect_countable(rows)
    wm = point_in_pps(meet)

    def row_failure(n_row):
        wr = row_witness(wm, n_row)
        prec = witness_precision(rows[n_row], 12, 24)
        ok, _ = wr.verify(rows[n_row], 12, prec)
        if not ok:
            return f"row {n_row} failed"

    checks.append(_first_failure("intersection-transport", range(3), row_failure))

    dec, transport = geometric_decay(tents)
    wd = point_in_pps(dec)
    xt = clamp01(wd.x.approx(30))

    def transport_failure(n):
        bound = transport(wd, n)
        val = tents.term(n).eval(xt)
        slack = tents.term(n).lipschitz() * pow2(-30)
        if val > bound + slack:
            return f"n={n}: {to_ratstr(val)} > {to_ratstr(bound)}"

    checks.append(_first_failure("decay-transport-pointwise", range(8),
                                 transport_failure))
    return checks


def suite_integrals(seed: int) -> list:
    rng = random.Random(seed)
    checks = []

    def linearity_failure(i):
        h1 = _random_poly(rng)
        h2 = _random_poly(rng)
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        if (a * h1 + b * h2).integral() != a * h1.integral() + b * h2.integral():
            return f"case {i}"

    checks.append(_first_failure("integral-linearity-exact", range(60),
                                 linearity_failure))

    sq = get_entry("square").summable
    alt = square_offset_summable()
    checks.append(CheckResult(
        "uniqueness-square",
        integral_uniqueness_check(sq, alt, 12),
        ""))

    def chain_failure(n):
        gap = abs(sq.term(n + 1) - sq.term(n)).integral()
        if not gap < pow2(-n):
            return f"n={n}"

    checks.append(_first_failure("square-chain-bounds", range(13), chain_failure))

    f = get_entry("tent").summable
    bump = _random_poly(rng, low=0)
    g = f + Summable.from_polygonal(bump, name="bump")
    ok = f.integral(10) <= g.integral(10) + pow2(-8)
    checks.append(CheckResult("monotonicity", ok))

    def contract_failure(pq):
        p, q = pq
        gap = abs(sq.integral(p) - sq.integral(q))
        if gap > pow2(-p + 1) + pow2(-q + 1):
            return f"p={p},q={q}"

    checks.append(_first_failure("integral-precision-contract",
                                 ((4, 9), (6, 12), (8, 14)), contract_failure))
    return checks


def suite_bridge(seed: int, corrupt: bool = False) -> list:
    checks = []
    bridge = get_bridge("ae-step")

    if corrupt:
        # Fault injection: an offset sneaks into every other approximant, so
        # the decay-chain invariant must fail and be named in the report.
        base_s = get_entry("ae-step").summable
        corrupted = Summable(
            base_s.base,
            lambda n: base_s.term(n) + Polygonal.constant(
                Fraction(1, 4) if n % 2 else ZERO),
            name="corrupted")
        try:
            corrupted.check_prefix(6)
            checks.append(CheckResult("fault-injection", False,
                                      "injected fault went undetected"))
        except CertificationError as exc:
            checks.append(CheckResult("summable-decay-chain", False,
                                      f"violated invariant: {exc}"))
        return checks

    def delta_failure(n):
        length = bridge.delta_union(n).length
        if not length > 1 - Fraction(3, 4) ** n:
            return f"n={n}: length {to_ratstr(length)}"

    checks.append(_first_failure("delta-length-bound", range(9), delta_failure))

    def gamma_failure(n):
        info = bridge.gamma(n)
        if not info.lower_bound > 1 - 4 * Fraction(3, 4) ** n:
            return f"n={n}"

    checks.append(_first_failure("gamma-lower-bound", range(7), gamma_failure))

    def theta_cells():
        for m in range(1, 5):
            for n in range(4):
                deep = bridge.gamma_depth(m, n) + 16
                for k in range(1 << m):
                    yield k, m, n, deep

    def theta_failure(cell):
        k, m, n, deep = cell
        tail = 3 * Fraction(3, 4) ** deep
        mu_hi = bridge.gamma_union(n, deep).intersect_interval(
            Fraction(k, 1 << m), Fraction(k + 1, 1 << m)).length
        if bridge.theta(k, m, n):
            ok = mu_hi - tail > pow2(-2 * m) / 4
        else:
            ok = mu_hi - tail <= pow2(-2 * m) / 2
        if not ok:
            return f"cell ({k},{m},{n})"

    checks.append(_first_failure("theta-guarantees", theta_cells(), theta_failure))

    ident = get_bridge("identity")

    def bracket_failure(m):
        net = ident.net(NetIndex.canonical(m))
        total = net.coefficient_sum
        lower = sum(Fraction(l, 1 << m) for l in range(1 << m)) * pow2(-m)
        upper = lower + pow2(-m)
        if not lower <= total <= upper:
            return f"m={m}"

    checks.append(_first_failure("net-riemann-bracket", (2, 3, 4), bracket_failure))
    return checks


def suite_routes(seed: int) -> list:
    """Lebesgue route against net route at a seeded p, on each entry with both."""
    p = random.Random(seed).randint(3, 7)
    checks = []
    for e in map(get_entry, CATALOG_NAMES):
        if e.summable is not None and e.certificate is not None:
            net = get_bridge(e.name).to_lebesgue(e.certificate)
            values = f"{to_ratstr(e.summable.integral(p))} {to_ratstr(net.integral(p))}"
            checks.append(CheckResult(f"routes-{e.name}", integral_uniqueness_check(
                e.summable, net, p), f"p={p}: lebesgue, net = {values}"))
    return checks


SUITES = {
    "regularity": suite_regularity,
    "witnesses": suite_witnesses,
    "integrals": suite_integrals,
    "bridge": suite_bridge,
    "routes": suite_routes,
}


def run_suite(name: str, seed: int, corrupt: bool = False) -> list:
    """Run one suite; ``corrupt`` injects the bridge suite's fault, and no other."""
    if name not in SUITES:
        raise KeyError(name)
    if corrupt and name != "bridge":
        raise ValueError(f"corrupt applies to the bridge suite only, not {name}")
    return suite_bridge(seed, corrupt=True) if corrupt else SUITES[name](seed)
