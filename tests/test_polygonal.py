"""Piecewise-linear calculus: exact evaluation, integrals, lattice ops, sets."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from almostfull import (CReal, DyadicInterval, IntervalUnion, Polygonal,
                        indicator_approx, pow2, step_function, sublevel,
                        union_indicator)
from almostfull.exact import clamp01
from almostfull.polygonal import (Plateaus, StepPolygonal, l1_distance,
                                  l1_upper, linear_sum, step_plateau_l1)

F = Fraction
HALF = F(1, 2)

IDENTITY = Polygonal.identity()
TENT = Polygonal.tent(HALF)


def random_poly(rng, lo=-32, hi=32, nodes=4):
    cuts = sorted(rng.sample(range(1, 96), nodes))
    xs = [F(0)] + [F(c, 96) for c in cuts] + [F(1)]
    vs = [F(rng.randint(lo, hi), 16) for _ in xs]
    return Polygonal(xs, vs)


@st.composite
def polys(draw, lo=-32, hi=32):
    cuts = draw(st.lists(st.integers(1, 95), min_size=1, max_size=5, unique=True))
    xs = [F(0)] + [F(c, 96) for c in sorted(cuts)] + [F(1)]
    vs = [F(draw(st.integers(lo, hi)), 16) for _ in xs]
    return Polygonal(xs, vs)


class TestEval:
    def test_identity_midpoint(self):
        assert IDENTITY.eval(HALF) == HALF

    def test_tent_linearity(self):
        assert TENT.eval(F(1, 4)) == HALF

    def test_tent_breakpoint(self):
        assert TENT.eval(HALF) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IDENTITY.eval(F(3, 2))

    def test_breakpoints_hit_stored_values(self):
        h = Polygonal.from_pairs([(0, 1), (F(1, 3), 5), (1, F(-2, 7))])
        for t, v in zip(h.xs, h.vs):
            assert h.eval(t) == v


class TestIntegral:
    def test_identity(self):
        assert IDENTITY.integral() == HALF

    def test_tent(self):
        assert TENT.integral() == HALF

    def test_constant(self):
        assert Polygonal.constant(F(5, 7)).integral() == F(5, 7)

    def test_integral_on_parts(self):
        rng = random.Random(5)
        for _ in range(25):
            h = random_poly(rng)
            a, b = sorted(F(rng.randint(0, 96), 96) for _ in range(2))
            mid = (a + b) / 2
            assert h.integral_on(a, mid) + h.integral_on(mid, b) == h.integral_on(a, b)
        assert h.integral_on(0, 1) == h.integral()


class TestLattice:
    def test_abs_of_shifted_identity(self):
        assert abs(IDENTITY - Polygonal.constant(HALF)).eval(0) == HALF

    def test_min_with_constant_integral(self):
        # Ramp clipped at 1/2: area 1/8 below the crossing plus 1/4 after.
        assert IDENTITY.min_with(Polygonal.constant(HALF)).integral() == F(3, 8)

    def test_add_tents(self):
        assert (TENT + TENT).eval(HALF) == 2

    @given(polys(), polys(), st.sampled_from(["add", "sub", "min", "max", "abs"]),
           st.integers(0, 96))
    @settings(max_examples=150)
    def test_eval_agreement(self, h1, h2, op, num):
        x = F(num, 96)
        if op == "add":
            assert (h1 + h2).eval(x) == h1.eval(x) + h2.eval(x)
        elif op == "sub":
            assert (h1 - h2).eval(x) == h1.eval(x) - h2.eval(x)
        elif op == "min":
            assert h1.min_with(h2).eval(x) == min(h1.eval(x), h2.eval(x))
        elif op == "max":
            assert h1.max_with(h2).eval(x) == max(h1.eval(x), h2.eval(x))
        else:
            assert abs(h1).eval(x) == abs(h1.eval(x))

    @given(polys(), polys())
    @settings(max_examples=100)
    def test_linearity_exact(self, h1, h2):
        a, b = F(3, 5), F(-7, 4)
        assert (a * h1 + b * h2).integral() == a * h1.integral() + b * h2.integral()

    @given(polys())
    @settings(max_examples=100)
    def test_abs_integral_dominates(self, h):
        assert abs(h.integral()) <= abs(h).integral()

    def test_scale_negate(self):
        h = TENT * F(-2, 3)
        assert h.eval(HALF) == F(-2, 3)
        assert (-h).eval(HALF) == F(2, 3)


class TestCanonicalForm:
    def test_collinear_nodes_dropped(self):
        a = Polygonal([0, HALF, 1], [0, HALF, 1])
        assert a == IDENTITY
        assert len(a.xs) == 2

    def test_operator_results_compare_as_functions(self):
        assert TENT + TENT == TENT * 2
        assert IDENTITY - IDENTITY == Polygonal.constant(0)


class TestSublevel:
    def test_identity_half(self):
        u = sublevel(IDENTITY, HALF)
        assert u.ivs == ((F(0), HALF),)
        assert u.length == HALF

    def test_constant_below_threshold(self):
        u = sublevel(Polygonal.constant(1), 2)
        assert u.ivs == ((F(0), F(1)),)

    def test_tent_half(self):
        u = sublevel(TENT, HALF)
        assert u.ivs == ((F(0), F(1, 4)), (F(3, 4), F(1)))
        assert u.length == HALF

    def test_touch_point_excluded(self):
        # Dips to exactly theta at the midpoint: strictness splits the set.
        h = Polygonal.from_pairs([(0, 0), (HALF, HALF), (1, 0)])
        u = sublevel(h, HALF)
        assert u.ivs == ((F(0), HALF), (HALF, F(1)))
        assert not u.contains(HALF)

    @given(polys(lo=0, hi=32), st.fractions(min_value="1/32", max_value=3,
                                            max_denominator=64))
    @settings(max_examples=100)
    def test_chebyshev_bound(self, h, theta):
        u = sublevel(h, theta)
        assert u.length >= 1 - h.integral() / theta
        mid_ok = all(h.eval((a + b) / 2) < theta for a, b in u.ivs)
        assert mid_ok


class TestIndicator:
    def test_whole_interval_integral(self):
        ind = indicator_approx((0, 1), 4)
        assert ind.integral() == 1 - pow2(-6)
        assert ind.integral() >= 1 - pow2(-3)

    def test_integrals_converge_to_length(self):
        vals = [indicator_approx((HALF, 1), j).integral() for j in range(2, 12)]
        assert all(abs(v - HALF) <= pow2(-(j + 3)) for j, v in zip(range(2, 12), vals))

    def test_successive_l1_difference(self):
        a = indicator_approx((HALF, 1), 5)
        b = indicator_approx((HALF, 1), 6)
        gap = l1_distance(a, b)
        # Ramp geometry: half the coarse ramp width on each side.
        assert gap == HALF * pow2(-8)
        assert gap < pow2(-5)

    def test_values_in_unit_range(self):
        ind = indicator_approx(DyadicInterval(1, 2), 3)
        assert ind.min_value() == 0 and ind.max_value() == 1

    def test_union_indicator_additive(self):
        u = IntervalUnion(((F(1, 8), F(1, 4)), (HALF, F(3, 4))))
        ind = union_indicator(u, 4)
        parts = indicator_approx((F(1, 8), F(1, 4)), 4) + indicator_approx((HALF, F(3, 4)), 4)
        assert ind == parts


class TestL1Helpers:
    def test_l1_matches_generic_route(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b = random_poly(rng), random_poly(rng)
            assert l1_distance(a, b) == abs(a - b).integral()

    def test_step_profile_closed_forms(self):
        coeffs = [F(k, 5) for k in range(8)]
        s = step_function(coeffs, 3, 4)
        assert isinstance(s, StepPolygonal)
        dense = Polygonal(s.xs, s.vs)
        assert s.integral() == dense.integral()
        for num in range(0, 25):
            x = F(num, 24)
            assert s.eval(x) == dense.eval(x)

    def test_l1_upper_dominates_exact(self):
        a = step_function([F(k, 9) for k in range(8)], 3, 5)
        b = step_function([F(k, 17) for k in range(16)], 4, 6)
        upper = l1_upper(a, b)
        assert upper is not None
        assert upper >= l1_distance(a, b)


# Reference Fraction loops for the step-profile closed forms.

def ref_integral(coeffs, m, j):
    return sum(coeffs, F(0)) * (pow2(-m) - pow2(-(m + j + 2)))


def ref_abs_mass(coeffs):
    return sum((abs(c) for c in coeffs), F(0))


def ref_plateau_l1(ca, ma, cb, mb):
    if ma > mb:
        ca, ma, cb, mb = cb, mb, ca, ma
    shift = mb - ma
    total = F(0)
    for l, c in enumerate(cb):
        total += abs(ca[l >> shift] - c)
    return total * pow2(-mb)


@st.composite
def step_coeffs(draw, max_level=4):
    """A level and one coefficient per cell: mixed denominators, both signs."""
    m = draw(st.integers(0, max_level))
    coeffs = draw(st.lists(st.fractions(min_value=-4, max_value=4,
                                        max_denominator=12),
                           min_size=1 << m, max_size=1 << m))
    return coeffs, m


class TestIntegerPlateaus:
    @given(step_coeffs(), st.integers(0, 6))
    @settings(max_examples=150)
    def test_sums_match_fraction_loops(self, cm, j):
        coeffs, m = cm
        s = step_function(coeffs, m, j)
        assert list(s.coeffs) == coeffs
        assert s.integral() == ref_integral(coeffs, m, j)
        assert F(s.coeffs.abs_total, s.coeffs.den) == ref_abs_mass(coeffs)
        assert s.ramp_slack() == ref_abs_mass(coeffs) * pow2(-(m + j + 2))
        dense = Polygonal(s.xs, s.vs)
        assert s.integral() == dense.integral()
        assert s.lipschitz() == dense.lipschitz()
        assert (s.min_value(), s.max_value()) == (dense.min_value(), dense.max_value())

    @given(st.integers(0, 4).flatmap(lambda m: st.tuples(
        st.lists(st.integers(-2, 2), min_size=1 << m, max_size=1 << m), st.just(m))),
        st.integers(0, 3))
    @example(([1, -1], 1), 0)
    @example(([2, -1, 1, -2], 2), 1)
    @settings(max_examples=150)
    def test_step_nodes_are_canonical(self, cm, j):
        # Neighbouring plateaus of opposite sign can share one ramp slope,
        # and then their common node is not a kink.
        coeffs, m = cm
        s = step_function(coeffs, m, j)
        dense = Polygonal(s.xs, s.vs)
        assert (s._x, s._xd, s._v, s._vd) == (dense._x, dense._xd, dense._v, dense._vd)
        # Both are linear between neighbouring ramp ends, so this is equality.
        bits = m + j + 2
        assert all(dense.eval(F(k, 1 << bits)) == s.eval(F(k, 1 << bits))
                   for k in range((1 << bits) + 1))

    @given(step_coeffs(), step_coeffs(), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=150)
    def test_plateau_l1_matches_fraction_loop(self, a, b, ja, jb):
        (ca, ma), (cb, mb) = a, b
        sa, sb = step_function(ca, ma, ja), step_function(cb, mb, jb)
        expected = ref_plateau_l1(ca, ma, cb, mb)
        assert step_plateau_l1(sa, sb) == expected
        assert step_plateau_l1(sb, sa) == expected

    @given(step_coeffs(max_level=3), step_coeffs(max_level=3),
           st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=100)
    def test_l1_upper_dominates_exact(self, a, b, ja, jb):
        (ca, ma), (cb, mb) = a, b
        sa, sb = step_function(ca, ma, ja), step_function(cb, mb, jb)
        assert l1_upper(sa, sb) >= l1_distance(sa, sb)

    def test_shared_plateaus(self):
        shared = Plateaus([F(1, 3), F(-1, 2), F(0), F(5, 6)])
        assert (shared.nums, shared.den) == ((2, -3, 0, 5), 6)
        a, b = step_function(shared, 2, 1), step_function(shared, 2, 4)
        assert a.coeffs is b.coeffs
        assert step_plateau_l1(a, b) == 0
        assert l1_upper(a, b) == a.ramp_slack() + b.ramp_slack()
        assert l1_upper(a, b) >= l1_distance(a, b)


class TestExactPoints:
    @given(polys(), st.integers(0, 96))
    @settings(max_examples=150)
    def test_eval_matches_two_point_formula(self, h, num):
        x = F(num, 96)
        i = max(i for i, t in enumerate(h.xs) if t <= x)
        if i == len(h.xs) - 1:
            expected = h.vs[-1]
        else:
            (x0, x1), (v0, v1) = h.xs[i:i + 2], h.vs[i:i + 2]
            expected = v0 + (v1 - v0) * (x - x0) / (x1 - x0)
        assert h.eval(x) == expected

    @given(st.fractions(min_value=-2, max_value=3, max_denominator=48))
    @settings(max_examples=100)
    def test_eval_creal_at_rational_point(self, q):
        steep = Polygonal.from_pairs([(0, 0), (F(1, 8), 3), (F(2, 3), F(-5, 2)), (1, 1)])
        assert steep.lipschitz() > 1
        for h in (TENT, steep):
            exact = h.eval_creal(CReal.from_rational(q))
            generic = h.eval_creal(CReal(lambda p: q))
            assert exact.rational == h.eval(clamp01(q))
            for p in (0, 3, 12, 40):
                assert exact.approx(p) == generic.approx(p) == h.eval(clamp01(q))


class TestIntervalUnion:
    def test_lengths_and_ops(self):
        u = IntervalUnion(((F(0), F(1, 4)), (HALF, F(7, 8))))
        assert u.length == F(5, 8)
        v = u.intersect_interval(F(1, 8), F(3, 4))
        assert v.ivs == ((F(1, 8), F(1, 4)), (HALF, F(3, 4)))
        c = u.complement()
        assert c.length == 1 - u.length
        assert u.intersect(c).is_empty()

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            IntervalUnion(((F(0), HALF), (F(1, 4), F(3, 4))))

    def test_contains_is_strict(self):
        u = IntervalUnion(((F(1, 4), HALF),))
        assert u.contains(F(3, 8))
        assert not u.contains(F(1, 4))


class TestSerialization:
    def test_round_trip(self):
        h = Polygonal.from_pairs([(0, F(1, 3)), (F(2, 7), F(-5, 4)), (1, 0)])
        assert Polygonal.from_json(h.to_json()) == h

    def test_wire_format_is_rational_strings(self):
        pairs = TENT.to_pairs()
        assert pairs == [["0/1", "0/1"], ["1/2", "1/1"], ["1/1", "0/1"]]


# Reference Fraction loops for the integer node form: the node-by-node
# rational algorithms that the integer kernels replace.

def ref_eval(h, x):
    xs, vs = h.xs, h.vs
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            return vs[i] + (vs[i + 1] - vs[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])
    raise AssertionError(x)


def ref_integral_on(h, lo, hi):
    pts = [lo] + [t for t in h.xs if lo < t < hi] + [hi]
    return sum(((b - a) * (ref_eval(h, a) + ref_eval(h, b)) / 2
                for a, b in zip(pts, pts[1:])), F(0))


def ref_canonical(xs, vs):
    kx, kv = [xs[0]], [vs[0]]
    for i in range(1, len(xs) - 1):
        if (vs[i] - kv[-1]) * (xs[i + 1] - kx[-1]) != (vs[i + 1] - kv[-1]) * (xs[i] - kx[-1]):
            kx.append(xs[i])
            kv.append(vs[i])
    return tuple(kx + [xs[-1]]), tuple(kv + [vs[-1]])


def ref_grid(a, b, crossings=False):
    """Merged breakpoints, plus the points where a - b changes sign."""
    grid = sorted(set(a.xs) | set(b.xs))
    if crossings:
        for x0, x1 in zip(grid[:], grid[1:]):
            d0 = ref_eval(a, x0) - ref_eval(b, x0)
            d1 = ref_eval(a, x1) - ref_eval(b, x1)
            if d0 * d1 < 0:
                grid.append(x0 + (x1 - x0) * d0 / (d0 - d1))
        grid.sort()
    return grid


def ref_apply(op, a, b, crossings=False):
    grid = ref_grid(a, b, crossings)
    return ref_canonical(grid, [op(ref_eval(a, t), ref_eval(b, t)) for t in grid])


def ref_l1(a, b):
    grid = ref_grid(a, b, crossings=True)
    return sum(((x1 - x0) * abs(ref_eval(a, x0) - ref_eval(b, x0)
                                + ref_eval(a, x1) - ref_eval(b, x1)) / 2
                for x0, x1 in zip(grid, grid[1:])), F(0))


def ref_sublevel(h, theta):
    xs, vs = h.xs, h.vs
    raw = []
    for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]):
        if v0 < theta and v1 < theta:
            raw.append((x0, x1))
        elif v0 < theta <= v1 or v1 < theta <= v0:
            r = x0 + (x1 - x0) * (theta - v0) / (v1 - v0)
            raw.append((x0, r) if v0 < theta else (r, x1))
    merged = []
    for a, b in raw:
        if merged and merged[-1][1] == a and ref_eval(h, a) < theta:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return tuple(merged)


def ref_step_nodes(coeffs, m, j):
    cell = pow2(-m)
    w = cell * pow2(-(j + 2))
    xs, vs = [F(0)], [F(0)]
    for l, c in enumerate(coeffs):
        if c == 0:
            continue
        a, b = l * cell, (l + 1) * cell
        if a != xs[-1]:
            xs.append(a)
            vs.append(F(0))
        xs += [a + w, b - w, b]
        vs += [c, c, F(0)]
    if xs[-1] != 1:
        xs.append(F(1))
        vs.append(F(0))
    return tuple(xs), tuple(vs)


@st.composite
def mixed_polys(draw):
    """Non-dyadic and mixed denominators, values of both signs."""
    cuts = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=30),
                         min_size=1, max_size=6, unique=True))
    xs = sorted({F(0), F(1), *cuts})
    vs = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=14),
                       min_size=len(xs), max_size=len(xs)))
    return Polygonal(xs, vs)


def sawtooth(teeth, value):
    return Polygonal([F(i, teeth) for i in range(teeth + 1)],
                     [value(i) for i in range(teeth + 1)])


points = st.fractions(min_value=0, max_value=1, max_denominator=60)


class TestIntegerNodes:
    @given(mixed_polys(), points, points)
    @settings(max_examples=150)
    def test_queries_match_fraction_loops(self, h, p, q):
        lo, hi = min(p, q), max(p, q)
        assert h.eval(p) == ref_eval(h, p)
        assert h.integral() == ref_integral_on(h, F(0), F(1))
        assert h.integral_on(lo, hi) == ref_integral_on(h, lo, hi)
        assert (h.xs, h.vs) == ref_canonical(h.xs, h.vs)

    @given(mixed_polys(), mixed_polys(), st.fractions(min_value=-3, max_value=3,
                                                      max_denominator=10))
    @settings(max_examples=150)
    def test_algebra_matches_fraction_loops(self, a, b, c):
        got = {"+": a + b, "-": a - b, "min": a.min_with(b), "max": a.max_with(b)}
        assert (got["+"].xs, got["+"].vs) == ref_apply(lambda s, t: s + t, a, b)
        assert (got["-"].xs, got["-"].vs) == ref_apply(lambda s, t: s - t, a, b)
        assert (got["min"].xs, got["min"].vs) == ref_apply(min, a, b, crossings=True)
        assert (got["max"].xs, got["max"].vs) == ref_apply(max, a, b, crossings=True)
        zero = Polygonal.constant(0)
        assert (abs(a).xs, abs(a).vs) == ref_apply(lambda s, t: abs(s), a, zero,
                                                   crossings=True)
        assert ((a * c).xs, (a * c).vs) == ref_canonical(a.xs, [c * v for v in a.vs])
        assert l1_distance(a, b) == ref_l1(a, b)
        assert got["min"] + got["max"] == a + b
        assert (abs(a) - a).min_value() >= 0

    @given(mixed_polys(), st.fractions(min_value="1/20", max_value=4,
                                       max_denominator=20))
    @settings(max_examples=150)
    def test_sublevel_matches_fraction_loop(self, h, theta):
        # Node values as thresholds: h touches theta at a breakpoint.
        for t in [theta] + [v for v in h.vs if v > 0]:
            u = sublevel(h, t)
            assert u.ivs == ref_sublevel(h, t)
            for a, b in u.ivs:
                assert h.eval((a + b) / 2) < t

    @given(mixed_polys(), points)
    @settings(max_examples=100)
    def test_equality_is_equality_of_functions(self, h, t):
        # Insert a node on a segment: same function, other node list.
        xs = sorted(set(h.xs) | {t})
        same = Polygonal(xs, [ref_eval(h, x) for x in xs])
        assert same == h and hash(same) == hash(h)
        assert (same.xs, same.vs) == (h.xs, h.vs)
        assert h + Polygonal.constant(F(1, 7)) != h

    def test_sawtooth_crossings_at_distinct_denominators(self):
        # Tooth i of g runs between 1/(i+2) and 1 - 1/(i+3): one crossing
        # with f per tooth, each at its own denominator.
        f = sawtooth(64, lambda i: i % 2)
        g = sawtooth(64, lambda i: 1 - F(1, i + 2) if i % 2 else F(1, i + 2))
        lo, hi = f.min_with(g), f.max_with(g)
        crossings = set(lo.xs) - set(f.xs) - set(g.xs)
        assert len({t.denominator for t in crossings}) == len(crossings) >= 64
        assert (lo.xs, lo.vs) == ref_apply(min, f, g, crossings=True)
        assert (hi.xs, hi.vs) == ref_apply(max, f, g, crossings=True)
        assert lo + hi == f + g
        assert l1_distance(f, g) == ref_l1(f, g) == (hi - lo).integral()
        assert abs(f - g) == hi - lo

    @given(step_coeffs(), st.integers(0, 6))
    @settings(max_examples=100)
    def test_step_nodes_match_fraction_loop(self, cm, j):
        coeffs, m = cm
        s = step_function(coeffs, m, j)
        assert (s.xs, s.vs) == ref_canonical(*ref_step_nodes(coeffs, m, j))
        # Thirds of a ramp width: points on ramps, plateaus and cell edges.
        den = 3 << (m + j + 2)
        for num in random.Random(den).sample(range(den + 1), min(den + 1, 60)):
            assert s.eval(F(num, den)) == ref_eval(s, F(num, den))


weights = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5,
                                                max_denominator=12))
terms = st.one_of(st.just(Polygonal.constant(0)), mixed_polys())


class TestLinearSum:
    @given(st.lists(st.tuples(weights, terms), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_equals_pairwise_fold(self, pairs):
        # One pair, zero weights and zero terms are among the draws.
        fold = Polygonal.constant(0)
        for c, h in pairs:
            fold = fold + h * c
        assert linear_sum(pairs) == fold
        assert linear_sum(iter(pairs)) == fold

    def test_empty_single_and_cancelling_sums(self):
        h = Polygonal.tent(F(1, 3), F(2, 7), F(1, 5))
        assert linear_sum([]) == Polygonal.constant(0)
        assert linear_sum([(F(-2, 9), h)]) == h * F(-2, 9)
        assert linear_sum([(F(1, 3), h), (F(-1, 3), h)]) == Polygonal.constant(0)
        assert linear_sum([(2, h), (1, Polygonal.identity())]) == h * 2 + Polygonal.identity()
