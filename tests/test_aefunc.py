"""Summability, Lebesgue integrals, measurable sets, limit constructions."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from almostfull import (AEFunction, CReal, CertificationError, DomainWitness,
                        DyadicInterval, IntervalUnion, MeasurableSet,
                        Polygonal, RegularSeq,
                        Summable, ae_zero_of_null_integral, certify_l1_gap,
                        char_of_interval_union, countable_set_intersection,
                        full_measure_to_pps, integral_uniqueness_check,
                        limit_of_summables, point_in_positive_set,
                        point_in_pps, positive_point, pow2, rat_approx,
                        summable_min)
from almostfull.catalog import get_entry, square_offset_summable, tents_at_center_seq
from almostfull.errors import BudgetExhausted

F = Fraction
HALF = F(1, 2)


def char_of(a, b, extra=None, name="set"):
    return char_of_interval_union(IntervalUnion(((F(a), F(b)),)),
                                  extra_domain=extra, name=name)


class TestLebesgueIntegral:
    def test_constant_schedule(self):
        s = Summable.from_polygonal(Polygonal.identity(), name="id")
        for p in (0, 5, 12):
            assert s.integral(p) == HALF

    def test_square_closed_form(self):
        sq = get_entry("square").summable
        assert abs(sq.integral(16) - F(1, 3)) <= pow2(-16)

    def test_char_upper_half(self):
        ch = get_entry("char-upper-half").summable
        assert abs(ch.integral(12) - HALF) <= pow2(-12)

    def test_precision_contract(self):
        sq = get_entry("square").summable
        for p, q in ((3, 9), (5, 12), (9, 15)):
            assert abs(sq.integral(p) - sq.integral(q)) <= pow2(-p + 1) + pow2(-q + 1)

    def test_report_schema(self):
        sq = get_entry("square").summable
        report = sq.integral_report(8)
        assert set(report) == {"function", "p", "value", "prefix_used", "tail_bound"}
        # The least n with 4**-n/6 <= 2**-9; the term there is 1/3 + 4**-4/6.
        assert report["prefix_used"] == 4
        assert report["tail_bound"] == "1/1536"
        assert report["value"] == "171/512"
        assert "/" in report["value"] and "/" in report["tail_bound"]

    def test_decay_chain_exact(self):
        for name, depth in (("tent", 20), ("ae-step", 20), ("square", 12),
                            ("char-upper-half", 20)):
            s = get_entry(name).summable
            s.check_prefix(depth)
            for n in range(depth):
                from almostfull.polygonal import l1_distance
                assert l1_distance(s.term(n + 1), s.term(n)) < pow2(-n)


class TestUniqueness:
    def test_same_schedule(self):
        sq = get_entry("square").summable
        assert integral_uniqueness_check(sq, sq, 10)

    def test_two_square_schedules(self):
        assert integral_uniqueness_check(get_entry("square").summable,
                                         square_offset_summable(), 12)

    def test_corrupted_schedule_detected(self):
        sq = get_entry("square").summable
        shifted = Summable(sq.base, lambda n: sq.term(n) + Polygonal.constant(F(1, 4)),
                           name="shifted")
        assert not integral_uniqueness_check(sq, shifted, 10)


class TestPositivePoint:
    def test_constant_one(self):
        w = positive_point(Summable.constant(1), 6)
        assert 0 <= rat_approx(w.x, 8) <= 1

    def test_tent_positive_value(self):
        tent = get_entry("tent").summable
        w = positive_point(tent, 10)
        x = rat_approx(w.x, 20)
        x = min(max(x, F(0)), F(1))
        slack = 2 * pow2(-20)
        assert Polygonal.tent(HALF).eval(x) + slack > 0
        value = tent.eval(w).approx(20)
        assert value > -pow2(-18)

    def test_char_point_lands_inside(self):
        ch = get_entry("char-upper-half").summable
        w = positive_point(ch, 12)
        assert HALF < rat_approx(w.x, 10) < 1

    def test_margin_failure_reported(self):
        zero = Summable.constant(0)
        with pytest.raises(CertificationError):
            positive_point(zero, 6)


class TestSummableAlgebra:
    def test_scale_and_add_integrals(self):
        tent = get_entry("tent").summable
        combo = tent.scale(3) + Summable.constant(F(1, 4))
        assert abs(combo.integral(10) - (3 * HALF + F(1, 4))) <= pow2(-10)

    def test_clip_nonneg(self):
        dip = Summable.from_polygonal(Polygonal.identity() - Polygonal.constant(HALF))
        clipped = dip.clip_nonneg()
        assert clipped.term(5).min_value() >= 0
        assert abs(clipped.integral(10) - F(1, 8)) <= pow2(-10)

    def test_abs_value(self):
        dip = Summable.from_polygonal(Polygonal.identity() - Polygonal.constant(HALF))
        assert abs(dip.abs().integral(10) - F(1, 4)) <= pow2(-10)

    def test_evaluator_transport_through_pair(self):
        a = get_entry("tent").summable
        b = get_entry("ae-step").summable
        combo = a + b
        w = point_in_pps(combo.domain)
        val = combo.eval(w).approx(8)
        x = rat_approx(w.x, 20)
        side = F(0) if x < HALF else F(1)
        expected = Polygonal.tent(HALF).eval(min(max(x, F(0)), F(1))) + side
        assert abs(val - expected) <= pow2(-6)

    def test_chain_violation_raises(self):
        tent = get_entry("tent").summable
        broken = Summable(tent.base,
                          lambda n: tent.term(n) + Polygonal.constant(
                              F(1, 3) if n % 2 else F(0)))
        with pytest.raises(CertificationError) as err:
            broken.check_prefix(6)
        assert err.value.index is not None


class TestExtensionality:
    def test_same_point_two_witnesses(self):
        step = get_entry("ae-step").summable
        x = CReal.from_rational(F(2, 3))
        w1 = DomainWitness(x=x, gamma=F(3))
        w2 = DomainWitness(x=x, gamma=F(50))
        assert step.eval(w1).approx(10) == step.eval(w2).approx(10)


class TestMonotonicity:
    def test_integral_monotone(self):
        rng = random.Random(2)
        tent = get_entry("tent").summable
        for _ in range(10):
            cuts = sorted(rng.sample(range(1, 32), 3))
            xs = [F(0)] + [F(c, 32) for c in cuts] + [F(1)]
            vs = [F(rng.randint(0, 9), 8) for _ in xs]
            bump = Summable.from_polygonal(Polygonal(xs, vs))
            bigger = tent + bump
            assert tent.integral(9) <= bigger.integral(9) + pow2(-7)


class TestLimitOfSummables:
    def test_constant_sequence(self):
        tent = get_entry("tent").summable
        limit = limit_of_summables(lambda n: tent, name="const-seq")
        assert abs(limit.integral(12) - HALF) <= pow2(-10)

    def test_disjoint_tent_series(self):
        def tent_j(j):
            a = 1 - pow2(-j)
            b = 1 - pow2(-(j + 1))
            return Polygonal.tent((a + b) / 2, 1, (b - a) / 2) * pow2(-j)

        terms = [tent_j(j) for j in range(1, 14)]
        exact = sum((t.integral() for t in terms), F(0))

        def partial(n):
            out = terms[0]
            for t in terms[1:n + 1]:
                out = out + t
            return out

        def seq(n):
            return Summable.from_polygonal(partial(min(n, len(terms) - 1)),
                                           name=f"P{n}")

        limit = limit_of_summables(seq, name="tent-series")
        v = limit.integral(10)
        assert abs(v - exact) <= pow2(-10) + pow2(-12)
        for n in range(11):
            gap = abs(v - seq(n).integral(12))
            # Telescoping oracle: the input chain certifies 2**-(n-1).
            assert gap <= pow2(-n + 1) + pow2(-9)

    def test_defective_input_named(self):
        tent = get_entry("tent").summable

        def seq(n):
            if n % 2:
                return tent + Summable.constant(F(1, 2))
            return tent

        limit = limit_of_summables(seq, name="defective")
        with pytest.raises(CertificationError) as err:
            limit.term(4)
        assert err.value.index is not None

    def test_term_forces_decay_chain(self):
        # Term n certifies the input gaps first, then materializes and
        # checks the output chain 0..n-1, then term n itself.
        tent = get_entry("tent").summable
        asked = []

        def seq(n):
            def approx(k):
                asked.append((n, k))
                return tent.term(k)

            return Summable(tent.base, approx, name=f"F{n}")

        limit = limit_of_summables(seq, name="forced-chain")
        limit.term(6)
        diagonal = [(n, k) for n, k in asked if n == k]
        assert diagonal == [(j + 2, j + 2) for j in range(7)]
        assert asked.index(diagonal[0]) == len(asked) - 7
        assert all(k in limit._gaps for k in range(6))

    def test_evaluator_converges_at_witness(self):
        tent = get_entry("tent").summable
        limit = limit_of_summables(lambda n: tent, name="const-eval")
        w = point_in_pps(limit.domain)
        x = rat_approx(w.x, 25)
        expected = Polygonal.tent(HALF).eval(min(max(x, F(0)), F(1)))
        assert abs(limit.eval(w).approx(10) - expected) <= pow2(-8)


class TestNullIntegral:
    @staticmethod
    def _null_tents():
        base = AEFunction(RegularSeq.zero(),
                          lambda w: CReal.from_rational(0), name="null")
        return Summable(base, lambda n: Polygonal.tent(HALF, 1, pow2(-(n + 1))),
                        name="null")

    def test_zero_function_full_set(self):
        zero = Summable.constant(0)
        pps = ae_zero_of_null_integral(zero, 10)
        pps.check_prefix(8)
        w = point_in_pps(pps)
        assert 0 <= rat_approx(w.x, 8) <= 1

    def test_peak_excluded(self):
        pps = ae_zero_of_null_integral(self._null_tents(), 10)
        pps.check_prefix(6)
        w = point_in_pps(pps)
        x = rat_approx(w.x, 25)
        assert abs(x - HALF) > pow2(-22)
        assert self._null_tents().eval(w).approx(20) == 0

    def test_scaled_variant(self):
        scaled = self._null_tents().scale(F(3, 4))
        pps = ae_zero_of_null_integral(scaled, 10)
        pps.check_prefix(6)

    def test_nonnull_rejected(self):
        tent = get_entry("tent").summable
        with pytest.raises(CertificationError):
            ae_zero_of_null_integral(tent, 8)

    def test_negative_mass_rejected(self):
        dip = Summable.from_polygonal(Polygonal.constant(F(-1, 4)))
        with pytest.raises(CertificationError):
            ae_zero_of_null_integral(dip, 8)


class TestMeasure:
    def test_whole_interval(self):
        whole = char_of(0, 1, name="whole")
        for p in (4, 10):
            assert abs(whole.measure(p) - 1) <= pow2(-p)

    def test_dyadic_cell(self):
        cell = DyadicInterval(1, 2)
        ms = char_of_interval_union(IntervalUnion(((cell.left, cell.right),)))
        for p in (5, 12):
            assert abs(ms.measure(p) - F(1, 4)) <= pow2(-p)

    def test_two_cell_additivity(self):
        u = IntervalUnion(((F(1, 8), F(1, 4)), (HALF, F(5, 8))))
        ms = char_of_interval_union(u)
        assert abs(ms.measure(10) - F(1, 4)) <= pow2(-10)

    def test_dichotomy_at_witness(self):
        ms = char_of(HALF, 1)
        w = point_in_positive_set(ms)
        assert ms.dichotomy_check(w)


class TestPointInPositiveSet:
    def test_whole(self):
        w = point_in_positive_set(char_of(0, 1))
        assert 0 <= rat_approx(w.x, 8) <= 1

    def test_upper_half(self):
        w = point_in_positive_set(char_of(HALF, 1))
        assert HALF < rat_approx(w.x, 10) < 1

    def test_narrow_set_with_extra_domain(self):
        step = get_entry("ae-step")
        u = IntervalUnion(((F(1, 4), F(5, 16)),))
        ms = char_of_interval_union(u, extra_domain=step.function.domain)
        w = point_in_positive_set(ms)
        assert ms.characteristic.eval(w).approx(3) >= F(7, 8)

    def test_domain_without_profile_realizes_a_point(self):
        # The interior candidate has no witness here, so positive_point runs.
        ms = char_of(F(1, 4), F(3, 4), extra=RegularSeq(tents_at_center_seq().term))
        w = point_in_positive_set(ms)
        assert w.x.rational is None
        assert F(1, 4) < rat_approx(w.x, 12) < F(3, 4)
        assert abs(ms.characteristic.eval(w).approx(3) - 1) <= F(1, 8)

    def test_fallback_realization(self):
        ms = char_of(F(1, 3), F(2, 3))
        w = positive_point(ms.characteristic, 24)
        assert F(1, 3) < rat_approx(w.x, 12) < F(2, 3)
        assert ms.characteristic.eval(w).approx(3) >= F(7, 8)


class TestFullMeasure:
    def test_whole_interval_near_zero_sequence(self):
        pps = full_measure_to_pps(char_of(0, 1), 12)
        pps.check_prefix(6)
        for n in range(7):
            assert pps.term(n).integral() < pow2(-n)

    def test_composition_lands_inside(self):
        ms = char_of(0, 1)
        pps = full_measure_to_pps(ms, 12)
        w = point_in_pps(pps)
        value = ms.characteristic.eval(
            DomainWitness(x=w.x, gamma=F(64))).approx(3)
        assert abs(value - 1) <= F(1, 8)

    def test_deficient_measure_rejected(self):
        with pytest.raises(CertificationError):
            full_measure_to_pps(char_of(0, HALF), 8)

    def test_complement_of_shrinking_spikes(self):
        # Full-measure set "everything but the midpoint": characteristic is
        # 1 minus a shrinking unit spike; the extracted region avoids 1/2.
        step = get_entry("ae-step")

        def term(n):
            return Polygonal.constant(1) - Polygonal.tent(HALF, 1, pow2(-(n + 2)))

        base = AEFunction(step.function.domain,
                          lambda w: CReal.from_rational(1), name="no-mid")
        ms = MeasurableSet(characteristic=Summable(base, term, name="no-mid"),
                           name="no-mid")
        pps = full_measure_to_pps(ms, 12)
        w = point_in_pps(pps)
        assert abs(rat_approx(w.x, 25) - HALF) > pow2(-22)


class TestCountableIntersection:
    def test_all_full(self):
        full = char_of(0, 1)
        y, lower = countable_set_intersection(
            lambda n: full, lambda n: pow2(-(n + 4)), lambda n: pow2(-(n + 4)),
            name="full-meet")
        assert lower >= 1 - pow2(-3)
        assert abs(y.measure(8) - 1) <= pow2(-4)

    def test_shrinking_complements(self):
        pts = [F(2 * n + 3, 32) for n in range(6)]

        def x_set(n):
            p = pts[n % len(pts)]
            r = F(1, 4 ** (n + 1)) / 2
            return char_of_interval_union(
                IntervalUnion(((F(0), p - r), (p + r, F(1)))), name=f"X{n}")

        y, lower = countable_set_intersection(
            x_set, lambda n: F(1, 4 ** (n + 1)), lambda n: F(1, 3 * 4 ** (n + 1)),
            name="holes")
        assert lower == F(2, 3)
        assert y.measure(10) >= lower - pow2(-8)

    def test_nested_intervals(self):
        def x_set(n):
            return char_of(0, 1 - pow2(-(n + 2)), name=f"N{n}")

        y, lower = countable_set_intersection(
            x_set, lambda n: pow2(-(n + 2)), lambda n: pow2(-(n + 2)),
            name="nested")
        assert abs(y.measure(8) - F(3, 4)) <= pow2(-8) + pow2(-8)

    def test_thinning_walks_each_step_once(self):
        # Step j of the greedy thinning starts where step j - 1 stopped, so a
        # tail is read at most twice by the walk and once by the reported bound.
        asked = []

        def tail(n):
            asked.append(n)
            return pow2(-(n + 1))

        full = char_of(0, 1)
        y, _ = countable_set_intersection(lambda n: full, lambda n: pow2(-(n + 1)), tail)
        y.measure(10)
        assert max(map(asked.count, asked)) <= 3

    def test_thinning_budget(self, monkeypatch):
        monkeypatch.setenv("ALMOSTFULL_BUDGET", "50")
        full = char_of(0, 1)
        with pytest.raises(BudgetExhausted) as err:
            countable_set_intersection(lambda n: full, lambda n: F(1), lambda n: F(1))
        assert err.value.needed == 51


class TestSummableMin:
    def test_min_matches_intersection(self):
        a = char_of(0, F(3, 4), name="a")
        b = char_of(F(1, 4), 1, name="b")
        meet = summable_min([a.characteristic, b.characteristic], name="meet")
        assert abs(meet.integral(10) - HALF) <= pow2(-8)


class TestConcurrency:
    def test_concurrent_term_generation_idempotent(self):
        import threading

        tent = get_entry("tent").summable
        fresh = Summable(tent.base, lambda n: tent.term(n), name="shared")
        results = [None] * 8
        errors = []

        def worker(i):
            try:
                results[i] = [fresh.term(n).integral() for n in range(10)]
            except Exception as exc:  # noqa: BLE001 - surface to the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == results[0] for r in results)


class TestFreedWithoutCollector:
    """Memo tables compute from their owner's fields, not through the owner,
    so sequences and summables are freed as soon as their last reference
    goes, with the cyclic collector switched off."""

    @staticmethod
    def _freed(build, use) -> bool:
        gc.disable()
        try:
            obj = build()
            use(obj)
            ref = weakref.ref(obj)
            del obj
            return ref() is None
        finally:
            gc.enable()

    def test_regular_sequence(self):
        assert self._freed(
            lambda: RegularSeq(lambda n: Polygonal.tent(HALF, pow2(-(n + 1)), HALF),
                               name="tents"),
            lambda seq: seq.term(3))

    def test_summable_from_polygonal(self):
        assert self._freed(
            lambda: Summable.from_polygonal(Polygonal.tent(HALF), name="tent"),
            lambda s: s.integral(4))

    def test_combined_summable(self):
        def build():
            f = Summable.from_polygonal(Polygonal.tent(HALF), name="f")
            g = Summable.constant(F(-1, 4), name="g")
            return (f + g).abs()

        assert self._freed(build, lambda s: s.integral(4))

    def test_limit_of_summables(self):
        tent = get_entry("tent").summable
        assert self._freed(lambda: limit_of_summables(lambda n: tent),
                           lambda s: s.term(3))

    def test_countable_set_intersection(self):
        full = char_of(0, 1)
        gc.collect()
        gc.disable()
        try:
            meet, _ = countable_set_intersection(
                lambda n: full, lambda n: pow2(-(n + 4)), lambda n: pow2(-(n + 4)))
            ref = weakref.ref(meet.characteristic)
            del meet
            assert ref() is None
            # Nothing the call made is left for the collector either.
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCertifyGap:
    def test_certified_depth_returned(self):
        tent = get_entry("tent").summable
        near = Summable(tent.base,
                        lambda n: tent.term(n) + Polygonal.constant(pow2(-12)))
        k = certify_l1_gap(tent, near, pow2(-8))
        assert pow2(-12) + pow2(-k + 2) < pow2(-8)

    def test_identical_objects_fast(self):
        tent = get_entry("tent").summable
        assert certify_l1_gap(tent, tent, pow2(-30)) == 0
