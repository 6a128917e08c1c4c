"""Exact substrate: rationals, certified reals, soft comparison, memo tables."""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from almostfull import (BudgetExhausted, CReal, DyadicInterval, Verdict,
                        ceil_log2, from_ratstr, pow2, rat_approx, soft_compare,
                        to_ratstr)
from almostfull.exact import Memo, budget_cap, refine_until_decided

HALF = Fraction(1, 2)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


def sqrt_half_oracle() -> CReal:
    """Interval bisection for sqrt(1/2): an independent reference real."""

    def fn(p: int) -> Fraction:
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(p + 2):
            mid = (lo + hi) / 2
            if mid * mid <= HALF:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    return CReal(fn)


class TestRationals:
    @given(rationals, rationals)
    def test_add_sub_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(rationals)
    def test_ratstr_round_trip(self, q):
        assert from_ratstr(to_ratstr(q)) == q

    def test_ratstr_canonical(self):
        assert to_ratstr(Fraction(2, 4)) == "1/2"
        assert to_ratstr(Fraction(3)) == "3/1"

    @given(st.fractions(min_value="1/512", max_value=1000, max_denominator=512))
    def test_ceil_log2(self, q):
        t = ceil_log2(q)
        assert pow2(t) >= q
        assert pow2(t - 1) < q


class TestCReal:
    def test_embedded_rational_exact(self):
        x = CReal.from_rational(Fraction(1, 3))
        assert rat_approx(x, 10) == Fraction(1, 3)
        assert rat_approx(CReal.from_rational(0), 25) == 0

    def test_sqrt_half_approx(self):
        x = sqrt_half_oracle()
        q = rat_approx(x, 20)
        assert abs(q * q - HALF) <= pow2(-18)

    def test_consistency_across_precisions(self):
        xs = [sqrt_half_oracle(),
              CReal.from_rational(Fraction(2, 7)) + sqrt_half_oracle(),
              abs(-sqrt_half_oracle()),
              sqrt_half_oracle().scale(Fraction(5, 3))]
        for x in xs:
            for p, q in ((0, 5), (3, 17), (10, 40), (17, 23)):
                assert abs(x.approx(p) - x.approx(q)) <= pow2(-p) + pow2(-q)

    def test_arithmetic_contracts(self):
        a = CReal.from_rational(Fraction(3, 7))
        b = sqrt_half_oracle()
        b20 = b.approx(20)
        for p in (4, 10, 16):
            tol = pow2(-p) + pow2(-18)
            assert abs((a + b).approx(p) - (Fraction(3, 7) + b20)) <= tol
            assert abs((a - b).approx(p) - (Fraction(3, 7) - b20)) <= tol
            assert abs(abs(a - b).approx(p) - abs(Fraction(3, 7) - b20)) <= tol
            assert abs(a.min_with(b).approx(p) - min(Fraction(3, 7), b20)) <= tol
            assert abs(a.max_with(b).approx(p) - max(Fraction(3, 7), b20)) <= tol
            assert abs(b.scale(-3).approx(p) - (-3 * b20)) <= tol

    def test_negative_precision_rejected(self):
        with pytest.raises(ValueError):
            rat_approx(CReal.from_rational(0), -1)

    def test_deep_nesting_within_default_recursion_limit(self):
        # A memo miss costs approx and the real's fn: two frames per level.
        x = CReal(lambda p: Fraction(1, 3))
        for _ in range(400):
            x = -x
        assert x.approx(4) == Fraction(1, 3)


class TestExactReal:
    @given(rationals)
    def test_from_rational_answers_every_precision(self, q):
        x = CReal.from_rational(q)
        assert x.rational == q
        assert all(x.approx(p) == q for p in range(64))
        with pytest.raises(ValueError):
            x.approx(-1)

    def test_generic_reals_carry_no_rational(self):
        assert sqrt_half_oracle().rational is None
        assert (CReal.from_rational(1) + CReal.from_rational(2)).rational is None

    @given(st.fractions(min_value=-1, max_value=2, max_denominator=96))
    @settings(max_examples=100)
    def test_refine_until_decided_as_before(self, q):
        def decider(seen):
            def decide(xt, r):
                seen.append((xt, r))
                if xt + r < HALF:
                    return Fraction(0)
                if xt - r > HALF:
                    return Fraction(1)
                return None
            return decide

        runs = []
        for x in (CReal.from_rational(q), CReal(lambda p: q)):
            seen = []
            try:
                got = refine_until_decided(x, 2, 1, decider(seen), "undecided").approx(0)
            except BudgetExhausted:
                got = None
            runs.append((got, seen))
        assert runs[0] == runs[1]


class TestSoftCompare:
    def test_clear_cases(self):
        zero = CReal.from_rational(0)
        one = CReal.from_rational(1)
        assert soft_compare(zero, one, HALF) is Verdict.LEFT_BELOW
        assert soft_compare(one, zero, HALF) is Verdict.RIGHT_BELOW

    def test_equal_inputs_guarantee_holds(self):
        third = CReal.from_rational(Fraction(1, 3))
        v = soft_compare(third, third, Fraction(1, 10))
        assert v in (Verdict.LEFT_BELOW, Verdict.RIGHT_BELOW)

    @given(rationals, rationals,
           st.fractions(min_value="1/64", max_value=2, max_denominator=64))
    @settings(max_examples=200)
    def test_guarantee_never_violated(self, a, b, eps):
        v = soft_compare(CReal.from_rational(a), CReal.from_rational(b), eps)
        if v is Verdict.LEFT_BELOW:
            assert a < b + eps
        else:
            assert b < a + eps


class TestDyadicInterval:
    def test_geometry(self):
        cell = DyadicInterval(1, 2)
        assert cell.left == Fraction(1, 4)
        assert cell.right == HALF
        assert cell.length == Fraction(1, 4)
        assert cell.midpoint == Fraction(3, 8)
        assert cell.contains(Fraction(3, 8))
        assert not cell.contains(Fraction(1, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicInterval(4, 2)
        with pytest.raises(ValueError):
            DyadicInterval(-1, 2)


class TestMemo:
    def test_concurrent_first_callers_share_one_value(self):
        computed = []

        def compute(key):
            computed.append(key)
            sum(range(20000))   # long enough for the other threads to arrive
            return object()

        memo = Memo(compute)
        start = threading.Barrier(8)
        got = [None] * 8

        def worker(i):
            start.wait(timeout=10)
            got[i] = memo("k")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert computed == ["k"]
        assert all(g is got[0] for g in got)

    def test_failed_compute_stores_nothing_and_retries(self):
        attempts = []

        def compute(key):
            attempts.append(key)
            if len(attempts) == 1:
                raise BudgetExhausted("first attempt fails", needed=1)
            return key * 2

        memo = Memo(compute)
        with pytest.raises(BudgetExhausted):
            memo(3)
        assert 3 not in memo
        assert memo(3) == 6
        assert 3 in memo
        assert attempts == [3, 3]

    def test_entry_may_read_the_previous_entry(self):
        calls = []

        def compute(n):
            calls.append(n)
            return 0 if n == 0 else chain(n - 1) + 1

        chain = Memo(compute)
        assert chain(200) == 200
        assert all(n in chain for n in range(201))
        assert sorted(calls) == list(range(201))

    def test_none_and_false_are_stored_values(self):
        calls = []

        def compute(key):
            calls.append(key)
            return None if key == "gap" else False

        memo = Memo(compute)
        for _ in range(3):
            assert memo("gap") is None
            assert memo("theta") is False
        assert calls == ["gap", "theta"]


class TestBudgetCap:
    """``budget_cap`` is the one reader of ``ALMOSTFULL_BUDGET``; the CLI maps
    its error to exit 2."""

    @pytest.mark.parametrize("raw", ["0", "-3", "abc", "", "1.5"])
    def test_library_and_cli_reject_alike(self, monkeypatch, capsys, raw):
        from almostfull import cli

        monkeypatch.setenv("ALMOSTFULL_BUDGET", raw)
        with pytest.raises(ValueError, match="ALMOSTFULL_BUDGET"):
            budget_cap(64)
        assert cli.main(["integrate", "--function", "tent"]) == 2
        assert "ALMOSTFULL_BUDGET" in capsys.readouterr().err

    def test_positive_integers_override_every_default(self, monkeypatch):
        monkeypatch.delenv("ALMOSTFULL_BUDGET", raising=False)
        assert budget_cap(64) == 64
        for raw, cap in (("1", 1), ("5", 5), (" 7 ", 7)):
            monkeypatch.setenv("ALMOSTFULL_BUDGET", raw)
            assert budget_cap(64) == budget_cap(4096) == cap
