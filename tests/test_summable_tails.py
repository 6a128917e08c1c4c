"""Certified tails: the decay chain's tail every Summable carries, declared
leaf tails, tails composed by linear Summable algebra, the term indices
integrals read from them, and the fixed indices every derived term keeps."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from almostfull import (AEFunction, CertificationError, IntervalUnion, Polygonal,
                        Summable, ceil_log2, char_of_interval_union, pow2,
                        summable_min)
from almostfull import catalog, cli
from almostfull.catalog import _square_summable, square_offset_summable
from almostfull.exact import Memo
from almostfull.polygonal import l1_distance

F = Fraction
HALF = F(1, 2)
ZERO_POLY = Polygonal.constant(0)

# Shared leaves, so terms built for one example serve the next.
LEAVES = {
    "sq": _square_summable(),
    "off": square_offset_summable(),
    "tent": Summable.from_polygonal(Polygonal.tent(HALF), name="tent"),
    "dip": Summable.from_polygonal(
        Polygonal.from_pairs([(0, F(1, 3)), (F(2, 5), F(-3, 4)), (1, F(1, 7))]),
        name="dip"),
}
BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "min": lambda a, b: a.min_with(b),
    "max": lambda a, b: a.max_with(b),
}
SCALES = (F(-2), F(-1, 2), F(1, 3), F(3, 2), F(2))


def build(e) -> Summable:
    kind = e[0]
    if kind == "leaf":
        return LEAVES[e[1]]
    if kind == "scale":
        return build(e[2]).scale(e[1])
    if kind == "abs":
        return build(e[1]).abs()
    if kind == "clip":
        return build(e[1]).clip_nonneg()
    return BINARY[kind](build(e[1]), build(e[2]))


def parent_term(e, n: int) -> Polygonal:
    """Term n of an expression as fixed offsets read it: a binary operation
    reads both operands at n + 2 and ``scale(c)`` at n + max(0, ceil_log2|c|)."""
    kind = e[0]
    if kind == "leaf":
        return LEAVES[e[1]].term(n)
    if kind == "scale":
        return parent_term(e[2], n + max(0, ceil_log2(abs(e[1])))) * e[1]
    if kind == "abs":
        return abs(parent_term(e[1], n))
    if kind == "clip":
        return parent_term(e[1], n).max_with(ZERO_POLY)
    return BINARY[kind](parent_term(e[1], n + 2), parent_term(e[2], n + 2))


def deepest(e, n: int) -> int:
    """The largest leaf index ``parent_term(e, n)`` reads."""
    kind = e[0]
    if kind == "leaf":
        return n
    if kind == "scale":
        return deepest(e[2], n + max(0, ceil_log2(abs(e[1]))))
    if kind in ("abs", "clip"):
        return deepest(e[1], n)
    return max(deepest(e[1], n + 2), deepest(e[2], n + 2))


def parts(e):
    """Every subexpression of e, e included."""
    yield e
    for sub in e[1:]:
        if isinstance(sub, tuple):
            yield from parts(sub)


leaves = st.sampled_from(sorted(LEAVES)).map(lambda name: ("leaf", name))
expressions = st.recursive(leaves, lambda inner: st.one_of(
    st.tuples(st.sampled_from(sorted(BINARY)), inner, inner),
    st.tuples(st.just("scale"), st.sampled_from(SCALES), inner),
    st.tuples(st.sampled_from(("abs", "clip")), inner)), max_leaves=4)


class TestDerivedTails:
    @given(expressions, st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_integral_within_bound_of_fixed_offset_term(self, e, p):
        assume(deepest(e, p + 8) <= 15)
        f = build(e)
        n, tail = f.integral_index(p)
        assert tail <= pow2(-(p + 1)) and n <= p + 2 and tail == f.tail(n)
        # Term p + 8 under fixed offsets is within 2**-(p+7) of the function.
        reference = parent_term(e, p + 8).integral()
        assert abs(f.integral(p) - reference) <= pow2(-p) + pow2(-(p + 6))

    @given(expressions)
    @settings(max_examples=50, deadline=None)
    def test_tail_bounds_distance_to_deeper_terms(self, e):
        for sub in parts(e):
            f = build(sub)
            f.check_prefix(5)   # every gap below 2**-n and within the tail's drop
            for n in range(4):
                m = n + 8
                assert l1_distance(f.term(n), f.term(m)) - f.tail(m) <= f.tail(n)

    @given(expressions)
    @settings(max_examples=50, deadline=None)
    def test_tail_within_the_chain_tail(self, e):
        for sub in parts(e):
            f = build(sub)
            assert all(f.tail(n) <= pow2(1 - n) for n in range(12))

    def test_composed_tail_telescopes_within_budget(self):
        sq = _square_summable()
        f = (sq + sq.scale(3)) - sq.scale(2)
        f.check_prefix(8)
        assert all(f.tail(n) <= pow2(-(n + 2)) for n in range(9))

    def test_lattice_results_carry_the_chain_tail(self):
        sq, tent = _square_summable(), LEAVES["tent"]
        for f in (sq.min_with(tent), sq.max_with(tent), sq.abs(), sq.clip_nonneg(),
                  summable_min([sq, tent])):
            assert [f.tail(n) for n in range(8)] == [pow2(1 - n) for n in range(8)]
        # A sum reads its operands two terms deeper.
        f = sq.abs() + tent
        assert [f.tail(n) for n in range(8)] == [pow2(-1 - n) for n in range(8)]


class TestDeclaredTail:
    def test_square_gaps_equal_the_drops(self):
        for sq in (_square_summable(), square_offset_summable()):
            sq.check_prefix(10)
            for n in range(10):
                assert l1_distance(sq.term(n + 1), sq.term(n)) == sq.tail(n) - sq.tail(n + 1)
                assert sq.term(n).integral() - F(1, 3) == sq.tail(n)

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40),
                    min_size=2, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_indicator_gaps_equal_the_drops(self, ends):
        ends = sorted(ends)
        union = IntervalUnion(list(zip(ends[::2], ends[1::2])))
        chi = char_of_interval_union(union).characteristic
        chi.check_prefix(8)
        for n in range(8):
            assert l1_distance(chi.term(n + 1), chi.term(n)) == chi.tail(n) - chi.tail(n + 1)
            assert union.length - chi.term(n).integral() == chi.tail(n)

    def test_step_gaps_equal_the_drops(self):
        step = catalog.get_entry("ae-step").summable
        step.check_prefix(10)
        for n in range(10):
            assert l1_distance(step.term(n + 1), step.term(n)) == step.tail(n) - step.tail(n + 1)
            assert HALF - step.term(n).integral() == step.tail(n) == pow2(-(n + 3))

    @pytest.mark.parametrize("name", ["ae-step", "char-upper-half"])
    def test_leaf_reads_two_terms_below_the_chain(self, name):
        assert catalog.get_entry(name).summable.integral_index(12) == (10, F(1, 8192))

    def test_tail_too_small_is_named(self):
        sq = _square_summable()
        # Honest up to index 3, then claims term 4 is exact.
        liar = Summable(sq.base, sq.term, name="liar",
                        tail=lambda n: F(1, 6 * 4 ** n) if n < 4 else F(0))
        with pytest.raises(CertificationError) as err:
            liar.check_prefix(6)
        assert err.value.index == 4
        assert "index 4" in str(err.value) and "liar" in str(err.value)

    def test_negative_tail_is_named(self):
        sq = _square_summable()
        # Every drop is right, but the tail falls below 0 after index 2.
        shifted = Summable(sq.base, sq.term, name="shifted",
                           tail=lambda n: F(1, 6 * 4 ** n) - F(1, 100))
        with pytest.raises(CertificationError) as err:
            shifted.check_prefix(6)
        assert err.value.index == 2
        assert "declared tail -71/9600 at index 3 is negative in shifted" in str(err.value)

    def test_loose_tail_yields_to_the_chain(self):
        h = Polygonal.tent(HALF)
        loose = Summable(AEFunction.from_polygonal(h), lambda n: h, name="loose",
                         tail=lambda n: 1)
        assert loose.integral_index(7) == (9, F(1, 256))

    def test_index_search_ignores_the_budget(self, monkeypatch):
        # The search ends by p + 2, wherever the budget is set.
        monkeypatch.setenv("ALMOSTFULL_BUDGET", "5")
        assert _square_summable().integral_index(20) == (10, F(1, 6291456))


def recorder(tail=None):
    """An x**2 schedule that records the indices asked of it."""
    sq, asked = _square_summable(), []

    def approx(n):
        asked.append(n)
        return sq.term(n)

    return Summable(sq.base, approx, name="rec", tail=tail), asked


class TestFixedOffsets:
    # (expression over an undeclared and a declared recorder, p, the indices
    # integral(p) reads from each: the least n whose tail is within
    # 2**-(p+1), plus 2 per binary operation, ceil_log2|c| per scale and
    # ceil_log2(k) + 1 per k-fold minimum).  The lattice operations carry
    # the chain tail, so an integral of one reads n = p + 2.
    CASES = [
        (lambda u, d: u, 5, [7], []),
        (lambda u, d: u + d, 5, [8], [8]),
        (lambda u, d: d - u.scale(3), 4, [8], [6]),
        (lambda u, d: u.scale(F(1, 3)) + LEAVES["tent"], 4, [5], []),
        (lambda u, d: (u.abs() - d).clip_nonneg(), 2, [6], [6]),
        (lambda u, d: summable_min([LEAVES["tent"], u, d]), 3, [8], [8]),
        (lambda u, d: (u + u).min_with(d), 1, [7], [5]),
        (lambda u, d: u.scale(0) + d.max_with(u), 1, [5], [5]),
    ]

    @pytest.mark.parametrize("expr, p, undeclared, declared", CASES)
    def test_parent_indices(self, expr, p, undeclared, declared):
        u, asked_u = recorder()
        d, asked_d = recorder(tail=lambda n: F(1, 6 * 4 ** n))
        f = expr(u, d)
        f.integral(p)
        assert (asked_u, asked_d) == (undeclared, declared)
        n, tail = f.integral_index(p)
        bound = pow2(-(p + 1))
        assert n <= p + 2 and tail == f.tail(n) <= bound
        assert n == 0 or f.tail(n - 1) > bound   # the least such n

    def test_declared_terms_keep_offsets(self):
        d, asked = recorder(tail=lambda n: F(1, 6 * 4 ** n))
        f = d.scale(3) - d
        f.term(4)
        # 4 + 2 for the difference, then ceil_log2(3) = 2 more for the scale.
        assert sorted(asked) == [6, 8]
        assert f.tail(4) == 3 * F(1, 6 * 4 ** 8) + F(1, 6 * 4 ** 6)


class TestPiecesRead:
    def test_square_p20_under_2_to_12_pieces(self, capsys, monkeypatch):
        entries = Memo(catalog._build_entry)
        monkeypatch.setattr(cli, "get_entry", entries)
        assert cli.main(["integrate", "--function", "square", "--precision", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        n = report["prefix_depths"]["approximation_index"]
        built = entries["square"].summable._terms
        assert list(built) == [n]
        assert len(built[n].xs) - 1 < 2 ** 12
        assert report["error_bounds"]["approximation_tail"] == f"1/{6 * 4 ** n}"

    def test_linear_expression_under_2_to_10_nodes(self):
        sq = _square_summable()
        three = sq.scale(3)
        total = sq + three
        double = sq.scale(2)
        f = total - double
        assert abs(f.integral(12) - F(2, 3)) <= pow2(-12)
        nodes = [len(t.xs) for s in (sq, three, total, double, f)
                 for t in s._terms.values()]
        assert nodes and max(nodes) < 2 ** 10
