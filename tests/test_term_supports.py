"""Term supports: the bisection's liveness test without building a term.

``RegularSeq.vanishes_on(n, lo, hi)`` answers from the sequence's
``support(n)`` hook when it has one, so ``_Bisection`` never builds a term
that is dead on the interval it joins.  The hooks are held here to the
built terms' exact ``Polygonal.vanishes_on`` (every hook below is exact, so
the two answers must be equal; soundness is the half that says "dead"), a
walk with hooks is held to the same walk without them, and the realization
of a three-row intersection is held to a work bound.

A term the hook shows dead is not regularity-checked at runtime.  For
intersections of avoidance rows that check follows from the rows' own
regularity, which ``test_avoidance_terms_are_regular`` carries.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from almostfull import (Polygonal, RegularSeq, geometric_decay, intersect_countable,
                        point_avoiding_seq, point_in_pps, pow2)
from almostfull.bridge import _built_on_first_use
from test_polygonal import mixed_polys
from test_regular_kernels import avoided, interval_on_nodes, realized_walk

F = Fraction
ZERO = F(0)


def regular_terms(polys) -> list:
    """Nonnegative terms with runs of zeros, scaled to ``integral < 2**-n``."""
    out = []
    for n, h in enumerate(polys):
        h = h.max_with(Polygonal.constant(0))
        total = h.integral()
        out.append(h * (pow2(-(n + 1)) / total) if total else h)
    return out


def cycled_rows(rows):
    """Callable rows: row n avoids ``rows[n % len(rows)]``."""
    return intersect_countable(lambda n: point_avoiding_seq(rows[n % len(rows)]))


def supported(points):
    """Sequences from every constructor that passes a support hook on."""
    return st.one_of(
        points.map(point_avoiding_seq),
        st.tuples(points, st.integers(0, 6)).map(
            lambda a: point_avoiding_seq(a[0]).shifted(a[1])),
        points.map(lambda p: _built_on_first_use(lambda: point_avoiding_seq(p), "built")),
        st.just(RegularSeq.zero()),
        st.lists(mixed_polys(), min_size=1, max_size=4).map(
            lambda polys: RegularSeq.from_terms(regular_terms(polys))),
        points.map(lambda p: geometric_decay(point_avoiding_seq(p))[0]),
        st.lists(points, min_size=1, max_size=3).map(
            lambda rows: intersect_countable([point_avoiding_seq(r) for r in rows])),
        st.lists(points, min_size=1, max_size=3).map(cycled_rows),
    )


class TestSoundness:
    @given(supported(avoided), st.integers(0, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_hook_equals_the_built_term_test(self, seq, k, data):
        assert seq.support(k) is not None
        # Drawn before the hook is asked; the hook never reads the term.
        lo, hi = data.draw(interval_on_nodes(seq.term(k)))
        assert seq.vanishes_on(k, lo, hi) == seq.term(k).vanishes_on(lo, hi)

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=1000),
                    min_size=1, max_size=8), st.integers(0, 64))
    @settings(max_examples=150)
    def test_avoidance_terms_are_regular(self, points, k):
        h = point_avoiding_seq(points).term(k)
        assert h.is_nonneg()
        assert h.integral() < pow2(-k)


class TestHookPlumbing:
    def test_callable_rows_stop_at_the_first_row_without_a_hook(self):
        called = []
        hookless = RegularSeq(lambda n: Polygonal.constant(0))

        def row(n):
            called.append(n)
            return hookless if n == 1 else point_avoiding_seq([F(1, 3)])

        seq = intersect_countable(row)
        assert seq.support(5) is None
        assert called == [0, 1]
        # The fallback builds term 5, which reads rows 0 to 5 and no further.
        assert not seq.vanishes_on(5, ZERO, F(1))
        assert called == list(range(6))

    def test_a_finite_row_without_a_hook_leaves_no_hook(self):
        hookless = RegularSeq(lambda n: Polygonal.constant(0))
        seq = intersect_countable([point_avoiding_seq([F(1, 3)]), hookless])
        assert seq.support(0) is not None
        assert all(seq.support(k) is None for k in range(1, 6))

    def test_shifted_keeps_avoids(self):
        seq = point_avoiding_seq([F(1, 4), F(1, 3)])
        shifted = seq.shifted(3)
        assert shifted.avoids == seq.avoids
        assert shifted.profiled([1, 2, 3], 4) == [False, True, True]
        assert shifted.support(2) == seq.support(5)


class TestWalks:
    # Walks of callable rows merge one row more per term: two points a row.
    @given(supported(avoided.filter(lambda p: len(p) <= 2)))
    @settings(max_examples=12, deadline=None)
    def test_chain_matches_the_walk_without_hooks(self, seq):
        walk, bare = realized_walk(seq), realized_walk(RegularSeq(seq.term))
        walk.refine_to(60)
        bare.refine_to(60)
        assert (walk.eps, walk.chain) == (bare.eps, bare.chain)

    def test_realization_builds_only_live_terms(self, monkeypatch):
        built = Counter()
        init = RegularSeq.__init__

        def counting(self, gen, *args, **kwargs):
            def counted(n):
                built[kwargs.get("name") or (args[0] if args else "")] += 1
                return gen(n)

            init(self, counted, *args, **kwargs)

        monkeypatch.setattr(RegularSeq, "__init__", counting)
        rows = [[F(5, 127), F(90, 127)], [F(33, 127), F(34, 127)],
                [F(1, 127), F(126, 127)]]
        for precision in (200, 400):
            built.clear()
            seq = intersect_countable([point_avoiding_seq(r) for r in rows])
            point_in_pps(seq).x.approx(precision)
            # Without hooks: 301 terms at 200 and 597 at 400.
            assert built["intersection"] <= 24, (precision, built)

