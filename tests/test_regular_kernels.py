"""Integer kernels of the regular layer: golden, reference equivalence, threads.

``tests/golden/realized-points.json`` pins, for eight seeded three-row
intersections of ``point_avoiding_seq`` (points k/127) and for
``tents_at_center_seq()``, the realized point of ``point_in_pps`` to 60 bits
and ``realize_point``'s bound, epsilon, margin and prefix; the exact
``profile_at`` bounds of avoidance sequences at twenty rationals; and one
bridge realization fallback.  All eight walks there converge to 0, so
``tests/golden/realized-points-interior.json`` pins the full chain of two
walks that converge to interior points.  Regenerate both
with ``PYTHONPATH=src python tests/test_regular_kernels.py`` (a change that
moves them must say so in CHANGES.md).

The integer kernels are also held to exact equality with ``Fraction``
reference loops (tents, avoidance terms and profiles, the vanishing test,
and the bisection chain against a walk that integrates every nonzero term;
``integral_on`` is checked against its reference in ``test_polygonal.py``),
and one realized point is approximated from eight threads at once.
"""

import json
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from almostfull import (AEFunction, Bridge, Polygonal, RegularSeq,
                        intersect_countable, point_avoiding_seq, point_in_pps, pow2,
                        realize_point, to_ratstr)
from almostfull.catalog import tents_at_center_seq
from almostfull.regular import _Bisection
from test_polygonal import mixed_polys, ref_eval, ref_integral_on

F = Fraction
ZERO, ONE = F(0), F(1)
GOLDEN = Path(__file__).resolve().parent / "golden" / "realized-points.json"
INTERIOR_GOLDEN = GOLDEN.with_name("realized-points-interior.json")
# Rows of avoided points k/127 whose walks converge to an interior point.
INTERIOR_ROWS = {"to-1/16": [[3, 24], [42, 117], [29, 41]],
                 "to-5/32": [[12, 15], [101, 122], [96, 104]]}
TENT = Polygonal.tent(F(1, 2))


def seeded_rows(seed: int) -> list:
    """Three rows of two avoided points k/127, drawn as the net-ae workload does."""
    rng = random.Random(seed)
    return [sorted(F(k, 127) for k in rng.sample(range(1, 127), 2)) for _ in range(3)]


def realization_report(seq) -> dict:
    w = point_in_pps(seq)
    r = realize_point(Polygonal.constant(2), seq, 0)
    # The walk realize_point settled on, replayed: its prefix length and
    # exact margin at three depths pin every weighted integral on the way.
    walk = _Bisection(Polygonal.constant(2), seq, r.epsilon, r.prefix, 4096)
    walk.refine_to(60)
    return {"x60": to_ratstr(w.x.approx(60)), "bound": to_ratstr(r.bound),
            "epsilon": to_ratstr(r.epsilon), "margin": to_ratstr(r.margin),
            "prefix": r.prefix,
            "chain": {str(d): [walk.chain[d][2], to_ratstr(walk.chain[d][3])]
                      for d in (1, 20, 40, 60)}}


PROFILE_SEQS = {
    "ends-and-third": [F(0), F(1), F(1, 3)],
    "non-dyadic": [F(2, 7), F(5, 9), F(11, 13)],
    "duplicates": [F(1, 2), F(3, 10), F(1, 2), F(3, 10), F(0)],
}


def profile_points() -> list:
    rng = random.Random(20)
    pts = [F(0), F(1), F(1, 3), F(2, 7), F(1, 2)]
    while len(pts) < 20:
        pts.append(F(rng.randint(0, 255), rng.choice((256, 127, 1000, 3 ** 7))))
    return pts


def profile_report(points) -> list:
    seq = point_avoiding_seq(points)
    out = []
    for x in profile_points():
        p = seq.profile_at(x)
        out.append([to_ratstr(x), None if p is None else to_ratstr(p)])
    return out


def fallback_report() -> dict:
    # Cell 21 at level 6 fails theta at depth 2 and its point is 1/3, where
    # this domain has no profile: zeta realizes a point there instead.
    f = AEFunction(point_avoiding_seq([F(1, 3)]), lambda w: TENT.eval_creal(w.x),
                   name="tent-off-third", values_at=TENT.values_at)
    w = Bridge(f).zeta(21, 6, 2)
    return {"x60": to_ratstr(w.x.approx(60)), "gamma": to_ratstr(w.gamma)}


def golden_text() -> str:
    cases = {
        "intersections": {
            str(seed): {"rows": [[to_ratstr(p) for p in r] for r in seeded_rows(seed)],
                        **realization_report(intersect_countable(
                            [point_avoiding_seq(r) for r in seeded_rows(seed)]))}
            for seed in range(1, 9)},
        "tents_at_center": realization_report(tents_at_center_seq()),
        "profiles": {name: profile_report(pts) for name, pts in PROFILE_SEQS.items()},
        "zeta_fallback": fallback_report(),
    }
    return json.dumps(cases, indent=1, sort_keys=True) + "\n"


def test_realized_points_match_golden():
    assert golden_text() == GOLDEN.read_text()


def interior_seq(name):
    return intersect_countable([point_avoiding_seq([F(k, 127) for k in r])
                                for r in INTERIOR_ROWS[name]])


def interior_golden_text() -> str:
    """The full chain ``(lo, hi, K, margin)`` of each interior walk at four depths."""
    cases = {}
    for name in sorted(INTERIOR_ROWS):
        walk = realized_walk(interior_seq(name))
        walk.refine_to(60)
        cases[name] = {"rows": INTERIOR_ROWS[name],
                       "x60": to_ratstr(walk.point().approx(60)),
                       "chain": {str(d): [to_ratstr(walk.chain[d][0]),
                                          to_ratstr(walk.chain[d][1]), walk.chain[d][2],
                                          to_ratstr(walk.chain[d][3])]
                                 for d in (1, 20, 40, 60)}}
    return json.dumps(cases, indent=1, sort_keys=True) + "\n"


def test_interior_walks_match_golden():
    assert interior_golden_text() == INTERIOR_GOLDEN.read_text()


# Reference Fraction loops: the rational algorithms the integer kernels replace.

def ref_tent(center, height=ONE, half_width=None) -> Polygonal:
    c = F(center)
    h = F(height)
    w = F(half_width) if half_width is not None else min(c, 1 - c)
    if not 0 < c < 1:
        raise ValueError("tent center must be interior")
    if w <= 0 or h < 0:
        raise ValueError("tent needs positive width and nonnegative height")
    xs = [ZERO]
    vs = [h * (1 - c / w) if c < w else ZERO]
    for t in (c - w, c, c + w):
        if 0 < t < 1 and t > xs[-1]:
            xs.append(t)
            vs.append(h if t == c else ZERO)
    xs.append(ONE)
    vs.append(h * (1 - (1 - c) / w) if 1 - c < w else ZERO)
    return Polygonal(xs, vs)


def ref_width(pts, k):
    return pow2(-(k + 2)) / len(pts)


def ref_avoid_term(points, k) -> Polygonal:
    """Tents of index k summed one at a time, as point_avoiding_seq's terms."""
    pts = sorted({F(p) for p in points})
    w = ref_width(pts, k)
    out = Polygonal.constant(0)
    for p in pts:
        if p == 0:
            out = out + Polygonal((ZERO, w, ONE), (ONE, ZERO, ZERO))
        elif p == 1:
            out = out + Polygonal((ZERO, 1 - w, ONE), (ZERO, ZERO, ONE))
        else:
            out = out + ref_tent(p, ONE, w)
    return out


def ref_profile(points, x):
    """The avoidance profile as a loop over indices while width(k) > dist."""
    pts = sorted({F(p) for p in points})
    dists = [abs(x - p) for p in pts]
    dist = min(dists)
    if dist == 0:
        return None
    total, w = ZERO, ref_width(pts, 0)
    while w > dist:
        for d in dists:
            if d < w:
                total += 1 - d / w
        w = w / 2
    return total


def ref_vanishes(h, lo, hi):
    """Whether h is 0 at lo, at hi and at every breakpoint between them."""
    return all(ref_eval(h, t) == 0 for t in (lo, hi, *(t for t in h.xs if lo < t < hi)))


def ref_chain(h, seq, eps, k0, depth):
    """The bisection walk integrating every nonzero term on every interval."""
    lam = (1 + eps) / 2

    def tail(k):
        return lam ** (k + 1) / (1 - lam)

    def weighted(lo, hi, a, b):
        return sum(((1 + eps) ** n * ref_integral_on(seq.term(n), lo, hi)
                    for n in range(a, b + 1) if not seq.term(n).is_zero()), ZERO)

    def margin(lo, hi, k):
        return (ref_integral_on(h, lo, hi) - eps * (hi - lo)
                - weighted(lo, hi, 0, k) - tail(k))

    chain = [(ZERO, ONE, k0, margin(ZERO, ONE, k0))]
    while len(chain) - 1 < depth:
        lo, hi, k, m = chain[-1]
        while tail(k) > m / 2:
            k2 = k + _Bisection.CHUNK
            m += (tail(k) - tail(k2)) - weighted(lo, hi, k + 1, k2)
            k = k2
        mid = (lo + hi) / 2
        left = margin(lo, mid, k)
        if left > 0:
            chain.append((lo, mid, k, left))
        else:
            chain.append((mid, hi, k, (m - tail(k)) - left))
    return chain


unit = st.fractions(min_value=0, max_value=1, max_denominator=60)
interior = st.fractions(min_value=F(1, 97), max_value=F(96, 97), max_denominator=97)
avoided = st.lists(st.one_of(st.sampled_from([ZERO, ONE, F(1, 2), F(1, 4), F(1, 3)]),
                             unit), min_size=1, max_size=5)


class TestReferenceEquivalence:
    @given(interior, st.fractions(min_value=0, max_value=5, max_denominator=9),
           st.one_of(st.none(), st.fractions(min_value=F(1, 300), max_value=2,
                                             max_denominator=300)))
    @settings(max_examples=300)
    def test_tent(self, c, h, w):
        assert Polygonal.tent(c, h, w) == ref_tent(c, h, w)

    @pytest.mark.parametrize("c, h, w", [
        (F(1, 2), 1, None), (F(1, 3), F(2, 7), None), (F(1, 10), 1, F(1, 5)),
        (F(9, 10), 3, F(1, 5)), (F(1, 2), 1, 2), (F(1, 3), 0, F(1, 9)),
        (F(1, 4), 1, F(1, 4)), (F(3, 4), 1, F(1, 4))])
    def test_tent_clipping_and_defaults(self, c, h, w):
        assert Polygonal.tent(c, h, w) == ref_tent(c, h, w)

    @pytest.mark.parametrize("c, h, w", [
        (0, 1, F(1, 4)), (1, 1, F(1, 4)), (F(3, 2), 1, None), (F(-1, 2), 1, 1),
        (F(1, 2), 1, 0), (F(1, 2), 1, F(-1, 4)), (F(1, 2), F(-1, 3), F(1, 4))])
    def test_tent_errors(self, c, h, w):
        with pytest.raises(ValueError) as want:
            ref_tent(c, h, w)
        with pytest.raises(ValueError, match=str(want.value)):
            Polygonal.tent(c, h, w)

    @given(avoided, st.integers(0, 9))
    @settings(max_examples=200)
    def test_avoidance_terms(self, points, k):
        assert point_avoiding_seq(points).term(k) == ref_avoid_term(points, k)

    @given(avoided, unit)
    @settings(max_examples=300)
    def test_avoidance_profile(self, points, x):
        assert point_avoiding_seq(points).profile_at(x) == ref_profile(points, x)

    @given(avoided, st.data())
    @settings(max_examples=100)
    def test_profile_is_none_at_avoided_points(self, points, data):
        seq = point_avoiding_seq(points + points[:1])
        assert seq.profile_at(data.draw(st.sampled_from(points))) is None

    @pytest.mark.parametrize("lo, hi", [(-1, F(1, 2)), (F(1, 2), F(1, 3)), (0, 2)])
    def test_integral_on_rejects_bad_intervals(self, lo, hi):
        with pytest.raises(ValueError):
            Polygonal.tent(F(1, 2)).integral_on(lo, hi)


@st.composite
def interval_on_nodes(draw, h):
    """``lo < hi`` drawn from h's nodes, the midpoints of its segments (inside
    any run of zeros) and arbitrary points of [0, 1]."""
    xs = h.xs
    probes = st.one_of(st.sampled_from(xs),
                       st.sampled_from([(s + t) / 2 for s, t in zip(xs, xs[1:])]), unit)
    lo, hi = sorted(draw(st.lists(probes, min_size=2, max_size=2, unique=True)))
    return lo, hi


class TestVanishesOn:
    @given(mixed_polys(), st.booleans(), st.data())
    @settings(max_examples=150)
    def test_exactly_where_the_integral_is_zero(self, h, clip, data):
        if clip:
            # Nonnegative, with runs of zeros where h was negative.
            h = h.max_with(Polygonal.constant(0))
        lo, hi = data.draw(interval_on_nodes(h))
        assert h.vanishes_on(lo, hi) == ref_vanishes(h, lo, hi)
        if h.is_nonneg():
            assert h.vanishes_on(lo, hi) == (h.integral_on(lo, hi) == 0)

    @given(avoided, st.integers(0, 9), unit, unit)
    @settings(max_examples=100)
    def test_avoidance_term_vanishes_off_its_tents(self, points, k, p, q):
        if p == q:
            return
        lo, hi = min(p, q), max(p, q)
        w = ref_width(sorted({F(c) for c in points}), k)
        off = all(c + w <= lo or c - w >= hi for c in points)
        assert point_avoiding_seq(points).term(k).vanishes_on(lo, hi) == off


class TestIntersectionProfile:
    def test_later_row_without_profile(self):
        seq = intersect_countable([tents_at_center_seq(), point_avoiding_seq([F(1, 3)])])
        assert seq.profile_at(F(1, 3)) is None

    @given(st.lists(st.one_of(avoided.map(point_avoiding_seq),
                              st.just(tents_at_center_seq()), st.just(RegularSeq.zero())),
                    min_size=1, max_size=4),
           st.one_of(st.sampled_from([ZERO, ONE, F(1, 2), F(1, 4), F(1, 3)]), unit))
    @settings(max_examples=100)
    def test_profile_reads_every_row(self, rows, x):
        seq = intersect_countable(rows)
        got = seq.profile_at(x)
        parts = [r.profile_at(x) for r in rows]
        assert (got is None) == any(p is None for p in parts)
        if got is not None:
            assert got == sum((pow2(-(2 * n + 1)) * p for n, p in enumerate(parts)), ZERO)
        if seq.avoids is not None:
            assert seq.profiled([x.numerator], x.denominator) == [got is not None]


def realized_walk(seq):
    r = realize_point(Polygonal.constant(2), seq, 0)
    return _Bisection(Polygonal.constant(2), seq, r.epsilon, r.prefix, 4096)


CHAIN_SEQS = {
    "zero": [ZERO],
    "quarters": [F(1, 4), F(3, 4)],
    "third": [F(1, 3)],
    "ends": [ZERO, ONE, F(1, 2)],
}


class TestBisection:
    @pytest.mark.parametrize("name", sorted(CHAIN_SEQS))
    def test_chain_matches_walk_without_skip(self, name):
        seq = point_avoiding_seq(CHAIN_SEQS[name])
        walk = realized_walk(seq)
        walk.refine_to(40)
        assert walk.chain == ref_chain(walk.h, seq, walk.eps, walk.chain[0][2], 40)

    @given(st.lists(st.lists(st.integers(1, 126), min_size=1, max_size=3),
                    min_size=1, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_intersection_chain_matches_walk_without_skip(self, rows):
        seq = intersect_countable([point_avoiding_seq([F(k, 127) for k in r]) for r in rows])
        walk = realized_walk(seq)
        walk.refine_to(40)
        assert walk.chain == ref_chain(walk.h, seq, walk.eps, walk.chain[0][2], 40)

    def test_tents_chain_matches_walk_without_skip(self):
        seq = tents_at_center_seq()
        walk = realized_walk(seq)
        walk.refine_to(40)
        assert walk.chain == ref_chain(walk.h, seq, walk.eps, walk.chain[0][2], 40)

    @pytest.mark.parametrize("name", sorted(CHAIN_SEQS))
    def test_integrates_only_terms_meeting_the_interval(self, name, monkeypatch):
        seq = point_avoiding_seq(CHAIN_SEQS[name])
        walk = realized_walk(seq)
        calls = []
        integral_on = Polygonal.integral_on

        def counted(self, lo, hi):
            if self is not walk.h:
                calls.append((self, lo, hi))
            return integral_on(self, lo, hi)

        monkeypatch.setattr(Polygonal, "integral_on", counted)
        walk.refine_to(40)
        assert calls
        for h, lo, hi in calls:
            assert not ref_vanishes(h, lo, hi), (h, lo, hi)

    @pytest.mark.parametrize("name, hull_calls", [("to-1/16", 3124), ("to-5/32", 3160)])
    def test_interior_walk_integrates_an_eighth_of_the_terms(self, name, hull_calls,
                                                            monkeypatch):
        # hull_calls: the integral_on calls to depth 60 of a walk that
        # integrates every term whose hull of nonzero segments meets the
        # interval; on these walks that hull covers every interval.
        seq = interior_seq(name)
        walk = realized_walk(seq)
        calls = [0]
        integral_on = Polygonal.integral_on

        def counted(self, lo, hi):
            calls[0] += 1
            return integral_on(self, lo, hi)

        monkeypatch.setattr(Polygonal, "integral_on", counted)
        walk.refine_to(60)
        monkeypatch.undo()
        assert calls[0] <= hull_calls // 8
        assert walk.chain == ref_chain(walk.h, seq, walk.eps, walk.chain[0][2], 60)


class TestThreads:
    def test_one_point_and_one_chain_across_threads(self):
        rows = seeded_rows(3)
        seq = intersect_countable([point_avoiding_seq(r) for r in rows])
        x = point_in_pps(seq).x
        walk = realized_walk(seq)
        start = threading.Barrier(8)
        seen = [None] * 8

        def worker(t):
            start.wait(timeout=10)
            depths = list(range(48 - 5 * t, 0, -(t + 1))) + [8 * t]
            got = {}
            for d in depths:
                walk.refine_to(d)
                got[d] = (x.approx(d), walk.chain[d])
            seen[t] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        fresh_seq = intersect_countable([point_avoiding_seq(r) for r in rows])
        fresh_x = point_in_pps(fresh_seq).x
        fresh = realized_walk(fresh_seq)
        fresh.refine_to(len(walk.chain) - 1)
        assert walk.chain == fresh.chain
        for got in seen:
            assert got
            for d, (approx, link) in got.items():
                assert approx == fresh_x.approx(d)
                assert link == fresh.chain[d]


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
    INTERIOR_GOLDEN.write_text(interior_golden_text())
