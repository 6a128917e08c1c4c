"""Level-at-once nets: integer sample grids, compact indices, reference-counted bridges.

``tests/golden/bump-nets.json`` pins the canonical plateaus of the
``poly:tests/golden/bump.json`` nets at levels 2..12 (the full text up to
level 8, a SHA-256 of it above) and of one mixed-level ``random_above``
net.  Regenerate with ``PYTHONPATH=src python tests/test_net_grid.py`` (a
change that moves it must say so in CHANGES.md).
"""

import gc
import hashlib
import json
import random
import weakref
from bisect import bisect_right
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from almostfull import (AEFunction, Bridge, CReal, DomainWitness, IntervalUnion,
                        NetIndex, Polygonal, RegularSeq, RiemannCertificate,
                        bridge_for, char_of_interval_union,
                        intersect_pair, point_avoiding_seq, pow2, to_ratstr)
import almostfull.bridge as bridge_module
from almostfull.bridge import _gamma_depth
from almostfull.cli import _load_entry
from almostfull.polygonal import Plateaus

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"
BUMP_NETS = GOLDEN / "bump-nets.json"


def plateau_text(net) -> str:
    return " ".join(to_ratstr(v) for v in net.term(0).coeffs)


def bump_report() -> dict:
    bridge = bridge_for(_load_entry(f"poly:{GOLDEN / 'bump.json'}").function)
    nets = {}
    for m in range(2, 13):
        text = plateau_text(bridge.net(NetIndex.canonical(m)))
        nets[m] = text if m <= 8 else hashlib.sha256(text.encode()).hexdigest()
    above = bridge.random_above(random.Random(17), NetIndex.canonical(6))
    return {"nets": nets,
            "random_above": {"level": above.level, "cells": [list(t) for t in above.cells],
                             "plateaus": plateau_text(bridge.net(above))}}


def bump_golden_text() -> str:
    return json.dumps(bump_report(), indent=1, sort_keys=True) + "\n"


def test_bump_nets_match_golden():
    assert bump_golden_text() == BUMP_NETS.read_text()


def indicator(union: IntervalUnion, name: str = "chi") -> AEFunction:
    return char_of_interval_union(union, name=name).characteristic.base


def seeded_union(rng: random.Random, c: int) -> IntervalUnion:
    """c components, endpoints alternating k/64 and k/97, k/99 or k/101."""
    while True:
        ends = sorted({F(rng.randint(1, 63), 64) if k % 2 == 0
                       else F(rng.randint(1, 96), rng.choice((97, 99, 101)))
                       for k in range(2 * c)})
        if len(ends) == 2 * c:
            return IntervalUnion([(ends[2 * i], ends[2 * i + 1]) for i in range(c)])


def over_one_denominator(points: list):
    den = lcm(*(x.denominator for x in points))
    return [x.numerator * (den // x.denominator) for x in points], den


class TestFreedWithoutCollector:
    @pytest.mark.parametrize("kind", ["polygonal", "indicator"])
    def test_bridge_net_and_limit_die_by_reference_counting(self, kind):
        enabled = gc.isenabled()
        gc.disable()
        try:
            if kind == "polygonal":
                h = Polygonal.tent(F(1, 3))
                f, value = AEFunction.from_polygonal(h, name="refcounted"), h.integral()
            else:
                union = seeded_union(random.Random(3), 2)
                f, value = indicator(union), union.length
            bridge = bridge_for(f)
            net = bridge.net(NetIndex.canonical(5))
            limit = bridge.to_lebesgue(RiemannCertificate(lambda eps: NetIndex.canonical(4)))
            assert abs(limit.integral(2) - value) <= pow2(-2) + pow2(-4)
            if kind == "indicator":
                bridge.equality_check(limit, n=3, samples=4, q=2, seed=5)
            refs = [weakref.ref(x) for x in (bridge, net, limit)]
            del f, bridge, net, limit
            assert [r() for r in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_bridge_outlives_its_function(self):
        h = Polygonal.tent(F(1, 2))
        f = AEFunction.from_polygonal(h, name="gone")
        fields, gone = (f.domain, f.evaluator, f.name), weakref.ref(f)
        bridge = Bridge(f)
        del f
        assert gone() is None
        assert (bridge.f.domain, bridge.f.evaluator, bridge.f.name) == fields
        assert bridge.net(NetIndex.canonical(3)).coefficient_sum * 8 == sum(
            h.eval(F(3 * k + 1, 24)) for k in range(8))


class TestCompactIndex:
    def test_explicit_uniform_cells_take_the_canonical_form(self):
        explicit = NetIndex(level=3, cells=tuple((l, 3, 5) for l in range(8)))
        uniform = NetIndex.uniform(3, 5)
        assert explicit == uniform and hash(explicit) == hash(uniform)
        assert explicit.cells == uniform.cells == bridge_module.UniformCells(3, 5)
        bridge = Bridge(AEFunction.from_polygonal(Polygonal.tent(F(1, 3))))
        assert bridge.net(explicit) is bridge.net(uniform)
        assert len(bridge._nets) == 1
        mixed = NetIndex(level=3, cells=tuple((l, 3, 5 + (l == 7)) for l in range(8)))
        assert mixed != uniform and type(mixed.cells) is tuple

    def test_cells_read_like_the_tuple(self):
        alpha = NetIndex.canonical(3)
        triples = tuple((l, 3, 3) for l in range(8))
        assert tuple(alpha.cells) == triples and len(alpha.cells) == 8
        assert alpha.cells[-1] == triples[-1] and alpha.cells[2:7:2] == triples[2:7:2]
        with pytest.raises(IndexError):
            alpha.cells[8]
        # Kept as level and depth: no 2**60 triples are made.
        assert alpha.cells == bridge_module.UniformCells(3, 3)
        assert len(NetIndex.canonical(60).cells) == 1 << 60

    def test_uniform_errors(self):
        with pytest.raises(ValueError):
            NetIndex.uniform(2, -1)
        with pytest.raises(ValueError):
            NetIndex.uniform(-1, 0)


def fraction_gamma_depth(m: int, n: int) -> int:
    """The depth rule as a loop over rational tails."""
    allow = pow2(-2 * m) / 4
    k = max(n, 0)
    tail = 3 * F(3, 4) ** k
    while tail > allow:
        k += 1
        tail = tail * 3 / 4
    return k


def test_gamma_depth_matches_the_rational_loop():
    for m in range(41):
        for n in range(81):
            assert _gamma_depth(m, n) == fraction_gamma_depth(m, n), (m, n)


class TestProfiledPoints:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_profile_at_on_indicator_domains(self, seed):
        rng = random.Random(seed)
        union = seeded_union(rng, 1 + seed % 3)
        extra = point_avoiding_seq([F(1, 3), F(rng.randint(1, 126), 127)])
        for ms in (char_of_interval_union(union),
                   char_of_interval_union(union, extra_domain=extra)):
            domain = ms.characteristic.domain
            points = sorted({*union.endpoints(), F(1, 3), *(F(3 * k + 1, 3 << 6) for k in range(64)),
                             *(F(rng.randint(0, 1000), 1000) for _ in range(20))})
            nums, den = over_one_denominator(points)
            mask = domain.profiled(nums, den)
            assert mask == [domain.profile_at(x) is not None for x in points]
            assert not all(mask)

    def test_without_known_avoids_asks_each_point(self):
        odd = RegularSeq(lambda n: Polygonal.constant(0),
                         profile=lambda x: None if x.denominator == 3 else F(0))
        both = intersect_pair(odd, point_avoiding_seq([F(1, 2)]))
        assert odd.avoids is None and both.avoids is None
        assert both.profiled([1, 2, 3, 4, 5], 6) == [True, False, False, False, True]


def segment_value(h: Polygonal, x: Fraction) -> Fraction:
    """The value at x from the two nodes around it, in rationals."""
    i = bisect_right(h.xs, x) - 1
    if h.xs[i] == x:
        return h.vs[i]
    (x0, x1), (v0, v1) = h.xs[i:i + 2], h.vs[i:i + 2]
    return v0 + (v1 - v0) * (x - x0) / (x1 - x0)


@st.composite
def mixed_polygonals(draw):
    dens = draw(st.lists(st.sampled_from((3, 7, 16, 96, 97)), min_size=1, max_size=5))
    xs = sorted({F(draw(st.integers(1, d - 1)), d) for d in dens} | {F(0), F(1)})
    return Polygonal(xs, [F(draw(st.integers(-40, 40)), draw(st.sampled_from((1, 5, 16))))
                          for _ in xs])


@st.composite
def grid_points(draw, nodes=()):
    """Sorted points: some nodes, some over mixed denominators."""
    picked = draw(st.lists(st.sampled_from(nodes), max_size=4)) if nodes else []
    others = draw(st.lists(st.tuples(st.integers(0, 1 << 10),
                                     st.sampled_from((3 << 4, 97, 1 << 10, 3 * 97))),
                           max_size=24))
    return sorted(set(picked) | {F(min(k, d), d) for k, d in others})


class TestIntegerGrid:
    @given(mixed_polygonals(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_polygonal_values_match_eval(self, h, data):
        points = data.draw(grid_points(h.xs))
        nums, den = over_one_denominator(points)
        out, d = h.values_at(nums, den)
        got = [F(v, d) for v in out]
        assert got == [h.eval(x) for x in points] == [segment_value(h, x) for x in points]
        canonical = Plateaus(got)
        plateaus = Plateaus.from_integers(out, d)
        assert (plateaus.nums, plateaus.den) == (canonical.nums, canonical.den)
        assert (plateaus.total, plateaus.abs_total) == (canonical.total, canonical.abs_total)

    @given(st.integers(1, 3), st.integers(0, 1 << 16), st.data())
    @settings(max_examples=100, deadline=None)
    def test_indicator_values_match_eval(self, c, seed, data):
        union = seeded_union(random.Random(seed), c)
        f = indicator(union)
        points = [x for x in data.draw(grid_points()) if x not in union.endpoints()]
        nums, den = over_one_denominator(points)
        out, d = f.values_at(nums, den)
        expected = [F(int(union.contains(x))) for x in points]
        assert [F(v, d) for v in out] == expected == [
            f.eval(DomainWitness(x=CReal.from_rational(x), gamma=F(0))).approx(0) for x in points]
        plateaus = Plateaus.from_integers(out, d)
        assert (plateaus.nums, plateaus.den) == (Plateaus(expected).nums, Plateaus(expected).den)


@st.composite
def flat_polygonals(draw):
    """Polygonals over mixed denominators whose values repeat, so some segments are flat."""
    dens = draw(st.lists(st.sampled_from((3, 5, 8, 96, 97)), min_size=1, max_size=6))
    xs = sorted({F(draw(st.integers(1, d - 1)), d) for d in dens} | {F(0), F(1)})
    levels = draw(st.lists(st.sampled_from((F(0), F(1), F(-3, 4), F(7, 5))),
                           min_size=len(xs), max_size=len(xs)))
    return Polygonal(xs, levels)


def check_sweep(h: Polygonal, points: list):
    nums, den = over_one_denominator(points) if points else ([], 1)
    out, d = h.values_at(nums, den)
    assert [F(v, d) for v in out] == [segment_value(h, x) for x in points]


class TestSegmentSweep:
    """``Polygonal.values_at`` takes the points one segment at a time."""

    @given(flat_polygonals(), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_full_uniform_grid(self, h, m):
        check_sweep(h, [F(3 * k + 1, 3 << m) for k in range(1 << m)])

    @given(flat_polygonals(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_nodes_and_endpoints(self, h, data):
        nodes = data.draw(st.lists(st.sampled_from(h.xs), unique=True).map(sorted))
        check_sweep(h, nodes)
        check_sweep(h, sorted(set(nodes) | {F(0), F(1)}))
        check_sweep(h, sorted(set(data.draw(grid_points(h.xs))) | {F(0), F(1)}))

    @given(flat_polygonals(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_batches_that_skip_segments(self, h, data):
        # Points from every other segment only, the segments' ends left out.
        segments = list(zip(h.xs, h.xs[1:]))[data.draw(st.integers(0, 1))::2]
        fractions = data.draw(st.lists(st.sampled_from((F(1, 3), F(1, 2), F(5, 7))),
                                       min_size=1, max_size=3, unique=True))
        check_sweep(h, sorted(a + t * (b - a) for a, b in segments for t in fractions))

    def test_empty_batch(self):
        assert Polygonal.from_pairs([(0, 1), (F(1, 3), 2), (1, 0)]).values_at([], 12)[0] == []

    @pytest.mark.parametrize("nums", [[-1, 0, 5], [0, 5, 13], [-2, 13]])
    def test_points_outside_the_interval_raise(self, nums):
        h = Polygonal.from_pairs([(0, 1), (F(1, 3), 2), (1, 0)])
        with pytest.raises(ValueError, match="outside"):
            h.values_at(nums, 12)


if __name__ == "__main__":
    BUMP_NETS.write_text(bump_golden_text())
