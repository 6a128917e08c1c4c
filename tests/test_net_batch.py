"""Batched nets: indicator-net golden, equivalence with per-cell sampling.

``tests/golden/indicator-nets.json`` pins, for three seeded unions of open
intervals with non-dyadic endpoints, the plateau rationals of the canonical
nets at levels 2..11 and of one mixed-level ``random_above`` net, the
converted limit's integral and the ``equality_check`` report.  Regenerate
with ``PYTHONPATH=src python tests/test_net_batch.py`` (a change that moves
it must say so in CHANGES.md).
"""

import json
import random
import threading
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from almostfull import (AEFunction, Bridge, CReal, DomainWitness, IntervalUnion,
                        NetIndex, Polygonal, RiemannCertificate, bridge_for,
                        ceil_log2, char_of_interval_union, point_avoiding_seq,
                        pow2, rat_approx, to_ratstr)
from almostfull.catalog import get_entry

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden" / "indicator-nets.json"
BUMP = Polygonal.from_json((GOLDEN.parent / "bump.json").read_text())
TENT = Polygonal.tent(F(1, 2))
LEBESGUE_P = {1: 3, 2: 2, 3: 2}


def seeded_union(rng: random.Random, c: int) -> IntervalUnion:
    """c components, endpoints alternating k/64 and k/97, k/99 or k/101."""
    while True:
        ends = []
        for k in range(2 * c):
            if k % 2 == 0:
                ends.append(F(rng.randint(1, 63), 64))
            else:
                ends.append(F(rng.randint(1, 96), rng.choice((97, 99, 101))))
        if len(set(ends)) == 2 * c:
            ends.sort()
            return IntervalUnion([(ends[2 * i], ends[2 * i + 1]) for i in range(c)])


def plateau_text(net) -> str:
    return " ".join(to_ratstr(v) for v in net.term(0).coeffs)


def indicator_report(c: int, seed: int) -> dict:
    rng = random.Random(seed)
    union = seeded_union(rng, c)
    f = char_of_interval_union(union, name=f"golden{c}").characteristic.base
    bridge = bridge_for(f)
    nets = {m: plateau_text(bridge.net(NetIndex.canonical(m))) for m in range(2, 12)}
    above = bridge.random_above(rng, NetIndex.canonical(5))

    def modulus(eps):
        return NetIndex.canonical(ceil_log2((2 * c + F(1, 2)) / eps))

    p = LEBESGUE_P[c]
    g = bridge.to_lebesgue(RiemannCertificate(modulus))
    value = g.integral(p)
    report = bridge.equality_check(g, n=3, samples=8, q=p, seed=rng.randrange(1 << 16))
    return {
        "union": [[to_ratstr(a), to_ratstr(b)] for a, b in union.ivs],
        "nets": nets,
        "random_above": {"level": above.level, "cells": [list(t) for t in above.cells],
                         "plateaus": plateau_text(bridge.net(above))},
        "lebesgue": {"p": p, "value": to_ratstr(value)},
        "equality_check": json.dumps(report, sort_keys=True),
    }


def golden_text() -> str:
    cases = {str(c): indicator_report(c, seed) for c, seed in ((1, 11), (2, 22), (3, 33))}
    return json.dumps(cases, indent=1, sort_keys=True) + "\n"


def test_indicator_nets_match_golden():
    assert golden_text() == GOLDEN.read_text()


def indicator(union: IntervalUnion, name: str = "chi") -> AEFunction:
    return char_of_interval_union(union, name=name).characteristic.base


def per_cell_plateaus(f: AEFunction, alpha: NetIndex) -> list:
    """The reference: one zeta, f.eval and rat_approx at level + 4 per cell."""
    bridge = Bridge(f)
    return [rat_approx(f.eval(bridge.zeta(k, ml, nl)), alpha.level + 4)
            for k, ml, nl in alpha.cells]


def batched_plateaus(bridge: Bridge, alpha: NetIndex) -> list:
    return list(bridge.net(alpha).term(0).coeffs)


FUNCTIONS = {
    "identity": lambda: AEFunction.from_polygonal(Polygonal.identity(), name="identity"),
    "tent": lambda: AEFunction.from_polygonal(TENT, name="tent"),
    "bump": lambda: AEFunction.from_polygonal(BUMP, name="bump"),
    "ae-step": lambda: get_entry("ae-step").function,
    # x**2 has no values_at: every cell takes zeta and the certified evaluator.
    "square": lambda: get_entry("square").function,
    "indicator-1": lambda: indicator(seeded_union(random.Random(11), 1)),
    "indicator-3": lambda: indicator(seeded_union(random.Random(33), 3)),
    "upper-half": lambda: get_entry("char-upper-half").function,
    # Cell 21 at level 6 fails theta at depth 2 and its point is 1/3, where
    # this domain has no profile: zeta realizes a point there instead.
    "tent-off-third": lambda: AEFunction(
        point_avoiding_seq([F(1, 3)]), lambda w: TENT.eval_creal(w.x),
        name="tent-off-third", values_at=TENT.values_at),
}


class TestBatchedNets:
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_plateaus_match_per_cell_sampling(self, name):
        f = FUNCTIONS[name]()
        assert (f.values_at is None) == (name == "square")
        bridge = Bridge(f)
        rng = random.Random(5)
        indices = [NetIndex.canonical(m) for m in range(0, 7)]
        indices += [NetIndex.uniform(5, n) for n in (0, 2, 9)] + [NetIndex.uniform(6, 2)]
        indices += [bridge.random_above(rng, NetIndex.canonical(m)) for m in (2, 4, 5)]
        assert any(len({ml for _, ml, _ in a.cells}) > 1 for a in indices)
        for alpha in indices:
            assert batched_plateaus(bridge, alpha) == per_cell_plateaus(f, alpha), alpha.level
        assert (len(bridge._zeta) > 0) == (name in ("square", "tent-off-third"))

    @pytest.mark.parametrize("name", ["identity", "indicator-3", "ae-step"])
    def test_exact_nets_keep_no_witness(self, name):
        bridge = Bridge(FUNCTIONS[name]())
        bridge.net(NetIndex.canonical(12))
        assert len(bridge._zeta) == 0

    def test_concurrent_builds_and_points(self):
        bridge = Bridge(FUNCTIONS["indicator-3"]())
        start = threading.Barrier(4)
        nets, points = [], []

        def worker(k):
            start.wait(timeout=10)
            nets.append(bridge.net(NetIndex.canonical(6)))
            points.append(bridge.zeta(k, 6, 6))

        threads = [threading.Thread(target=worker, args=(k % 2,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(nets) == len(points) == 4 and all(n is nets[0] for n in nets)
        assert {id(w) for w in points} == {id(bridge.zeta(0, 6, 6)), id(bridge.zeta(1, 6, 6))}
        assert batched_plateaus(bridge, NetIndex.canonical(6)) == \
            per_cell_plateaus(bridge.f, NetIndex.canonical(6))

    def test_zeta_still_memoizes(self):
        bridge = Bridge(FUNCTIONS["indicator-1"]())
        bridge.net(NetIndex.canonical(4))
        w = bridge.zeta(5, 4, 4)
        assert bridge.zeta(5, 4, 4) is w and list(bridge._zeta) == [(5, 4, 4)]
        assert bridge.net(NetIndex.canonical(4)).term(0).coeffs[5] == \
            rat_approx(bridge.f.eval(w), 8)


@st.composite
def unions(draw):
    """Up to three components with dyadic and non-dyadic endpoints."""
    den = draw(st.sampled_from((16, 64, 96, 97, 99)))
    ends = sorted(draw(st.lists(st.integers(1, den - 1), min_size=2, max_size=6,
                                unique=True)))
    if len(ends) % 2:
        ends.pop()
    return IntervalUnion([(F(ends[i], den), F(ends[i + 1], den))
                          for i in range(0, len(ends), 2)])


@st.composite
def sorted_points(draw, den=(16, 96, 97, 1 << 9)):
    d = draw(st.sampled_from(den))
    nums = draw(st.lists(st.integers(0, d), max_size=30))
    return sorted(F(k, d) for k in nums)


def assert_plan_matches(bridge: Bridge, realized: IntervalUnion, m: int, n: int):
    """theta and the sample point on every cell, against one intersect_interval
    per cell: the rule before level plans."""
    for k in range(1 << m):
        lo, hi = F(k, 1 << m), F(k + 1, 1 << m)
        part = realized.intersect_interval(lo, hi)
        passes = part.length > pow2(-2 * m) / 2
        assert bridge.theta(k, m, n) == passes, (k, m, n)
        a, b = part.largest_component() if passes else (lo, hi)
        assert bridge._point(k, m, n) == a + (b - a) / 3


def values_at(f: AEFunction, points: list) -> list:
    """``f.values_at`` at rational points, through its integer contract."""
    den = lcm(*(x.denominator for x in points))
    out, d = f.values_at([x.numerator * (den // x.denominator) for x in points], den)
    return [F(v, d) for v in out]


def rational_witness(x) -> DomainWitness:
    return DomainWitness(x=CReal.from_rational(x), gamma=F(0))


class TestPlanAndValues:
    @given(unions(), st.integers(1, 8), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_plan_matches_per_cell_intersection(self, union, m, n):
        bridge = Bridge(indicator(union))
        assert_plan_matches(bridge, bridge.gamma_union(n, bridge.gamma_depth(m, n)), m, n)

    @given(st.integers(1, 5), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_plan_on_chosen_realized_sets(self, m, n, data):
        # Endpoints on the grid, pieces exactly at the threshold 4**-m/2,
        # components inside one cell and neighbours sharing an endpoint.
        den = data.draw(st.sampled_from((1 << 2 * m + 1, 1 << 2 * m + 2, 3 << m + 1, 97)))
        cuts = sorted(data.draw(st.lists(st.integers(0, den), min_size=2, max_size=9,
                                         unique=True)))
        keep = data.draw(st.lists(st.booleans(), min_size=len(cuts) - 1,
                                  max_size=len(cuts) - 1))
        realized = IntervalUnion([(F(a, den), F(b, den))
                                  for a, b, k in zip(cuts, cuts[1:], keep) if k])
        bridge = Bridge(FUNCTIONS["indicator-1"]())
        bridge._gamma_unions[(n, bridge.gamma_depth(m, n))] = realized
        assert_plan_matches(bridge, realized, m, n)

    @given(st.lists(st.integers(-16, 16), min_size=2, max_size=6), sorted_points())
    @settings(max_examples=100, deadline=None)
    def test_polygonal_values_match_evaluator(self, values, points):
        xs = [F(i, len(values) - 1) ** 2 for i in range(len(values))]
        h = Polygonal(xs, [F(v, 7) for v in values])
        f = AEFunction.from_polygonal(h)
        got = values_at(f, points)
        assert got == [h.eval(x) for x in points]
        assert got == [f.eval(rational_witness(x)).approx(0) for x in points]

    @given(unions(), sorted_points())
    @settings(max_examples=100, deadline=None)
    def test_indicator_values_match_evaluator(self, union, points):
        f = indicator(union)
        points = [x for x in points if x not in union.endpoints()]
        got = values_at(f, points)
        # A real that is not marked rational takes the refining evaluator.
        refined = [f.eval(DomainWitness(x=CReal(lambda p, x=x: x), gamma=F(0))).approx(0)
                   for x in points]
        assert got == refined
        assert got == [f.eval(rational_witness(x)).approx(0) for x in points]

    @given(unions(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_indicator_values_raise_at_endpoints(self, union, data):
        f = indicator(union)
        e = data.draw(st.sampled_from(union.endpoints()))
        with pytest.raises(ValueError):
            values_at(f, [F(0), e, F(1)])
        with pytest.raises(ValueError):
            f.eval(rational_witness(e))


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
