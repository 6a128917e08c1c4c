"""One piecewise-constant function behind indicators, nets and the catalog step.

``char_of_interval_union``, every net and ``ae-step`` are built by
``aefunc.piecewise_constant``.  Its ``values_at`` sweep, its rational-witness
path and its located evaluator must each give the value of the piece that
holds the point: the indicator of the open union, the plateau of the net
cell, the side of the step.  At a break the function is undefined:
``values_at`` and the rational path raise ValueError, and at a break inside
(0, 1) the located evaluator never decides.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from almostfull import (AEFunction, BudgetExhausted, Bridge, CReal, DomainWitness,
                        IntervalUnion, NetIndex, Polygonal, char_of_interval_union)
from almostfull.catalog import get_entry

F = Fraction


def union_case(union: IntervalUnion):
    f = char_of_interval_union(union, name="u").characteristic.base
    return f, sorted(set(union.endpoints())), \
        lambda x: int(any(a < x < b for a, b in union.ivs))


def net_case(values: list, m: int):
    xs = [F(i, len(values) - 1) for i in range(len(values))]
    h = Polygonal(xs, [F(v, 5) for v in values])
    net = Bridge(AEFunction.from_polygonal(h, name="h")).net(NetIndex.canonical(m))
    coeffs = net.term(0).coeffs
    return net.base, [F(l, 1 << m) for l in range(1, 1 << m)], \
        lambda x: coeffs[min(int(x * (1 << m)), (1 << m) - 1)]


def step_case():
    return get_entry("ae-step").function, [F(1, 2)], lambda x: int(x > F(1, 2))


@st.composite
def unions(draw):
    """Up to three components; endpoints may sit at 0 and 1 and may touch."""
    den = draw(st.sampled_from((4, 16, 96, 97)))
    ends = sorted(draw(st.lists(st.integers(0, den), min_size=2, max_size=6, unique=True)))
    pairs = [(ends[i], ends[i + 1]) for i in range(0, len(ends) - 1, 2)]
    if draw(st.booleans()) and len(ends) >= 3:
        pairs = [(ends[0], ends[1]), (ends[1], ends[2])]
    return IntervalUnion([(F(a, den), F(b, den)) for a, b in pairs])


cases = st.one_of(
    unions().map(union_case),
    st.builds(net_case, st.lists(st.integers(-9, 9), min_size=2, max_size=5),
              st.integers(0, 5)),
    st.just(None).map(lambda _: step_case()))


def values_at(f: AEFunction, points: list) -> list:
    den = lcm(*(x.denominator for x in points))
    out, d = f.values_at([x.numerator * (den // x.denominator) for x in points], den)
    return [F(v, d) for v in out]


def rational_witness(x) -> DomainWitness:
    return DomainWitness(x=CReal.from_rational(x), gamma=F(0))


def located_witness(x) -> DomainWitness:
    """A real not marked rational whose approximants fall on both sides of x."""
    return DomainWitness(x=CReal(lambda p: x + F((-1) ** p, 2 << p)), gamma=F(0))


@given(cases, st.lists(st.fractions(0, 1, max_denominator=200), max_size=8),
       st.lists(st.integers(2, 40), max_size=4))
@settings(max_examples=150, deadline=None)
def test_every_path_gives_the_value_of_the_piece(case, drawn, near):
    f, breaks, value = case
    points = {F(0), F(1), *drawn}
    # Points just off the breaks, on both sides.
    for b in breaks:
        points.update(b + s * F(1, 1 << e) for e in near for s in (-1, 1))
    points = sorted(x for x in points if 0 <= x <= 1 and x not in breaks)
    expected = [F(value(x)) for x in points]
    assert values_at(f, points) == expected
    assert [f.eval(rational_witness(x)).approx(0) for x in points] == expected
    assert [f.eval(located_witness(x)).approx(0) for x in points] == expected


@given(cases, st.data())
@settings(max_examples=60, deadline=None)
def test_values_at_raises_at_a_break(case, data):
    f, breaks, _ = case
    if breaks:
        b = data.draw(st.sampled_from(breaks))
        with pytest.raises(ValueError):
            values_at(f, [F(0), b, F(1)] if 0 < b < 1 else [b])
        with pytest.raises(ValueError):
            f.eval(rational_witness(b))


@pytest.mark.parametrize("case", [
    union_case(IntervalUnion([(F(0), F(1, 3)), (F(1, 3), F(1, 2))])),
    net_case([1, -2, 3], 3),
    step_case(),
], ids=["union", "net", "step"])
def test_the_located_evaluator_never_decides_at_a_break(case, monkeypatch):
    monkeypatch.setenv("ALMOSTFULL_BUDGET", "40")
    f, breaks, _ = case
    for b in breaks:
        if b in (0, 1):
            continue
        with pytest.raises(BudgetExhausted):
            f.eval(located_witness(b)).approx(0)
