"""Γ chains that skip the sublevel sets that cannot cut.

``Bridge.gamma_union(n, prefix)`` intersects the sublevel sets
``{h_k < (2/3)**k}`` for k = n..prefix one after another.  Where the
domain's term k is 0 on every component of the chain so far, the chain is
kept as it is and term k is not built.  Here every chain is held to the
plain fold over the built terms, for domains with support hooks and for a
hookless copy, and a riemann-net integral of a polygonal is held to one
sublevel set per net.
"""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from almostfull import (AEFunction, CReal, IntervalUnion, Polygonal, RegularSeq,
                        char_of_interval_union, cli, point_avoiding_seq)
from almostfull import bridge as bridge_module
from almostfull.bridge import Bridge, _gamma_depth
from almostfull.polygonal import sublevel
from test_polygonal import mixed_polys
from test_regular_kernels import unit
from test_term_supports import regular_terms

F = Fraction
TWO_THIRDS = F(2, 3)

points = st.lists(unit, min_size=1, max_size=4)
unions = st.lists(st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
                  min_size=2, max_size=6, unique=True).map(
    lambda ends: IntervalUnion(list(zip(sorted(ends)[::2], sorted(ends)[1::2]))))


def indicator_domain(args):
    union, pts = args
    ms = char_of_interval_union(union, extra_domain=point_avoiding_seq(pts), name="u")
    return ms.characteristic.base.domain


def hookless(seq: RegularSeq) -> RegularSeq:
    return RegularSeq(seq.term, name="hookless")


domains = st.one_of(
    st.just(RegularSeq.zero()),
    points.map(point_avoiding_seq),
    st.tuples(unions, points).map(indicator_domain),
    st.lists(mixed_polys(), min_size=1, max_size=4).map(
        lambda polys: RegularSeq.from_terms(regular_terms(polys))),
    points.map(lambda p: hookless(point_avoiding_seq(p))),
)


def plain_fold(domain: RegularSeq, n: int, prefix: int) -> IntervalUnion:
    out = sublevel(domain.term(n), TWO_THIRDS ** n)
    for k in range(n + 1, prefix + 1):
        out = out.intersect(sublevel(domain.term(k), TWO_THIRDS ** k))
    return out


def bridge_over(domain: RegularSeq) -> Bridge:
    return Bridge(AEFunction(domain, lambda w: CReal.from_rational(0), name="f"))


class TestChainRule:
    @given(domains, st.integers(0, 9), st.data())
    @settings(max_examples=120, deadline=None)
    def test_chain_equals_the_plain_fold(self, domain, m, data):
        n = data.draw(st.integers(0, m))
        prefix = _gamma_depth(m, n)
        got = bridge_over(domain).gamma_union(n, prefix)
        assert got.ivs == plain_fold(domain, n, prefix).ivs

    @given(domains, st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_every_prefix_of_one_chain(self, domain, n):
        # Longer prefixes extend the stored chain; shorter ones read it.
        b, prefix = bridge_over(domain), _gamma_depth(9, n)
        for p in (n, n + 3, prefix, prefix - 1):
            assert b.gamma_union(n, p).ivs == plain_fold(domain, n, p).ivs


class TestWork:
    def test_polygonal_net_builds_one_sublevel_set_per_net(self, tmp_path, monkeypatch, capsys):
        calls = {"sublevel": 0, "net": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bridge_module, "sublevel", counted("sublevel", sublevel))
        monkeypatch.setattr(bridge_module, "_build_net",
                            counted("net", bridge_module._build_net))
        h = Polygonal([F(0), F(1, 3), F(3, 4), F(1)], [F(0), F(1), F(1, 4), F(1, 2)])
        path = tmp_path / "poly.json"
        path.write_text(h.to_json())
        argv = ["integrate", "--function", f"poly:{path}", "--method", "riemann-net",
                "--precision", "4"]
        assert cli.main(argv) == 0
        value = Fraction(json.loads(capsys.readouterr().out)["results"]["value"])
        assert abs(value - h.integral()) <= F(1, 16)
        assert calls["net"] > 1
        # The zero sequence is 0 everywhere: only each chain's first set is built.
        assert calls["sublevel"] == calls["net"]
