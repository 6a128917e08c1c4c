"""Net machinery: sublevel sets, cell relation, sample points, conversion."""

import dataclasses
import gc
import os
import random
import subprocess
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import almostfull.bridge as bridge_module
from almostfull import (AEFunction, Bridge, CertificationError, IntervalUnion,
                        NetIndex, Polygonal, RegularSeq, RiemannCertificate,
                        Summable, bridge_for, ceil_log2, char_of_interval_union,
                        from_ratstr, intersect_pair, point_avoiding_seq, pow2,
                        rat_approx, witness_precision)
from almostfull.bridge import _gamma_depth
from almostfull.catalog import get_bridge, get_entry, tents_at_center_seq
from almostfull.polygonal import StepPolygonal
from test_polygonal import mixed_polys

F = Fraction
HALF = F(1, 2)
THREE_QUARTERS = F(3, 4)


class TestNetIndex:
    def test_canonical_shape(self):
        alpha = NetIndex.canonical(3)
        assert alpha.level == 3
        assert len(alpha.cells) == 8
        assert alpha.cells[5] == (5, 3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetIndex(level=2, cells=((0, 2, 2),) * 3)
        with pytest.raises(ValueError):
            NetIndex(level=1, cells=((0, 1, 1), (0, 1, 1)))
        with pytest.raises(ValueError):
            NetIndex(level=1, cells=((0, 0, 1), (1, 1, 1)))

    def test_order_by_level(self):
        assert NetIndex.canonical(4).is_above(NetIndex.canonical(3))
        assert not NetIndex.canonical(3).is_above(NetIndex.canonical(3))


class TestBridgeFor:
    def test_bridge_dies_with_its_function(self):
        f = AEFunction.from_polygonal(Polygonal.tent(HALF), name="short-lived")
        net = bridge_for(f).net(NetIndex.canonical(2))
        assert abs(net.integral(6) - HALF) <= pow2(-1)
        bridge = weakref.ref(bridge_for(f))
        del f, net
        gc.collect()
        assert bridge() is None

    def test_concurrent_callers_share_one_bridge(self):
        f = AEFunction.from_polygonal(Polygonal.identity(), name="shared")
        start = threading.Barrier(8)
        got = []

        def worker():
            start.wait(timeout=10)
            got.append(bridge_for(f))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 8
        assert all(b is got[0] for b in got)


CATALOG_RACE = """
import sys
import threading

from almostfull.catalog import CATALOG_NAMES, get_bridge, get_entry

sys.setswitchinterval(1e-6)
for name in CATALOG_NAMES:
    start = threading.Barrier(8)
    entries, bridges = [], []

    def worker():
        start.wait(timeout=10)
        entries.append(get_entry(name))
        bridges.append(get_bridge(name))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), name
    assert len(entries) == len(bridges) == 8, name
    assert all(e is entries[0] for e in entries), f"{name}: several entries"
    assert all(b is bridges[0] for b in bridges), f"{name}: several bridges"
"""


def test_concurrent_first_catalog_callers_share_entry_and_bridge():
    # A fresh process, so that every call races to build its entry.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CATALOG_RACE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestDelta:
    def test_full_for_total_function(self):
        d = bridge_for(get_entry("identity").function).delta(4)
        assert d.support == IntervalUnion.whole()

    def test_exact_length_bound(self):
        bridge = get_bridge("ae-step")
        for n in range(13):
            length = bridge.delta_union(n).length
            assert length > 1 - THREE_QUARTERS ** n

    def test_level_zero_vacuous_strength(self):
        bridge = get_bridge("ae-step")
        assert bridge.delta_union(0).length > 0

    def test_sublevel_property(self):
        bridge = get_bridge("ae-step")
        for n in (2, 4):
            h = bridge.f.domain.term(n)
            theta = F(2, 3) ** n
            for a, b in bridge.delta_union(n).ivs:
                assert h.eval((a + b) / 2) < theta


class TestGamma:
    def test_reported_bound_formula(self):
        bridge = get_bridge("ae-step")
        for n in range(9):
            info = bridge.gamma(n)
            defects = sum((1 - bridge.delta_union(k).length
                           for k in range(n, info.prefix + 1)), F(0))
            assert info.lower_bound == 1 - defects - info.tail
            assert info.lower_bound > 1 - 4 * THREE_QUARTERS ** n

    def test_full_rows_give_full_measure(self):
        info = bridge_for(get_entry("identity").function).gamma(3)
        assert info.union == IntervalUnion.whole()
        assert abs(info.set.measure(8) - 1) <= pow2(-8)

    def test_geometric_tail_identity(self):
        # The infinite defect series sums to 4*(3/4)**n exactly.
        n = 5
        series = sum((THREE_QUARTERS ** k for k in range(n, 60)), F(0))
        assert series == 4 * (THREE_QUARTERS ** n - THREE_QUARTERS ** 60)

    def test_catalog_measure_estimate(self):
        bridge = get_bridge("ae-step")
        info = bridge.gamma(2)
        assert info.set.measure(10) >= info.union.length - pow2(-9)


class TestTheta:
    def test_deep_first_request(self):
        # At level 60 the realized prefix is 298 sublevel sets deep; a first
        # request stores the shorter prefixes in turn instead of recursing
        # through all of them.
        bridge = Bridge(get_entry("ae-step").function)
        assert bridge.gamma_depth(60, 0) == 298
        assert bridge.theta(0, 60, 0)
        assert not bridge.theta(1 << 59, 60, 0)

    def test_full_set_positive(self):
        f = get_entry("identity").function
        for m in (1, 3, 5):
            for k in (0, (1 << m) - 1):
                assert bridge_for(f).theta(k, m, 2)

    def test_cell_inside_gap_negative(self):
        bridge = get_bridge("ae-step")
        # The level-2 sublevel set excludes a neighbourhood of the midpoint
        # wide enough to swallow the cell just left of it at level 6.
        assert not bridge.theta(31, 6, 2)
        assert bridge.theta(0, 6, 2)

    def test_memoized_decision_stable(self):
        bridge = get_bridge("ae-step")
        first = [bridge.theta(k, 4, 3) for k in range(16)]
        second = [bridge.theta(k, 4, 3) for k in range(16)]
        assert first == second

    def test_two_sided_guarantee_against_oracle(self):
        for name in ("ae-step", "char-upper-half"):
            bridge = get_bridge(name)
            for m in range(1, 7):
                cell_area = pow2(-2 * m)
                for n in range(5):
                    deep = bridge.gamma_depth(m, n) + 16
                    tail = 3 * THREE_QUARTERS ** deep
                    for k in range(1 << m):
                        lo, hi = F(k, 1 << m), F(k + 1, 1 << m)
                        mu_hi = bridge.gamma_union(n, deep) \
                            .intersect_interval(lo, hi).length
                        if bridge.theta(k, m, n):
                            assert mu_hi - tail > cell_area / 4
                        else:
                            assert mu_hi - tail <= cell_area / 2

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            bridge_for(get_entry("identity").function).theta(4, 2, 1)


class TestZeta:
    def test_interior_of_cell(self):
        f = get_entry("identity").function
        w = bridge_for(f).zeta(5, 3, 3)
        x = rat_approx(w.x, 10)
        assert F(5, 8) < x < F(6, 8)

    def test_memoized_point_stable(self):
        f = get_entry("identity").function
        assert bridge_for(f).zeta(2, 2, 2) is bridge_for(f).zeta(2, 2, 2)

    def test_negative_cell_uses_domain(self):
        bridge = get_bridge("ae-step")
        assert not bridge.theta(31, 6, 2)
        w = bridge.zeta(31, 6, 2)
        x = rat_approx(w.x, 15)
        assert F(31, 64) < x < F(32, 64)
        prec = witness_precision(bridge.f.domain, 15, 25)
        ok, _ = w.verify(bridge.f.domain, 15, prec)
        assert ok

    def test_step_cells_avoid_midpoint(self):
        bridge = get_bridge("ae-step")
        for m in (3, 4):
            for k in ((1 << (m - 1)) - 1, 1 << (m - 1)):
                w = bridge.zeta(k, m, m)
                x = rat_approx(w.x, 25)
                assert abs(x - HALF) > pow2(-24)

    @pytest.mark.parametrize("domain, cells", [
        # Every cell passes theta: its part of the realized set is the cell.
        (tents_at_center_seq(), [(k, m, m) for m in (2, 3) for k in range(1 << m)]),
        # The cell holding 1/3 fails theta at depth 2.
        (point_avoiding_seq([F(1, 3)]), [(21, 6, 2)]),
    ], ids=["tents-levels-2-3", "third-theta-fails"])
    def test_realized_points_without_profile(self, domain, cells):
        # Without a profile, every sample point is realized on the indicator
        # approximant of the cell's part, and carries a verifying witness.
        bare = RegularSeq(domain.term)
        tent = Polygonal.tent(HALF)
        bridge = Bridge(AEFunction(bare, lambda w: tent.eval_creal(w.x)))
        for k, m, n in cells:
            w = bridge.zeta(k, m, n)
            assert w.x.rational is None
            depth = 2 * m + 10
            ok, _ = w.verify(bare, depth, witness_precision(bare, depth, 20))
            assert ok, (k, m, n)
            lo, hi = F(k, 1 << m), F(k + 1, 1 << m)
            carrier = (bridge.gamma_union(n, _gamma_depth(m, n)) if bridge.theta(k, m, n)
                       else IntervalUnion.whole())
            part = carrier.intersect_interval(lo, hi)
            # Some approximant's error interval lies inside one component.
            assert any(a < w.x.approx(p) - pow2(-p) and w.x.approx(p) + pow2(-p) < b
                       for p in range(4, 80) for a, b in part.ivs), (k, m, n)


class TestNets:
    def test_constant_net(self):
        f = get_entry("constant")
        net = bridge_for(f.function).net(NetIndex.canonical(3))
        assert abs(net.integral(8) - 1) <= pow2(-8)

    def test_identity_bracket_m3(self):
        bridge = get_bridge("identity")
        net = bridge.net(NetIndex.canonical(3))
        lower = sum(F(l, 8) for l in range(8)) / 8
        upper = sum(F(l + 1, 8) for l in range(8)) / 8
        assert lower == F(7, 16) and upper == F(9, 16)
        assert lower <= net.coefficient_sum <= upper
        assert lower - pow2(-7) <= net.integral(8) <= upper + pow2(-7)

    def test_identity_refinement(self):
        bridge = get_bridge("identity")
        net = bridge.net(NetIndex.canonical(6))
        assert abs(net.integral(10) - HALF) <= pow2(-6) + pow2(-8)

    def test_monotone_bracket_all_levels(self):
        bridge = get_bridge("identity")
        for m in (2, 4, 5):
            net = bridge.net(NetIndex.canonical(m))
            lower = sum(F(l, 1 << m) for l in range(1 << m)) * pow2(-m)
            upper = lower + pow2(-m)
            assert lower <= net.coefficient_sum <= upper

    def test_step_evaluator_reads_plateau(self):
        bridge = get_bridge("ae-step")
        net = bridge.net(NetIndex.canonical(3))
        w = bridge.zeta(6, 3, 3)
        assert abs(net.eval(w).approx(6) - 1) <= pow2(-6)

    @given(mixed_polys(), st.integers(-(1 << 10), 1 << 10), st.integers(0, 4),
           st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_integral_within_bound_at_any_scale(self, h, c, m, p):
        # A mean |plateau| of 8 or more once broke the net's 2**-j decay chain.
        net = Bridge(AEFunction.from_polygonal(h * c)).net(NetIndex.canonical(m))
        net.check_prefix(p + 2)
        assert abs(net.integral(p) - net.coefficient_sum) <= pow2(-p)


def _profiled_function(name):
    """Tent values on a domain that avoids 1/3, so domain profiles vary."""
    tent = Polygonal.tent(HALF)
    return AEFunction(point_avoiding_seq([F(1, 3)], name="no-third"),
                      lambda w: tent.eval_creal(w.x), name=name)


class TestNetDomain:
    POINTS = (F(1, 7), F(2, 5), F(1, 3), F(5, 9), F(11, 16) + F(1, 97))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_eager_grid_domain(self, m):
        for f in (AEFunction.from_polygonal(Polygonal.tent(HALF), name="tent"),
                  _profiled_function("profiled")):
            net = Bridge(f).net(NetIndex.canonical(m))
            boundaries = [F(l, 1 << m) for l in range(1, 1 << m)]
            eager = intersect_pair(point_avoiding_seq(boundaries), f.domain)
            for k in range(4):
                assert net.domain.term(k) == eager.term(k)
            for x in self.POINTS + (F(1, 1 << m),):
                assert net.domain.profile_at(x) == eager.profile_at(x)
            assert net.domain.profile_at(F(1, 1 << m)) is None

    def test_level_12_net_builds_no_grid(self, monkeypatch):
        calls = []

        def counting(points, name=""):
            calls.append(len(points))
            return point_avoiding_seq(points, name=name)

        monkeypatch.setattr(bridge_module, "point_avoiding_seq", counting)
        tent = Polygonal.tent(HALF)
        net = Bridge(AEFunction.from_polygonal(tent, name="tent12")).net(
            NetIndex.canonical(12))
        assert abs(net.integral(6) - HALF) <= pow2(-6) + pow2(-12)
        assert calls == []
        net.domain.profile_at(F(1, 3))
        net.domain.profile_at(F(2, 3))
        assert calls == [(1 << 12) - 1]

    def test_built_once_under_concurrent_use(self, monkeypatch):
        calls = []

        def counting(points, name=""):
            calls.append(len(points))
            return point_avoiding_seq(points, name=name)

        monkeypatch.setattr(bridge_module, "point_avoiding_seq", counting)
        net = Bridge(_profiled_function("shared")).net(NetIndex.canonical(3))
        start = threading.Barrier(8)
        results = [None] * 8

        def worker(i):
            start.wait(timeout=10)
            results[i] = (net.domain.profile_at(F(i + 1, 17)), net.domain.term(i % 3))

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
        assert calls == [7]
        assert all(r is not None and r[0] is not None for r in results)


class TestCauchyProbe:
    def test_constant_gap_zero(self):
        bridge = bridge_for(get_entry("constant").function)
        rep = bridge.cauchy_probe(NetIndex.canonical(2), trials=4,
                                  precision=8, seed=3)
        assert from_ratstr(rep["max_gap"]) <= pow2(-6)

    def test_identity_shrinks(self):
        bridge = bridge_for(get_entry("identity").function)
        rep = bridge.cauchy_probe(NetIndex.canonical(4), trials=8,
                                  precision=8, seed=3)
        assert from_ratstr(rep["max_gap"]) < pow2(-3)

    def test_oscillator_does_not_shrink(self):
        bridge = bridge_for(get_entry("osc").function)
        for m in (3, 5):
            rep = bridge.cauchy_probe(NetIndex.canonical(m), trials=6,
                                      precision=8, seed=3)
            assert from_ratstr(rep["max_gap"]) > F(1, 8)

    def test_deterministic_given_seed(self):
        bridge = bridge_for(get_entry("identity").function)
        a = bridge.cauchy_probe(NetIndex.canonical(3), trials=5,
                                precision=8, seed=11)
        b = bridge.cauchy_probe(NetIndex.canonical(3), trials=5,
                                precision=8, seed=11)
        assert a == b


class TestConversion:
    def test_identity_integral(self):
        e = get_entry("identity")
        g = get_bridge("identity").to_lebesgue(e.certificate)
        assert abs(g.integral(10) - HALF) <= pow2(-10)

    def test_step_integral(self):
        e = get_entry("ae-step")
        g = get_bridge("ae-step").to_lebesgue(e.certificate)
        assert abs(g.integral(10) - HALF) <= pow2(-10)

    def test_three_piece_matches_exact(self):
        e = get_entry("three-piece")
        g = get_bridge("three-piece").to_lebesgue(e.certificate)
        assert abs(g.integral(10) - e.expected) <= pow2(-10)

    def test_idempotent_on_summable(self):
        e = get_entry("tent")
        g = get_bridge("tent").to_lebesgue(e.certificate)
        for p in (4, 6):
            assert abs(g.integral(p) - e.summable.integral(p)) <= pow2(-p + 2)

    def test_defective_certificate_rejected(self):
        # A certificate claiming mean convergence for the oscillator lies:
        # successive net distances stay large, so gap certification fails.
        bridge = Bridge(get_entry("osc").function, name="defect")
        cert = RiemannCertificate(
            modulus=lambda eps: NetIndex.canonical(
                max(1, (1 / eps).numerator.bit_length())))
        g = bridge.to_lebesgue(cert)
        with pytest.raises(CertificationError) as err:
            g.integral(6)
        assert err.value.index is not None


class TestConcurrentConversion:
    """Threads sharing one converted limit see the write-once memo tables."""

    TASKS = ([("integral", 4)] + [("term", k) for k in range(7)]
             + [("net", m) for m in range(2, 6)])

    @staticmethod
    def _fresh_tent():
        entry = get_entry("tent")
        bridge = bridge_for(dataclasses.replace(entry.function))
        return bridge, bridge.to_lebesgue(entry.certificate)

    @staticmethod
    def _run(bridge, limit, task):
        kind, i = task
        if kind == "integral":
            return limit.integral(i)
        if kind == "term":
            return limit.term(i)
        return bridge.net(NetIndex.canonical(i))

    def test_threads_agree_with_single_thread(self):
        ref_bridge, ref_limit = self._fresh_tent()
        expected = {}
        for task in self.TASKS:
            got = self._run(ref_bridge, ref_limit, task)
            expected[task] = got.term(task[1]) if task[0] == "net" else got

        bridge, limit = self._fresh_tent()
        start = threading.Barrier(8)
        results = [dict() for _ in range(8)]
        errors = []

        def worker(i):
            tasks = list(self.TASKS)
            random.Random(i).shuffle(tasks)
            try:
                start.wait(timeout=30)
                for task in tasks:
                    results[i][task] = self._run(bridge, limit, task)
            except Exception as exc:   # reported below, with the thread's id
                errors.append((i, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert not errors
        for got in results:
            for task in self.TASKS:
                value = got[task]
                if task[0] == "net":
                    assert value is results[0][task]
                    assert value.term(task[1]) == expected[task]
                else:
                    assert value == expected[task]
                    if task[0] == "term":
                        assert value is results[0][task]


class TestEqualityCheck:
    def test_identity_all_pass(self):
        e = get_entry("identity")
        bridge = get_bridge("identity")
        g = bridge.to_lebesgue(e.certificate)
        rep = bridge.equality_check(g, n=3, samples=8, q=10, seed=5)
        assert rep["passes"] == 8
        assert rep["pass_fraction"] == "1/1"
        assert len(rep["ladder_levels"]) == len(rep["ladder_gaps"]) + 1
        for k, gap in enumerate(rep["ladder_gaps"]):
            assert from_ratstr(gap) < pow2(-k)

    def test_step_all_pass(self):
        e = get_entry("ae-step")
        bridge = get_bridge("ae-step")
        g = bridge.to_lebesgue(e.certificate)
        rep = bridge.equality_check(g, n=3, samples=16, q=10, seed=7)
        assert rep["passes"] == 16

    def test_corrupted_limit_fails(self):
        e = get_entry("ae-step")
        bridge = get_bridge("ae-step")
        g = bridge.to_lebesgue(e.certificate)
        bad = g + Summable.constant(F(1, 4))
        rep = bridge.equality_check(bad, n=3, samples=8, q=10, seed=7)
        assert rep["passes"] == 0

    def test_no_point_on_a_ramp_of_the_limit(self):
        # At a point inside a ramp of g's step profile that profile is below
        # the plateau the limit takes there.  This union and seed put a
        # sample point 2.6e-7 above a level-11 cell boundary, whose ramp is
        # 2**-17 wide at q = 2; the point is drawn again, and every row passes.
        union = IntervalUnion([(F(27, 64), F(52, 101)), (F(53, 101), F(20, 33)),
                               (F(23, 32), F(13, 16))])
        f = char_of_interval_union(union, name="u").characteristic.base
        bridge = Bridge(f)
        g = bridge.to_lebesgue(RiemannCertificate(
            lambda eps: NetIndex.canonical(ceil_log2((6 + HALF) / eps))))
        rep = bridge.equality_check(g, n=3, samples=8, q=2, seed=42321)
        grid = g.term(4)
        assert isinstance(grid, StepPolygonal)
        for row in rep["sample_rows"]:
            x = from_ratstr(row["point"])
            cell = int(x * (1 << grid.level))
            assert grid.eval(x) == grid.coeffs[cell]
        assert rep["pass_fraction"] == "1/1"
