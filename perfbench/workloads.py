"""Seeded certified-query workloads and their exact correctness checks.

Each workload turns a seed into a pool of query specifications (the inputs)
and then yields an endless stream of queries cycling through that pool.
Every query builds its library objects afresh, so no memo table carries
from one query to the next; the one deliberate exception is the ``net-ae``
session, whose three queries share one ``Bridge``.

A query returns ``(ok, output)``: ``ok`` is the verdict of an exact check
against a reference that does not come from the route under test, and
``output`` is a canonical text of the query's result used by the
determinism check.

The stream comes in blocks, and query parameters are stratified rather than
drawn independently: a block holds every cost class (precision or query
kind) exactly once, in a seeded order, and ``net-ae`` cycles its component
counts the same way.  Only shapes and positions are random.  That keeps the
mix of cheap and expensive queries the same from seed to seed, so the
quantiles of query time measure the library rather than the luck of the
draw.  A timed run ends on a block boundary for the same reason.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from almostfull import (IntervalUnion, NetIndex, Polygonal, RiemannCertificate,
                        Summable, bridge_for, ceil_log2, certify_l1_gap,
                        char_of_interval_union, from_ratstr,
                        intersect_countable, point_avoiding_seq, point_in_pps,
                        pow2, to_ratstr, witness_precision)
from almostfull import cli
from almostfull.catalog import square_offset_summable

F = Fraction
ZERO = F(0)

# Query specs per pool: about five times what a 25 s run consumes at the
# seed commit.  A run that outgrows its pool wraps around to the same inputs,
# still on fresh objects.
POOL = 288


def _shuffled_blocks(rng: random.Random, classes: list, blocks: int) -> list:
    """``blocks`` copies of ``classes``, each copy in its own seeded order."""
    out = []
    for _ in range(blocks):
        block = list(classes)
        rng.shuffle(block)
        out.extend(block)
    return out


def lipschitz_polygonal(rng: random.Random, lip: Fraction) -> Polygonal:
    """4-6 rational breakpoints, values in [0, 1], steepest slope exactly lip.

    One segment (width at most 1/2) climbs or falls at slope ``lip``; every
    other segment takes a seeded slope in [-lip, lip], clamped to [0, 1],
    which only ever lowers its magnitude.
    """
    nodes = rng.randint(4, 6)
    denom = rng.choice((24, 40, 48, 56))
    inner = sorted(rng.sample(range(1, denom), nodes - 2))
    xs = [ZERO] + [F(k, denom) for k in inner] + [F(1)]
    widths = [b - a for a, b in zip(xs, xs[1:])]
    # Three or more segments: at least one is at most 1/3 wide.
    s = rng.choice([i for i, w in enumerate(widths) if w <= F(1, 2)])
    rise = lip * widths[s]
    up = rng.random() < 0.5
    start = F(rng.randint(0, 16), 16) * (1 - rise)
    vs = [None] * len(xs)
    vs[s], vs[s + 1] = (start, start + rise) if up else (start + rise, start)

    def clamp(v):
        return min(max(v, ZERO), F(1))

    for i in range(s + 1, len(xs) - 1):
        slope = lip * F(rng.randint(-8, 8), 8)
        vs[i + 1] = clamp(vs[i] + slope * widths[i])
    for i in range(s - 1, -1, -1):
        slope = lip * F(rng.randint(-8, 8), 8)
        vs[i] = clamp(vs[i + 1] - slope * widths[i])
    return Polygonal(xs, vs)


class Workload:
    """Seeded inputs and an endless ``stream()`` of query blocks."""

    def notes(self) -> list:
        """Remarks for the run's report, beyond pass or fail."""
        return []


# -- net-lipschitz -----------------------------------------------------------

class NetLipschitz(Workload):
    """``almostfull integrate --method riemann-net`` on seeded polygonals.

    The CLI is called in-process, one client, queries back to back.  The
    steepest slope lies in (3/2, 2], where the canonical Lipschitz modulus
    ``ceil_log2((lip + 1/2) / eps)`` is the same for every input, so cost
    classes are set by the precision alone.
    """

    PRECISIONS = (2, 3, 4)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        blocks = POOL // len(self.PRECISIONS)
        self.specs = []
        for i, p in enumerate(_shuffled_blocks(rng, list(self.PRECISIONS), blocks)):
            lip = 2 - F(rng.randint(0, 7), 16)
            h = lipschitz_polygonal(rng, lip)
            self.specs.append((workdir / f"lip{i:03d}.json", h.to_json(), p,
                               h.integral()))

    @staticmethod
    def _integrate(path: Path, p: int, expected: Fraction):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["integrate", "--function", f"poly:{path}",
                             "--method", "riemann-net", "--precision", str(p)])
        text = out.getvalue()
        if code != 0:
            return False, f"exit {code}: {err.getvalue().strip()}"
        value = from_ratstr(json.loads(text)["results"]["value"])
        return abs(value - expected) <= pow2(-p), text

    def stream(self):
        size = len(self.PRECISIONS)
        for start in itertools.cycle(range(0, len(self.specs), size)):
            block = self.specs[start:start + size]
            # The CLI's input files are written here, between queries and
            # outside set-up, where the disk's stalls would only add noise.
            for path, text, _, _ in block:
                path.write_text(text)
            yield [("integrate", functools.partial(self._integrate, path, p, expected))
                   for path, _, p, expected in block]


# -- lebesgue-algebra --------------------------------------------------------

class LebesgueAlgebra(Workload):
    """Summable algebra over x**2 interpolant schedules and polygonals.

    Three kinds, each at a precision where one query costs a similar
    fraction of a second at the seed commit (the node count of a combined
    schedule grows as 2**(p + 5), so the kinds need different p):

    * ``sum``: ``(a * x**2 + h).integral(p)`` against ``a/3 + integral(h)``;
    * ``lattice``: min, max and ``|f - g|`` of ``f = a * x**2`` and a
      polygonal ``g``, against ``int min + int max = int f + int g`` and
      ``int |f - g| = int max - int min``;
    * ``gap``: ``certify_l1_gap`` between two schedules of ``a * x**2``,
      with the returned grid index rechecked exactly.
    """

    KINDS = (("sum", 9), ("lattice", 7), ("gap", 8))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        blocks = POOL // len(self.KINDS)
        self.specs = []
        for kind, p in _shuffled_blocks(rng, list(self.KINDS), blocks):
            a = F(rng.randint(9, 16), 16)
            lip = F(rng.randint(8, 16), 8)
            self.specs.append((kind, p, a, lipschitz_polygonal(rng, lip)))

    def stream(self):
        size = len(self.KINDS)
        for start in itertools.cycle(range(0, len(self.specs), size)):
            # A fresh polygonal and fresh schedules per query: nothing is shared.
            yield [(kind, getattr(self, "_" + kind)(p, a, Polygonal(h.xs, h.vs)))
                   for kind, p, a, h in self.specs[start:start + size]]

    @staticmethod
    def _sum(p, a, h):
        def run():
            f = square_offset_summable().scale(a) + Summable.from_polygonal(h)
            value = f.integral(p)
            ok = abs(value - (a / 3 + h.integral())) <= pow2(-p)
            return ok, to_ratstr(value)
        return run

    @staticmethod
    def _lattice(p, a, h):
        def run():
            f = square_offset_summable().scale(a)
            g = Summable.from_polygonal(h)
            lo = f.min_with(g).integral(p)
            hi = f.max_with(g).integral(p)
            dist = (f - g).abs().integral(p)
            ok = (abs(lo + hi - (a / 3 + h.integral())) <= 2 * pow2(-p)
                  and abs(dist - (hi - lo)) <= 3 * pow2(-p))
            return ok, " ".join(to_ratstr(v) for v in (lo, hi, dist))
        return run

    @staticmethod
    def _gap(p, a, _h):
        def run():
            coarse = square_offset_summable().scale(a)
            base = square_offset_summable()
            fine = Summable(base.base, lambda n: base.term(n + 1),
                            name="square-fine").scale(a)
            bound = pow2(-p)
            k = certify_l1_gap(coarse, fine, bound)
            # Interpolants of a convex function decrease with refinement and
            # integral(I_n(x**2) - x**2) = 4**-n/6, so the two grids at index
            # k (levels k+1 and k+2) are exactly a * 4**-(k+1)/8 apart.
            exact = a * F(1, 4 ** (k + 1) * 8)
            return exact + pow2(-k + 2) < bound, str(k)
        return run


# -- net-ae --------------------------------------------------------------------

class NetAE(Workload):
    """Bridge sessions on indicators of seeded unions of open intervals.

    Endpoints alternate between dyadic and non-dyadic rationals, so the
    functions are undefined at non-trivial points and the net's sublevel
    sets, cell relation and realization fallbacks do real work.  Each
    session (one function, one ``Bridge`` from ``bridge_for``) runs three
    queries; every session is followed by ``point_in_pps`` realizations.
    """

    COMPONENTS = (1, 2, 3)
    SWEEP = range(2, 10)
    SWEEP_P = 8
    # to_lebesgue precision per component count.  The canonical modulus adds
    # ceil_log2(2c + 1/2) levels (2 for one component, 3 for two or three),
    # so these give every session's limit the same finest net, level 11, and
    # sessions of similar cost; one more bit doubles the session's net work.
    LEBESGUE_P = {1: 3, 2: 2, 3: 2}
    EQ_DEPTH, EQ_SAMPLES = 3, 8
    # Realizations intersect three rows, each avoiding two seeded points.
    PPS_ROWS, PPS_DEPTH, PPS_TARGET = 3, 16, 40
    # Two cheap realizations per session put the median among cheap queries
    # and the tail among the equality checks, away from a gap between costs.
    REALIZE_PER_SESSION = 2

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        blocks = POOL // len(self.COMPONENTS)
        self.sessions = []
        for c in _shuffled_blocks(rng, list(self.COMPONENTS), blocks):
            self.sessions.append((self._union(rng, c), c, rng.randrange(1 << 16)))
        self.ramp_misses = 0
        self.pps = []
        for _ in range(self.REALIZE_PER_SESSION * POOL):
            self.pps.append([sorted(F(k, 127) for k in rng.sample(range(1, 127), 2))
                             for _ in range(self.PPS_ROWS)])

    @staticmethod
    def _union(rng: random.Random, c: int) -> IntervalUnion:
        while True:
            ends = []
            for k in range(2 * c):
                if k % 2 == 0:
                    ends.append(F(rng.randint(1, 63), 64))
                else:
                    ends.append(F(rng.randint(1, 96), rng.choice((97, 99, 101))))
            if len(set(ends)) == 2 * c:
                ends.sort()
                return IntervalUnion([(ends[2 * i], ends[2 * i + 1])
                                      for i in range(c)])

    def _session(self, i: int):
        union, c, eq_seed = self.sessions[i % len(self.sessions)]
        # A fresh union object, so the function and its bridge are new.
        union = IntervalUnion(union.ivs)
        length = union.length
        f = char_of_interval_union(union, name=f"u{i}").characteristic.base
        state = {}

        def sweep():
            bridge = state["bridge"] = bridge_for(f)
            p = self.SWEEP_P
            ok, rows, prev = True, [], None
            for m in self.SWEEP:
                net = bridge.net(NetIndex.canonical(m))
                value = net.integral(p)
                ok &= abs(value - length) <= 2 * c * pow2(-m) + pow2(-p)
                row = [to_ratstr(value)]
                if prev is not None:
                    step = (net - prev).abs().integral(p)
                    ok &= -pow2(-p) <= step <= 2 * c * pow2(-(m - 1)) + pow2(-p)
                    row.append(to_ratstr(step))
                rows.append(",".join(row))
                prev = net
            return ok, ";".join(rows)

        def lebesgue():
            def modulus(eps):
                return NetIndex.canonical(ceil_log2((2 * c + F(1, 2)) / eps))

            p = self.LEBESGUE_P[c]
            g = state["g"] = state["bridge"].to_lebesgue(RiemannCertificate(modulus))
            value = g.integral(p)
            return abs(value - length) <= pow2(-p), to_ratstr(value)

        def equality():
            q = self.LEBESGUE_P[c]
            report = state["bridge"].equality_check(
                state["g"], n=self.EQ_DEPTH, samples=self.EQ_SAMPLES, q=q,
                seed=eq_seed)
            grid = state["g"].term(q + 2)   # the grid the check compared with
            misses = [row for row in report["sample_rows"] if not row["pass"]]
            ok = all(_plateau_agrees(grid, row) for row in misses)
            if ok:
                self.ramp_misses += len(misses)
            return ok, json.dumps(report, sort_keys=True)

        return [("sweep", sweep), ("lebesgue", lebesgue), ("equality", equality)]

    def notes(self) -> list:
        return [f"equality_check rows failing only on a grid ramp, where f "
                f"matches the net's plateau: {self.ramp_misses}"]

    def _realize(self, i: int):
        rows = self.pps[i % len(self.pps)]

        def run():
            seq = intersect_countable([point_avoiding_seq(r) for r in rows])
            w = point_in_pps(seq)
            depth = self.PPS_DEPTH
            prec = witness_precision(seq, depth, self.PPS_TARGET)
            ok, err = w.verify(seq, depth, prec)
            ok = ok and err <= pow2(-self.PPS_TARGET)
            return ok, to_ratstr(w.x.approx(prec))
        return run

    def stream(self):
        per = self.REALIZE_PER_SESSION
        for i in itertools.count():
            yield self._session(i) + [("realize", self._realize(per * i + j))
                                      for j in range(per)]


def _plateau_agrees(grid, row) -> bool:
    """Exact re-check of an ``equality_check`` row that missed ``2**-q``.

    The check compares f with the limit's grid approximant, a step profile
    whose linear ramps span ``2**-(q+6)`` of each cell at both ends.  A
    sample point on such a ramp misses the bound although f equals the
    limit there; the row is sound when its point is on a ramp and f equals
    the plateau value of the net cell that holds the point.
    """
    x, f_value = from_ratstr(row["point"]), from_ratstr(row["f"])
    cells = 1 << grid.level
    cell = min(int(x * cells), cells - 1)
    plateau = grid.coeffs[cell]
    return grid.eval(x) != plateau and f_value == plateau


WORKLOADS = {
    "net-lipschitz": NetLipschitz,
    "lebesgue-algebra": LebesgueAlgebra,
    "net-ae": NetAE,
}
