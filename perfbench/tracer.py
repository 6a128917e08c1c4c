"""Span tracer for the traced benchmark run, installed from outside ``src/``.

``install()`` replaces the public functions of the library's layers with
wrappers that record a span per call (name, start, end, parent span, query
id) and count work at the same boundary.  A wrapped module-level function
is replaced in every ``almostfull`` module namespace that imported it, so
internal calls such as ``bridge.sublevel`` or ``aefunc.l1_distance`` are
seen; methods are wrapped on their class.  Spans stay in memory until
``write_spans``; a layer's self time is its span time minus the time of its
direct child spans.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# (name, unit, better) for every per-layer metric, in report order.
METRICS = (
    ("exact.creal_created", "count", "lower"),
    ("exact.rat_approx.calls", "count", "lower"),
    ("exact.rat_approx.self_s", "s", "lower"),
    ("polygonal.lattice.calls", "count", "lower"),
    ("polygonal.lattice.self_s", "s", "lower"),
    ("polygonal.lattice.nodes_out", "count", "lower"),
    ("polygonal.l1_distance.calls", "count", "lower"),
    ("polygonal.l1_distance.self_s", "s", "lower"),
    ("polygonal.l1_upper.calls", "count", "lower"),
    ("polygonal.step_function.cells", "count", "lower"),
    ("polygonal.sublevel.calls", "count", "lower"),
    ("polygonal.sublevel.self_s", "s", "lower"),
    ("regular.term.calls", "count", "lower"),
    ("regular.term.generated", "count", "lower"),
    ("regular.term.self_s", "s", "lower"),
    ("regular.point_avoiding_seq.points", "count", "lower"),
    ("regular.point_avoiding_seq.self_s", "s", "lower"),
    ("regular.realize_point.calls", "count", "lower"),
    ("regular.realize_point.self_s", "s", "lower"),
    ("aefunc.summable_term.calls", "count", "lower"),
    ("aefunc.summable_term.generated", "count", "lower"),
    ("aefunc.summable_term.self_s", "s", "lower"),
    ("aefunc.certify_l1_gap.calls", "count", "lower"),
    ("aefunc.certify_l1_gap.grid_steps", "count", "lower"),
    ("aefunc.certify_l1_gap.self_s", "s", "lower"),
    ("aefunc.gap_exact_fallbacks", "count", "lower"),
    ("bridge.net.calls", "count", "lower"),
    ("bridge.net.built", "count", "lower"),
    ("bridge.net.cells", "count", "lower"),
    ("bridge.net.max_level", "level", "lower"),
    ("bridge.net.self_s", "s", "lower"),
    ("bridge.zeta.calls", "count", "lower"),
    ("bridge.zeta.self_s", "s", "lower"),
    ("bridge.theta.calls", "count", "lower"),
    ("bridge.theta.pass_ratio", "ratio", "higher"),
    ("bridge.theta.self_s", "s", "lower"),
    ("bridge.gamma_union.self_s", "s", "lower"),
    ("bridge.equality_check.self_s", "s", "lower"),
    ("bridge.bridges_alive_end", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)

LATTICE_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "__abs__",
               "min_with", "max_with")


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, query id)
        self._open: list = []      # [span index, child time] per open span
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_level = 0
        self.query_id = -1
        self.bridges = weakref.WeakSet()

    def parent_name(self) -> str:
        return self.spans[self._open[-1][0]][0] if self._open else ""

    def wrap(self, name: str, fn, before=None, after=None, calls=True):
        """A wrapper recording one span per call of ``fn``.

        ``before(args)`` runs ahead of the call and its result is handed to
        ``after(state, args, result)``, so the two can count the work the
        call did.  With ``calls`` set, calls are counted as ``name.calls``.
        """
        spans, opened, self_s, counts = self.spans, self._open, self.self_s, self.counts
        calls_key = f"{name}.calls" if calls else None

        def wrapper(*args, **kwargs):
            if calls_key:
                counts[calls_key] += 1
            state = before(args) if before is not None else None
            parent = opened[-1][0] if opened else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, self.query_id))
            frame = [index, 0.0]
            opened.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened.pop()
                took = end - start
                self_s[name] += took - frame[1]
                if opened:
                    opened[-1][1] += took
                spans[index] = (name, start, end, parent, self.query_id)
            if after is not None:
                after(state, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        """Every per-layer metric except the overhead ratio, which needs an
        untraced run to compare against."""
        gc.collect()
        calls = self.counts["bridge.theta.calls"]
        special = {
            "bridge.net.max_level": self.max_level,
            "bridge.theta.pass_ratio": (self.counts["bridge.theta.passes"] / calls
                                        if calls else 0.0),
            "bridge.bridges_alive_end": len(self.bridges),
        }
        values = {}
        for name, _, _ in METRICS:
            if name in special:
                values[name] = special[name]
            elif name.endswith(".self_s"):
                values[name] = self.self_s[name[:-len(".self_s")]]
            elif name != "trace_overhead_ratio":
                values[name] = self.counts[name]
        return values

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, query id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _replace_everywhere(original, wrapped) -> None:
    """Rebind every module attribute that is ``original``: the library's own
    modules and the benchmark's, wherever the name was imported."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for attr in [k for k, v in list(namespace.items()) if v is original]:
            setattr(module, attr, wrapped)


def install() -> Tracer:
    """Wrap the layer boundaries of the imported library; return the tracer."""
    from almostfull import aefunc, bridge, cli, exact, polygonal, regular

    t = Tracer()
    counts = t.counts

    def function(module, attr, name, **hooks):
        original = getattr(module, attr)
        _replace_everywhere(original, t.wrap(name, original, **hooks))

    def method(cls, attr, name, **hooks):
        setattr(cls, attr, t.wrap(name, getattr(cls, attr), **hooks))

    def counting_generator(cls, position, key):
        """Count calls of the term generator handed to ``cls``'s constructor."""
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            args = list(args)
            gen = args[position]

            def counted(n):
                counts[key] += 1
                return gen(n)

            args[position] = counted
            init(self, *args, **kwargs)

        cls.__init__ = wrapper

    # exact: certified reals and per-cell sampling.
    creal_init = exact.CReal.__init__

    def creal_counted(self, fn):
        counts["exact.creal_created"] += 1
        creal_init(self, fn)

    exact.CReal.__init__ = creal_counted
    function(exact, "rat_approx", "exact.rat_approx")

    # polygonal: lattice merges, L1 distances, step profiles, sublevel sets.
    def nodes_out(state, args, result):
        counts["polygonal.lattice.nodes_out"] += len(result.xs)

    for op in LATTICE_OPS:
        method(polygonal.Polygonal, op, "polygonal.lattice", after=nodes_out)

    def directly_under_gap(key):
        def before(args):
            if t.parent_name() == "aefunc.certify_l1_gap":
                counts[key] += 1
        return before

    function(polygonal, "l1_distance", "polygonal.l1_distance",
             before=directly_under_gap("aefunc.gap_exact_fallbacks"))
    # certify_l1_gap asks for the cheap bound exactly once per grid step.
    function(polygonal, "l1_upper", "polygonal.l1_upper",
             before=directly_under_gap("aefunc.certify_l1_gap.grid_steps"))
    step_function = polygonal.step_function

    def step_counted(coeffs, m, j):
        counts["polygonal.step_function.cells"] += len(coeffs)
        return step_function(coeffs, m, j)

    _replace_everywhere(step_function, step_counted)
    function(polygonal, "sublevel", "polygonal.sublevel")

    # regular: term generation, avoidance sequences, point realization.
    counting_generator(regular.RegularSeq, 0, "regular.term.generated")
    method(regular.RegularSeq, "term", "regular.term")

    def avoided(args):
        counts["regular.point_avoiding_seq.points"] += len(args[0])

    function(regular, "point_avoiding_seq", "regular.point_avoiding_seq",
             before=avoided)
    function(regular, "realize_point", "regular.realize_point")
    # A realized point bisects lazily, when first approximated; that walk is
    # realization work, so it is timed under the same name.
    method(regular._Bisection, "refine_to", "regular.realize_point", calls=False)

    # aefunc: Summable term generation and L1 gap certification.
    counting_generator(aefunc.Summable, 1, "aefunc.summable_term.generated")
    method(aefunc.Summable, "term", "aefunc.summable_term")
    function(aefunc, "certify_l1_gap", "aefunc.certify_l1_gap")

    # bridge: nets, sample points, the cell relation, conversion checks.
    bridge_init = bridge.Bridge.__init__

    def register(self, *args, **kwargs):
        bridge_init(self, *args, **kwargs)
        t.bridges.add(self)

    bridge.Bridge.__init__ = register

    def net_before(args):
        bridge_obj, alpha = args[0], args[1]
        return alpha not in bridge_obj._nets   # memo miss: this call builds

    def net_after(fresh, args, result):
        if fresh:
            alpha = args[1]
            counts["bridge.net.built"] += 1
            counts["bridge.net.cells"] += len(alpha.cells)
            t.max_level = max(t.max_level, alpha.level)

    method(bridge.Bridge, "net", "bridge.net", before=net_before, after=net_after)
    method(bridge.Bridge, "zeta", "bridge.zeta")

    def theta_after(state, args, result):
        counts["bridge.theta.passes"] += bool(result)

    method(bridge.Bridge, "theta", "bridge.theta", after=theta_after)
    method(bridge.Bridge, "gamma_union", "bridge.gamma_union", calls=False)
    method(bridge.Bridge, "equality_check", "bridge.equality_check", calls=False)

    # cli: argument parsing, report assembly and serialization.
    function(cli, "main", "cli.main", calls=False)
    return t
