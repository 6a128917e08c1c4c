"""The benchmark's span tracer still attaches to the library.

``perfbench/tracer.py`` wraps a fixed set of library attributes (Bridge
methods and its net memo, whose misses count as net builds, Summable and RegularSeq constructors by the
position of their generator argument, the bisection walk, and module
functions such as ``rat_approx``, ``sublevel`` and ``cli.main``).  A
refactor that renames or inlines one of them must fail here rather than in
a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from almostfull import cli

t = tracer.install()


def traced(function, keys):
    t.counts.clear()
    code = cli.main(["integrate", "--function", function, "--precision", "2",
                     "--method", "riemann-net"])
    assert code == 0, code
    for key in keys:
        assert t.counts[key] > 0, (function, key)


# square has no values_at: every cell takes zeta and a generic certified real.
traced("square", ("bridge.net.calls", "bridge.net.built", "bridge.zeta.calls",
                   "exact.creal_created", "exact.rat_approx.calls",
                   "aefunc.summable_term.generated", "regular.term.generated",
                   "polygonal.step_function.cells"))
# tent samples a polygonal at rational points: the exact sampling path, one
# values_at call per net and no approximation.
traced("tent", ("polygonal.step_function.cells", "polygonal.l1_upper.calls",
                "bridge.net.built"))

# A repeated request is a memo hit: it counts as a call, not as a build.
from almostfull import AEFunction, Bridge, NetIndex, Polygonal

t.counts.clear()
bridge = Bridge(AEFunction.from_polygonal(Polygonal.identity(), name="twice"))
first = bridge.net(NetIndex.canonical(3))
assert bridge.net(NetIndex.canonical(3)) is first
assert t.counts["bridge.net.calls"] == 2, dict(t.counts)
assert t.counts["bridge.net.built"] == 1, dict(t.counts)
assert t.counts["bridge.net.cells"] == 8, dict(t.counts)
"""


def test_tracer_installs_against_src():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
