"""Certified-query benchmark for ``almostfull``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Workloads (see ``workloads.py``): ``net-lipschitz``, ``lebesgue-algebra``,
``net-ae``.  Each runs in fresh worker processes (``worker.py``) as a closed
loop with one client: one thread, and each query starts when the previous
one has returned.

``--trace 0`` measures end to end with no tracing: set-up time (median of
several fresh processes, each timed from spawn until the library is
imported and the inputs are generated), then queries until they have taken
S seconds.  Query times are normalized for the host's speed
(``hostspeed.py``): each is scaled by how long a fixed calibration slice,
timed just before and just after it, took against a reference host.
``--trace 1`` runs a fixed, seeded prefix of the query stream twice, in two
fresh processes, first untraced and then with the span tracer
(``tracer.py``) installed, and reports the per-layer metrics plus the
ratio of their normalized query times as ``trace_overhead_ratio``.

Every query is checked exactly against a reference, and the first query is
run a second time on fresh objects and must give byte-identical output; a
miss counts as a failed query.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("net-lipschitz", "lebesgue-algebra", "net-ae")
DEFAULT_SEED = 1
# Claims must also hold on this seed, which no tuning of the benchmark used.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 11
END_TO_END = (("setup_s", "s"), ("query_p50_s", "s"), ("query_tail_s", "s"),
              ("queries_per_s", "1/s"), ("peak_rss_mb", "MB"))
# Queries in a traced run: whole blocks of each workload's cost classes
# (for net-ae, two rounds of sessions with one, two and three components).
TRACED_QUERIES = {"net-lipschitz": 24, "lebesgue-algebra": 24, "net-ae": 30}
# Worker time limits, so one run ends well within 180 s.
SETUP_LIMIT_S = 20
TIMED_GRACE_S = 60
TRACED_LIMIT_S = 80


class BenchError(Exception):
    pass


def spawn(args: list, limit_s: float):
    """Run one worker; return (seconds until its ready line, its result)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith('{"ready": true}'):
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def tail(times: list):
    """Highest whole percentile with at least ten samples above it.

    Returns ``(value, percentile, samples above)`` using nearest-rank
    percentiles; with fewer than eleven samples no percentile qualifies and
    the maximum is reported as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def end_to_end(workload: str, seed: int, seconds: int):
    # Set-up samples before and after the timed phase, so that the median
    # spans more than one of the host's slow or fast spells.
    setups = [spawn([workload, str(seed), "setup"], SETUP_LIMIT_S)[0]
              for _ in range(SETUP_SAMPLES // 2)]
    setup_s, res = spawn([workload, str(seed), "timed", str(seconds)],
                         2 * seconds + TIMED_GRACE_S)
    setups.append(setup_s)
    setups += [spawn([workload, str(seed), "setup"], SETUP_LIMIT_S)[0]
               for _ in range(SETUP_SAMPLES // 2)]
    times, raw = res["norm_times"], res["times"]
    tail_s, tail_pct, beyond = tail(times)
    failed = len(res["failures"])
    by_kind = {}
    for kind, t in zip(res["kinds"], times):
        by_kind.setdefault(kind, []).append(t)
    values = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(times),
        "query_tail_s": tail_s,
        "queries_per_s": len(times) / math.fsum(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    speed = hostspeed.REFERENCE_SLICE_S / statistics.median(res["slices"])
    notes = [
        f"queries: {len(times)}, {math.fsum(times):.3f} s normalized, "
        f"{math.fsum(raw):.3f} s wall; closed loop, 1 client",
        f"host speed vs reference (median of {len(res['slices'])} slices): {speed:.3f}",
        f"wall-clock query p50 {statistics.median(raw):.4f} s",
        f"query_tail_s is p{tail_pct} of {len(times)} samples ({beyond} beyond it)",
        f"fail_ratio: {failed}/{res['attempted']} = {failed / res['attempted']:.4f}",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
        "median s by kind: " + ", ".join(
            f"{kind} {statistics.median(ts):.4f}" for kind, ts in by_kind.items()),
        *res["notes"],
    ]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, res["attempted"], res["failures"], notes


def per_layer(workload: str, seed: int):
    count = str(TRACED_QUERIES[workload])
    _, plain = spawn([workload, str(seed), "fixed", count], TRACED_LIMIT_S)
    _, traced = spawn([workload, str(seed), "fixed", count, "--trace"],
                      TRACED_LIMIT_S)
    values = dict(traced["layers"])
    values["trace_overhead_ratio"] = (math.fsum(traced["norm_times"])
                                      / math.fsum(plain["norm_times"]))
    metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
    notes = [
        f"traced prefix: {count} queries; untraced {math.fsum(plain['times']):.3f} s, "
        f"traced {math.fsum(traced['times']):.3f} s wall",
        f"spans: .perfbench_work/spans-{workload}-seed{seed}.jsonl.gz",
        *traced["notes"],
    ]
    attempted = plain["attempted"] + traced["attempted"]
    return metrics, attempted, plain["failures"] + traced["failures"], notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "almostfull" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, attempted, failures, notes = per_layer(args.workload, args.seed)
        else:
            metrics, attempted, failures, notes = end_to_end(
                args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + failures:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
