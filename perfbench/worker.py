"""One workload process: set up, run queries as one closed-loop client, report.

Usage (spawned by ``run.py``; each call is a fresh interpreter):

    python3 perfbench/worker.py WORKLOAD SEED setup
    python3 perfbench/worker.py WORKLOAD SEED timed SECONDS
    python3 perfbench/worker.py WORKLOAD SEED fixed QUERIES [--trace]

Every mode imports the library from the checkout's ``src/`` and generates
the seeded inputs, then prints a ``{"ready": true}`` line; the time to that
line is the set-up time.  ``timed`` runs queries back to back, ending at the
first block boundary after SECONDS of normalized query time
(``hostspeed.py``); ``fixed`` runs exactly the first QUERIES queries of the
stream, so its work counts repeat exactly for a seed.  Both time a host-speed
slice before the first query and after every query, re-run the stream's
first query on fresh objects, require the same output byte for byte, and
print one JSON result line.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def import_library() -> None:
    """Import ``almostfull`` from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import almostfull

    if Path(almostfull.__file__).resolve().parent != src / "almostfull":
        raise SystemExit(f"almostfull imported from {almostfull.__file__}, "
                         f"not from {src}")


def run_query(run):
    """``(ok, output)`` of one query; an exception is a failed query."""
    try:
        return run()
    except Exception as exc:   # every failure is counted, none is retried
        return False, f"{type(exc).__name__}: {exc}"


def run_queries(blocks, budget, seconds, tracer):
    """Run the stream's queries back to back, at most ``budget`` of them or,
    given ``seconds``, whole blocks until the queries' normalized time has
    reached it (or their wall time has reached twice that, on a host far
    slower than the reference).  A host-speed slice is timed before the
    first query and after each one; a query's normalized time uses the
    slices on either side of it."""
    times, norm, kinds, failures, first_output = [], [], [], [], None
    slices = [hostspeed.slice_s()]
    while budget is None or len(times) < budget:
        if seconds is not None and times and (
                sum(norm) >= seconds or sum(times) >= 2 * seconds):
            break
        for kind, run in next(blocks):
            if budget is not None and len(times) == budget:
                break
            if tracer is not None:
                tracer.query_id = len(times)
            t0 = time.perf_counter()
            ok, output = run_query(run)
            times.append(time.perf_counter() - t0)
            slices.append(hostspeed.slice_s())
            norm.append(hostspeed.normalize(times[-1], slices[-2:]))
            kinds.append(kind)
            if first_output is None:
                first_output = output
            if not ok:
                failures.append(f"query {len(times) - 1} ({kind}): {output[:300]}")
    return times, norm, slices, kinds, failures, first_output


def main(argv: list) -> int:
    workload_name, seed, mode = argv[0], int(argv[1]), argv[2]
    import_library()
    from workloads import WORKLOADS

    workdir = WORK / f"inputs-{os.getpid()}"
    try:
        workload = WORKLOADS[workload_name](seed, workdir)
        print(json.dumps({"ready": True}), flush=True)
        if mode == "setup":
            return 0
        tracer = None
        if "--trace" in argv:
            import tracer as tracing
            tracer = tracing.install()

        if mode == "timed":
            budget, seconds = None, float(argv[3])
        else:
            budget, seconds = int(argv[3]), None
        times, norm, slices, kinds, failures, first_output = run_queries(
            workload.stream(), budget, seconds, tracer)
        result = {"times": times, "norm_times": norm, "slices": slices,
                  "kinds": kinds,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(WORK / f"spans-{workload_name}-seed{seed}.jsonl.gz")

        # Determinism: the first query again, on fresh objects, byte for byte.
        ok, output = run_query(next(workload.stream())[0][1])
        if not ok or output != first_output:
            failures.append("determinism: the first query's output changed "
                            "on a second run")
        result["attempted"] = len(times) + 1
        result["failures"] = failures
        result["notes"] = workload.notes()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip the interpreter's teardown of the heap the queries left behind.
    os._exit(code)
