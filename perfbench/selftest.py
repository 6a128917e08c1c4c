"""Self-test of the benchmark's traced run and of its metric declarations.

    python3 perfbench/selftest.py [--seed N]

For every workload, runs the traced query prefix twice in fresh processes
and requires every work count (every per-layer metric that is not a time)
to repeat exactly, and every query to pass its check.  Also requires the
metric names and units that ``run.py`` prints to match ``BENCHMARK.json``.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import (DEFAULT_SEED, END_TO_END, ROOT, TRACED_LIMIT_S, WORKLOAD_NAMES,
                 spawn)
from tracer import METRICS

# One block of each workload's cost classes (for net-ae, one session and
# the realizations that follow it).
QUERIES = {"net-lipschitz": 3, "lebesgue-algebra": 3, "net-ae": 5}


def check_declarations() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    produced = {name: (unit, better) for name, unit, better in METRICS}
    if declared != produced:
        problems.append(f"per_layer in BENCHMARK.json {declared} != traced run {produced}")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != dict(END_TO_END):
        problems.append(f"end_to_end in BENCHMARK.json {declared} != {END_TO_END}")
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOAD_NAMES):
        problems.append(f"workloads in BENCHMARK.json {sorted(names)}")
    return problems


def check_counts(workload: str, seed: int) -> list:
    args = [workload, str(seed), "fixed", str(QUERIES[workload]), "--trace"]
    runs = [spawn(args, TRACED_LIMIT_S)[1] for _ in range(2)]
    problems = [f"{workload}: {f}" for run in runs for f in run["failures"]]
    first, second = (run["layers"] for run in runs)
    for name in first:
        if not name.endswith("self_s") and first[name] != second[name]:
            problems.append(f"{workload}: {name} {first[name]} then {second[name]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    problems = check_declarations()
    for workload in WORKLOAD_NAMES:
        problems += check_counts(workload, args.seed)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
