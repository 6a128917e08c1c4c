"""Command-line harness: integrate, net-table, verify.

Exit codes: 0 success, 1 suite failure, 2 input error, 3 certification
failure, 4 budget exhausted.  Reports are emitted as canonical JSON (or CSV
for tables) with every rational rendered as a ``"p/q"`` string; fixed
command and seed give byte-identical output.  ``ALMOSTFULL_BUDGET`` caps
every bounded search.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .bridge import NetIndex, bridge_for
from .catalog import CATALOG_NAMES, get_entry, poly_entry
from .errors import BudgetExhausted, CertificationError, RegularityError
from .exact import budget_cap, pow2, to_ratstr
from .polygonal import Polygonal
from .reports import RunReport, rows_to_csv
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CERT = 3
EXIT_BUDGET = 4


class InputError(Exception):
    """Malformed command-line input, reported with exit code 2."""


def _load_entry(name: str):
    if not name.startswith("poly:"):
        try:
            return get_entry(name)
        except KeyError:
            raise InputError(f"unknown function: {name}") from None
    path = Path(name[5:])
    if not path.exists():
        raise InputError(f"unknown function: {name}")
    try:
        h = Polygonal.from_json(path.read_text())
    except (OSError, ValueError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise InputError(f"malformed polygonal {path}: {exc}") from None
    return poly_entry(path.stem, h, f"polygonal loaded from {path}")


def _check_budget() -> None:
    try:
        budget_cap(1)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def nonnegative(text: str) -> int:
    """Argument type of precision exponents."""
    p = int(text)
    if p < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {p}")
    return p


def cmd_integrate(args) -> int:
    entry = _load_entry(args.function)
    p = args.precision
    started = time.monotonic()
    report = RunReport(
        command="integrate",
        inputs={"function": entry.name, "precision": p, "method": args.method},
    )
    if args.method == "lebesgue":
        if entry.summable is None:
            raise CertificationError(
                f"entry {entry.name} has no summable representation")
        g = entry.summable
    else:
        if entry.certificate is None:
            raise CertificationError(
                f"entry {entry.name} carries no certificate for the net route")
        g = bridge_for(entry.function).to_lebesgue(entry.certificate)
    n, tail = g.integral_index(p)
    value = g.term(n).integral()
    report.prefix_depths["approximation_index"] = n
    if args.method == "lebesgue":
        report.error_bounds["approximation_tail"] = to_ratstr(tail)
    else:
        report.prefix_depths["net_sequence_index"] = n + 2
    report.results["value"] = to_ratstr(value)
    report.error_bounds["value"] = to_ratstr(pow2(-p))
    if entry.expected is not None:
        report.results["expected"] = to_ratstr(entry.expected)
        report.results["expected_note"] = entry.expected_note
    if args.timings:
        ms = int((time.monotonic() - started) * 1000)
        report.timings = {"wall_ms": f"{ms}/1"}
    if args.format == "csv":
        sys.stdout.write(rows_to_csv(
            ["function", "precision", "method", "value", "error_bound"],
            [[entry.name, p, args.method, to_ratstr(value), to_ratstr(pow2(-p))]]))
    else:
        sys.stdout.write(report.to_json())
    return EXIT_OK


def cmd_net_table(args) -> int:
    entry = _load_entry(args.function)
    if args.m_min < 1 or args.m_max < args.m_min:
        raise InputError("need 1 <= m-min <= m-max")
    if entry.certificate is None and entry.summable is None:
        raise CertificationError(f"entry {entry.name} supports no canonical net")
    p = args.precision
    bridge = bridge_for(entry.function)
    rows = []
    prev = None
    for m in range(args.m_min, args.m_max + 1):
        net = bridge.net(NetIndex.canonical(m))
        value = net.integral(p)
        if prev is None:
            diff = ""
        else:
            diff = to_ratstr((net - prev).abs().integral(p))
        rows.append([m, to_ratstr(value), diff])
        prev = net
    if args.format == "csv":
        sys.stdout.write(rows_to_csv(["m", "integral", "l1_step"], rows))
    else:
        report = RunReport(
            command="net-table",
            inputs={"function": entry.name, "m_min": args.m_min,
                    "m_max": args.m_max, "precision": p},
            results={"rows": [{"m": r[0], "integral": r[1], "l1_step": r[2]}
                              for r in rows]},
            error_bounds={"integral": to_ratstr(pow2(-p))},
            prefix_depths={"approximation_index": prev.integral_index(p)[0]},
        )
        sys.stdout.write(report.to_json())
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise InputError(f"unknown suite: {args.suite}; choose from {sorted(SUITES)}")
    if args.corrupt_catalog and args.suite != "bridge":
        raise InputError("--corrupt-catalog applies to --suite bridge only")
    checks = run_suite(args.suite, args.seed, corrupt=args.corrupt_catalog)
    ok = all(c.ok for c in checks)
    report = RunReport(
        command="verify",
        inputs={"suite": args.suite, "seed": args.seed,
                "corrupt_catalog": bool(args.corrupt_catalog)},
        results={
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in checks],
            "ok": ok,
        },
    )
    sys.stdout.write(report.to_json())
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almostfull",
        description="exact constructive integration on the unit interval")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="integrate a catalog function")
    p_int.add_argument("--function", required=True,
                       help=f"one of {', '.join(CATALOG_NAMES)} or poly:PATH")
    p_int.add_argument("--precision", type=nonnegative, default=10,
                       help="precision exponent p; result certified to 2^-p")
    p_int.add_argument("--method", choices=("lebesgue", "riemann-net"),
                       default="lebesgue")
    p_int.add_argument("--json", dest="format", action="store_const",
                       const="json", default="json")
    p_int.add_argument("--csv", dest="format", action="store_const", const="csv")
    p_int.add_argument("--timings", action="store_true",
                       help="attach wall-clock timings (breaks determinism)")
    p_int.set_defaults(fn=cmd_integrate)

    p_net = sub.add_parser("net-table", help="tabulate canonical net integrals")
    p_net.add_argument("--function", required=True)
    p_net.add_argument("--m-min", type=int, required=True)
    p_net.add_argument("--m-max", type=int, required=True)
    p_net.add_argument("--precision", type=nonnegative, default=10)
    p_net.add_argument("--json", dest="format", action="store_const",
                       const="json", default="json")
    p_net.add_argument("--csv", dest="format", action="store_const", const="csv")
    p_net.set_defaults(fn=cmd_net_table)

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("--suite", required=True,
                       help=f"one of {', '.join(sorted(SUITES))}")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--corrupt-catalog", action="store_true",
                       help="bridge suite only: inject a fault to show detection")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


# One parser per process: parsing reads it and never changes it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        _check_budget()
        return args.fn(args)
    except InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CertificationError, RegularityError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
