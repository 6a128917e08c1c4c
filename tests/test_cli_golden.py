"""CLI reports stay byte-identical: stdout and exit code against stored goldens.

Each case runs the command in-process and compares its stdout with
``tests/golden/<id>.out`` and its exit code with the one listed here.
Stderr is not compared.  A change that moves a golden must say so in
CHANGES.md; regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from almostfull.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BUMP = f"poly:{GOLDEN / 'bump.json'}"

CASES = [
    ("integrate-square-p12", ["integrate", "--function", "square",
                              "--precision", "12"], 0),
    ("integrate-square-p16", ["integrate", "--function", "square",
                              "--precision", "16"], 0),
    ("integrate-ae-step-net-p8", ["integrate", "--function", "ae-step",
                                  "--method", "riemann-net", "--precision", "8"], 0),
    ("integrate-identity-net-p4", ["integrate", "--function", "identity",
                                   "--method", "riemann-net", "--precision", "4"], 0),
    ("integrate-three-piece-net-p5", ["integrate", "--function", "three-piece",
                                      "--method", "riemann-net", "--precision", "5"], 0),
    ("integrate-identity-net-p12", ["integrate", "--function", "identity",
                                    "--method", "riemann-net", "--precision", "12"], 0),
    ("integrate-three-piece-net-p10", ["integrate", "--function", "three-piece",
                                       "--method", "riemann-net", "--precision", "10"], 0),
    ("integrate-poly-net-p5", ["integrate", "--function", BUMP, "--method",
                               "riemann-net", "--precision", "5"], 0),
    ("integrate-poly-csv", ["integrate", "--function", BUMP,
                            "--precision", "8", "--csv"], 0),
    ("integrate-char-upper-half-csv", ["integrate", "--function",
                                       "char-upper-half", "--precision", "12",
                                       "--csv"], 0),
    ("net-table-identity-json", ["net-table", "--function", "identity",
                                 "--m-min", "1", "--m-max", "5"], 0),
    ("net-table-ae-step-csv", ["net-table", "--function", "ae-step",
                               "--m-min", "2", "--m-max", "5", "--csv"], 0),
    ("verify-regularity-7", ["verify", "--suite", "regularity", "--seed", "7"], 0),
    ("verify-witnesses-3", ["verify", "--suite", "witnesses", "--seed", "3"], 0),
    ("verify-bridge-3", ["verify", "--suite", "bridge", "--seed", "3"], 0),
    ("verify-bridge-3-corrupt", ["verify", "--suite", "bridge", "--seed", "3",
                                 "--corrupt-catalog"], 1),
    ("integrate-osc-net-exit-3", ["integrate", "--function", "osc",
                                  "--method", "riemann-net"], 3),
    ("integrate-osc-lebesgue-exit-3", ["integrate", "--function", "osc",
                                       "--method", "lebesgue"], 3),
    ("net-table-osc-exit-3", ["net-table", "--function", "osc",
                              "--m-min", "1", "--m-max", "3"], 3),
]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case, argv, expected_code", CASES,
                         ids=[c[0] for c in CASES])
def test_report_matches_golden(case, argv, expected_code):
    code, out = run(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.out").read_text()


if __name__ == "__main__":
    for case, argv, expected_code in CASES:
        code, out = run(argv)
        if code != expected_code:
            sys.exit(f"{case}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{case}.out").write_text(out)
