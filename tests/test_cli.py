"""Command-line harness: formats, exit codes, determinism."""

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction

import pytest

from almostfull import Polygonal, cli, from_ratstr, pow2
from almostfull.cli import main
from almostfull.verify import run_suite
from almostfull.polygonal import StepPolygonal

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_identity_json(self, capsys):
        code, out, _ = run(capsys, "integrate", "--function", "identity",
                           "--precision", "10", "--method", "lebesgue")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["value"] == "1/2"
        assert report["error_bounds"]["value"] == "1/1024"
        assert report["prefix_depths"]["approximation_index"] == 0

    def test_square_precision_16(self, capsys):
        code, out, _ = run(capsys, "integrate", "--function", "square",
                           "--precision", "16")
        assert code == 0
        value = from_ratstr(json.loads(out)["results"]["value"])
        assert abs(value - F(1, 3)) <= pow2(-16)

    def test_step_riemann_net(self, capsys):
        code, out, _ = run(capsys, "integrate", "--function", "ae-step",
                           "--precision", "10", "--method", "riemann-net")
        assert code == 0
        value = from_ratstr(json.loads(out)["results"]["value"])
        assert abs(value - F(1, 2)) <= pow2(-10)

    @pytest.mark.parametrize("name", ["identity", "three-piece", "tent", "ae-step", "square"])
    def test_net_route_reads_step_profiles_in_closed_form(self, capsys, monkeypatch, name):
        # The net route needs only the closed forms a step profile keeps
        # (integral, eval, ramp_slack): none of its nodes is materialized.
        materialized = []
        nodes = StepPolygonal.__getattr__

        def spy(self, attr):
            materialized.append(attr)
            return nodes(self, attr)

        monkeypatch.setattr(StepPolygonal, "__getattr__", spy)
        code, _, _ = run(capsys, "integrate", "--function", name,
                         "--method", "riemann-net", "--precision", "8")
        assert (code, materialized) == (0, [])

    def test_unknown_function_exit_2(self, capsys):
        code, _, err = run(capsys, "integrate", "--function", "nope")
        assert code == 2
        assert "unknown function" in err

    @pytest.mark.parametrize("argv, reason", [
        (["integrate", "--function", "osc", "--method", "riemann-net"],
         "certificate"),
        (["integrate", "--function", "osc", "--method", "lebesgue"],
         "no summable representation"),
        (["net-table", "--function", "osc", "--m-min", "1", "--m-max", "3"],
         "no canonical net"),
    ], ids=["integrate-net", "integrate-lebesgue", "net-table"])
    def test_missing_certificate_exit_3(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("certification failure: ")
        assert reason in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "integrate", "--function", "tent",
                           "--precision", "8", "--csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "function,precision,method,value,error_bound"
        assert row.startswith("tent,8,lebesgue,")

    def test_no_floats_in_report(self, capsys):
        _, out, _ = run(capsys, "integrate", "--function", "square",
                        "--precision", "12")
        for token in json.loads(out)["results"].values():
            assert not isinstance(token, float)

    def test_polygonal_json_input(self, capsys, tmp_path):
        h = Polygonal.from_pairs([(0, 0), (F(1, 2), 1), (1, 0)])
        path = tmp_path / "bump.json"
        path.write_text(h.to_json())
        code, out, _ = run(capsys, "integrate", "--function", f"poly:{path}",
                           "--precision", "8")
        assert code == 0
        assert json.loads(out)["results"]["value"] == "1/2"

    @pytest.mark.parametrize("h, exact", [
        (Polygonal.constant(8), 8), (Polygonal.constant(100), 100),
        (Polygonal.from_pairs([(0, 0), (1, 32)]), 16),
    ], ids=["constant-8", "constant-100", "line-32x"])
    def test_net_route_on_large_values(self, capsys, tmp_path, h, exact):
        # A mean |value| of 8 or more once broke the net's own decay chain.
        path = tmp_path / "large.json"
        path.write_text(h.to_json())
        code, out, _ = run(capsys, "integrate", "--function", f"poly:{path}",
                           "--method", "riemann-net", "--precision", "4")
        assert code == 0
        assert abs(from_ratstr(json.loads(out)["results"]["value"]) - exact) <= pow2(-4)

    def test_timings_only_on_request(self, capsys):
        argv = ("integrate", "--function", "tent", "--precision", "8")
        code, plain, _ = run(capsys, *argv)
        assert code == 0 and "timings" not in json.loads(plain)
        code, timed, _ = run(capsys, *argv, "--timings")
        timed = json.loads(timed)
        timings = timed.pop("timings")
        assert code == 0 and timed == json.loads(plain)
        assert list(timings) == ["wall_ms"] and re.fullmatch(r"\d+/1", timings["wall_ms"])


class TestNetTable:
    def test_identity_rows(self, capsys):
        code, out, _ = run(capsys, "net-table", "--function", "identity",
                           "--m-min", "2", "--m-max", "6")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert [r["m"] for r in rows] == [2, 3, 4, 5, 6]
        for r in rows:
            assert abs(from_ratstr(r["integral"]) - F(1, 2)) <= pow2(-r["m"]) \
                + pow2(-(r["m"] + 2))
        for r in rows[1:]:
            assert from_ratstr(r["l1_step"]) < 2 * pow2(-(r["m"] - 1))

    def test_constant_rows_flat(self, capsys):
        code, out, _ = run(capsys, "net-table", "--function", "constant",
                           "--m-min", "1", "--m-max", "4", "--precision", "8")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        for r in rows:
            assert abs(from_ratstr(r["integral"]) - 1) <= pow2(-8)

    def test_step_table_monotone_toward_half(self, capsys):
        code, out, _ = run(capsys, "net-table", "--function", "ae-step",
                           "--m-min", "2", "--m-max", "5")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        for r in rows:
            assert abs(from_ratstr(r["integral"]) - F(1, 2)) <= pow2(-4)

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "net-table", "--function", "identity",
                         "--m-min", "3", "--m-max", "2")
        assert code == 2

    @pytest.mark.parametrize("c", [8, 100])
    def test_large_constant_rows_within_bound(self, capsys, tmp_path, c):
        path = tmp_path / f"c{c}.json"
        path.write_text(Polygonal.constant(c).to_json())
        code, out, _ = run(capsys, "net-table", "--function", f"poly:{path}",
                           "--m-min", "1", "--m-max", "3", "--precision", "10")
        assert code == 0
        for r in json.loads(out)["results"]["rows"]:
            assert abs(from_ratstr(r["integral"]) - c) <= pow2(-10)


class TestVerify:
    def test_all_suites_pass(self, capsys):
        for suite in ("regularity", "witnesses", "integrals", "bridge"):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "7")
            assert code == 0, suite
            assert json.loads(out)["results"]["ok"] is True

    @pytest.mark.parametrize("seed", [3, 7])
    def test_routes_agree(self, capsys, seed):
        code, out, _ = run(capsys, "verify", "--suite", "routes", "--seed", str(seed))
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert [c["name"] for c in checks] == [
            f"routes-{name}" for name in ("identity", "constant", "tent",
                                          "three-piece", "square", "ae-step")]
        assert all(c["ok"] for c in checks)

    def test_routes_catch_a_shifted_lebesgue_value(self, capsys, monkeypatch):
        from almostfull import Summable, verify
        from almostfull.catalog import get_entry

        def shifted(name):
            entry = get_entry(name)
            if name != "square":
                return entry
            # A quarter off: far outside the 2**-(p-2) the routes must agree to.
            return dataclasses.replace(
                entry, summable=entry.summable + Summable.constant(F(1, 4)))

        monkeypatch.setattr(verify, "get_entry", shifted)
        code, out, _ = run(capsys, "verify", "--suite", "routes", "--seed", "3")
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["results"]["checks"] if not c["ok"]]
        assert failed == ["routes-square"]

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope", "--seed", "1")
        assert code == 2

    def test_corrupted_catalog_fails_naming_invariant(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bridge", "--seed", "3",
                           "--corrupt-catalog")
        assert code == 1
        checks = json.loads(out)["results"]["checks"]
        failed = [c for c in checks if not c["ok"]]
        assert failed and "invariant" in failed[0]["detail"]

    @pytest.mark.parametrize("suite", ["regularity", "witnesses", "integrals", "routes"])
    def test_corrupt_catalog_refused_outside_bridge(self, capsys, suite):
        # Only the bridge suite injects a fault; elsewhere the flag would claim
        # a detection that never ran.
        code, out, err = run(capsys, "verify", "--suite", suite, "--corrupt-catalog")
        assert (code, out) == (2, "")
        assert err == "--corrupt-catalog applies to --suite bridge only\n"

    @pytest.mark.parametrize("suite", ["regularity", "witnesses", "integrals", "routes"])
    def test_run_suite_refuses_corrupt_outside_bridge(self, suite):
        with pytest.raises(ValueError, match="bridge suite only"):
            run_suite(suite, 0, corrupt=True)


class TestMalformedInput:
    RAMP = '[["0/1","0/1"],["1/1","1/1"]]'

    @pytest.mark.parametrize("poly, argv, budget", [
        ("not json", ["integrate"], None),
        ('[["x","1"],["1","0"]]', ["integrate"], None),
        ('[["0","1/0"],["1","0"]]', ["integrate"], None),
        ("[[0,1],[1,1]]", ["net-table", "--m-min", "1", "--m-max", "2"], None),
        (RAMP, ["integrate", "--precision", "-1"], None),
        (RAMP, ["net-table", "--m-min", "1", "--m-max", "2",
                "--precision", "-1"], None),
        (RAMP, ["integrate"], "abc"),
        ("[" * 5000, ["integrate"], None),
    ], ids=["not-json", "bad-integer", "zero-denominator", "bare-numbers",
            "negative-precision", "net-table-negative-precision", "bad-budget",
            "deep-nesting"])
    def test_exit_2_without_traceback(self, capsys, monkeypatch, tmp_path,
                                      poly, argv, budget):
        path = tmp_path / "shape.json"
        path.write_text(poly)
        if budget is not None:
            monkeypatch.setenv("ALMOSTFULL_BUDGET", budget)
        code, out, err = run(capsys, *argv, "--function", f"poly:{path}")
        assert code == 2
        assert out == ""
        assert err and "Traceback" not in err


class TestBudget:
    def test_exhaustion_exit_4(self, capsys, monkeypatch):
        monkeypatch.setenv("ALMOSTFULL_BUDGET", "1")
        code, _, err = run(capsys, "verify", "--suite", "witnesses",
                           "--seed", "7")
        assert code == 4
        assert "budget" in err.lower()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("p, expected_code", [(14000, 0), (14400, 4)])
    def test_report_past_the_digit_limit_exit_4(self, capsys, p, expected_code):
        # 2**-14400 has 4,335 digits, past the default limit of 4,300.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "integrate", "--function", "char-upper-half",
                                 "--precision", str(p))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == expected_code
        assert "Traceback" not in err
        if code == 0:
            report = json.loads(out)
            assert report["error_bounds"]["value"] == f"1/{1 << p}"
            assert abs(from_ratstr(report["results"]["value"]) - F(1, 2)) <= pow2(-p)
        else:
            assert out == "" and "4336 digits" in err


class TestDeterminism:
    def test_integrate_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "integrate", "--function", "tent",
                         "--precision", "9")
        _, out2, _ = run(capsys, "integrate", "--function", "tent",
                         "--precision", "9")
        assert out1 == out2

    def test_verify_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "integrals", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--suite", "integrals", "--seed", "7")
        assert out1 == out2

    def test_different_seed_changes_inputs_only(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "regularity", "--seed", "1")
        _, out2, _ = run(capsys, "verify", "--suite", "regularity", "--seed", "2")
        assert json.loads(out1)["results"]["ok"]
        assert json.loads(out2)["results"]["ok"]


class TestParser:
    def test_built_once_and_left_unchanged(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        try:
            calls = [("integrate", "--function", "identity", "--precision", "3"),
                     ("integrate", "--precision", "-1", "--function", "identity"),
                     ("net-table", "--help"), ("verify",)]
            first = [run(capsys, *argv) for argv in calls]
            assert [r[0] for r in first] == [0, 2, 0, 2]
            assert built.count("almostfull") == 1
            assert [run(capsys, *argv) for argv in calls] == first
            assert built.count("almostfull") == 1
        finally:
            cli._parser.cache_clear()
