"""CLI contract tests: exit codes, deterministic output, CSV/JSON schema."""
import atexit
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qbound
from qbound import bounds, q
from qbound.cli import CSV_FIELDS, main, make_record

# the environment of a child interpreter that imports this qbound: stdout
# block-buffered, as it is where PYTHONUNBUFFERED is not set, so that a byte
# left unflushed is a byte lost
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
CHILD_ENV.update(PYTHONPATH=str(Path(qbound.__file__).resolve().parents[1]))


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def count_calls(monkeypatch, module, name):
    """The list that every call to module.name appends to, from here on."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestEval:
    def test_basic_row(self):
        code, text = run_cli("eval", "--x", "1", "--kappa", "2")
        assert code == 0
        assert "q_ref = 0.15865525393145705" in text
        assert "rel_gap = 0.099192730052052938" in text

    def test_trivial_kappa(self):
        code, text = run_cli("eval", "--x", "0", "--kappa", "1", "--format", "json")
        assert code == 0
        rec = json.loads(text)[0]
        assert rec["g_lower"] == 0.0
        assert rec["q_ref"] == 0.5

    def test_kappa_below_one_exits_2(self):
        code, _ = run_cli("eval", "--x", "1", "--kappa", "0.5")
        assert code == 2

    def test_kappa_checked_before_x(self, capsys):
        assert run_cli("eval", "--x", "nan", "--kappa", "0.5") == (2, "")
        assert capsys.readouterr().err == "error: kappa must be >= 1, got 0.5\n"

    def test_nonfinite_x_exits_2(self):
        code, _ = run_cli("eval", "--x", "inf", "--kappa", "2")
        assert code == 2

    def test_json_matches_api(self):
        code, text = run_cli("eval", "--x", "2.5", "--kappa", "3", "--format", "json")
        rec = json.loads(text)[0]
        assert rec["q_ref"] == q(2.5)
        assert rec["g_lower"] == bounds.g_lower(2.5, 3.0)

    def test_rel_gap_where_q_underflows(self):
        # below the smallest normal double the gap is 1 - r/R, frozen from mpmath
        for x, gap in [
            ("38.0", 0.41678109871715955),  # Q subnormal, ~21 significant bits
            ("38.4", 0.41155022073879299),  # Q subnormal, 4 significant bits
            ("40", 0.39089626811354069),  # Q underflows to 0
        ]:
            code, text = run_cli("eval", "--x", x, "--kappa", "1.0001", "--format", "json")
            assert code == 0
            rec = json.loads(text)[0]
            assert rec["q_ref"] < sys.float_info.min
            assert rec["rel_gap"] == pytest.approx(gap, rel=1e-13), x


    def test_rel_gap_in_the_normal_tail(self):
        # Q is normal at 37.5, but (Q - g)/Q carries the rounding of x*x in
        # both exponentials (1.4e-13 off); frozen from mpmath
        code, text = run_cli("eval", "--x", "37.5", "--kappa", "1.0001", "--format", "json")
        assert code == 0
        rec = json.loads(text)[0]
        assert rec["q_ref"] > sys.float_info.min
        assert rec["rel_gap"] == pytest.approx(0.42335698215619147, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("x", ["1", "-3", "25", "40"])
    def test_text_and_json_are_the_scalar_row(self, x):
        # -3 has the nan Boyd and Chernoff columns, 25 rel_gap's tail form
        # with Q normal, 40 a Q of 0
        [row] = TestTable.scalar_rows([float(x)], [2.0])
        assert run_cli("eval", "--x", x, "--kappa", "2") == (
            0, "".join(f"{name} = {row[name]:.17g}\n" for name in CSV_FIELDS))
        assert run_cli("eval", "--x", x, "--kappa", "2", "--format", "json") == (
            0, json.dumps([row], indent=2) + "\n")


class TestJsonWriter:
    """Every --format json output is json.dumps(records, indent=2) + a newline."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--x", "1", "--kappa", "2"),
        ("eval", "--x", "-3", "--kappa", "1"),
        ("optimize", "pointwise", "--x", "2"),
        ("optimize", "weight", "--kappa", "2"),
        ("optimize", "interval", "--x-lo", "1", "--x-hi", "3"),
        ("roots", "--kappa", "2"),
        ("verify", "theorem", "--x-max", "40"),
        ("verify", "all", "--x-count", "101"),
        ("table", "--x-min", "-1", "--x-max", "40", "--x-count", "11",
         "--kappa", "1", "--kappa", "2"),
    ], ids="_".join)
    def test_same_bytes_as_json_module(self, argv):
        code, text = run_cli(*argv, "--format", "json")
        assert code == 0
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_table_floats_spelled_as_json_module(self):
        # no table reaches an infinity, but its renderer spells one as json does
        values = [math.nan, math.inf, -math.inf, 0.1, -0.0, 5e-324, 1e300]
        assert qbound.cli._spell(values, "json") == [json.dumps(v) for v in values]


class TestTable:
    def test_row_count(self):
        code, text = run_cli(
            "table", "--x-min", "0", "--x-max", "5", "--x-count", "6", "--kappa", "2"
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 7  # header + 6 rows

    # 0.5 steps over [-4, 4]: negative x (the nan columns), x = 0 and kappa = 1
    GRID = ("--x-min", "-4", "--x-max", "4", "--x-count", "17",
            "--kappa", "1", "--kappa", "1.5", "--kappa", "3")
    # one kappa, two x: the nan columns, and rel_gap's tail form where Q is 0
    ONE_KAPPA = ("--x-min", "-1", "--x-max", "40", "--x-count", "2", "--kappa", "2")

    @staticmethod
    def scalar_rows(xs=tuple(np.linspace(-4.0, 4.0, 17).tolist()), kappas=(1.0, 1.5, 3.0)):
        """The table of xs and kappas, row by row from the scalar API; by
        default the GRID table."""
        rows = []
        for x in xs:
            for kappa in kappas:
                qx, gx = q(x), bounds.g_lower(x, kappa)
                pos = x >= 0.0
                rows.append({
                    "x": x,
                    "kappa": kappa,
                    "q_ref": qx,
                    "g_lower": gx,
                    "boyd_lower_q": bounds.boyd_lower_q(x) if pos else math.nan,
                    "chernoff_upper": bounds.chernoff_upper(x) if pos else math.nan,
                    "rel_gap": bounds.rel_gap(x, kappa) if x > 20.0 else (qx - gx) / qx,
                })
        return rows

    @staticmethod
    def csv_text(rows):
        """rows written as the CSV table: the header, then each field as %.17g."""
        lines = [",".join(CSV_FIELDS)] + [",".join(f"{r[f]:.17g}" for f in CSV_FIELDS) for r in rows]
        return "\n".join(lines) + "\n"

    def test_csv_same_bytes_as_the_scalar_rows(self):
        code, text = run_cli("table", *self.GRID)
        assert code == 0
        expected = self.scalar_rows()
        assert len(expected) == 51
        assert any(row["x"] == 0.0 for row in expected)
        assert text == self.csv_text(expected)

    def test_json_same_bytes_as_json_module(self):
        code, text = run_cli("table", *self.GRID, "--format", "json")
        assert code == 0
        assert text == json.dumps(self.scalar_rows(), indent=2) + "\n"

    def test_one_kappa_and_two_x(self):
        expected = self.scalar_rows([-1.0, 40.0], [2.0])
        assert q(40.0) == 0.0 and math.isnan(expected[0]["boyd_lower_q"])
        assert run_cli("table", *self.ONE_KAPPA) == (0, self.csv_text(expected))
        assert run_cli("table", *self.ONE_KAPPA, "--format", "json") == (
            0, json.dumps(expected, indent=2) + "\n")

    def test_ordering_bounds_on_rows(self):
        _, text = run_cli(
            "table", "--x-min", "0", "--x-max", "8", "--x-count", "30", "--kappa", "2"
        )
        for row in csv.DictReader(io.StringIO(text)):
            assert float(row["g_lower"]) <= float(row["q_ref"]) <= float(
                row["chernoff_upper"]
            )

    def test_deterministic(self):
        a = run_cli("table", "--x-min", "0", "--x-max", "3", "--x-count", "7", "--kappa", "2")
        b = run_cli("table", "--x-min", "0", "--x-max", "3", "--x-count", "7", "--kappa", "2")
        assert a == b

    def test_log_spacing_needs_positive_min(self):
        code, _ = run_cli(
            "table", "--spacing", "log", "--x-min", "0", "--x-max", "5",
            "--x-count", "6", "--kappa", "2",
        )
        assert code == 2

    def test_one_pass_per_x_grid(self, monkeypatch):
        # Boyd and Chernoff depend on x alone: one call each for the default
        # grid's ten kappas, and one _q_and_g call for Q and a g row per
        # kappa, with no g_lower call beside it
        calls = [count_calls(monkeypatch, module, name) for module, name in [
            (qbound.cli, "make_record"), (bounds, "_q_and_g"), (bounds, "boyd_lower_q"),
            (bounds, "chernoff_upper"), (bounds, "g_lower"),
        ]]
        assert run_cli("table")[0] == 0
        assert [len(c) for c in calls] == [1, 1, 1, 1, 0]
        assert [k.kappa for k in calls[1][0][1]] == list(qbound.verify.DEFAULT_KAPPAS)

    def test_record_holds_each_field_once(self):
        # each field in its own shape, no (n, K, 7) block: the peak stays
        # below 6 copies of g_lower's (n, K) field
        xs = np.linspace(-10.0, 10.0, 20001)
        make_record(xs[:2], qbound.verify.DEFAULT_KAPPAS)
        tracemalloc.start()
        try:
            table = make_record(xs, qbound.verify.DEFAULT_KAPPAS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {f: np.shape(v) for f, v in table.items()} == {
            "x": (20001,), "kappa": (10,), "q_ref": (20001,), "g_lower": (20001, 10),
            "boyd_lower_q": (20001,), "chernoff_upper": (20001,), "rel_gap": (20001, 10)}
        assert peak < 6 * table["g_lower"].nbytes


class TestVerifyCommand:
    def test_all_defaults_pass(self):
        code, text = run_cli("verify", "all", "--x-count", "501")
        assert code == 0
        assert "FAIL" not in text

    def test_corrupted_theorem_fails(self, monkeypatch):
        oracles.inflate_alpha(monkeypatch, 1.0 + 1e-6)
        code, text = run_cli("verify", "theorem", "--kappa", "1000000")
        assert code == 1
        assert "FAIL" in text

    def test_all_near_degenerate_kappa_passes(self):
        # x1 = 3162.3 here, and lemma 2 is checked there alone
        code, text = run_cli("verify", "all", "--kappa", "1.0000001")
        assert code == 0
        assert [line.split(":")[0] for line in text.splitlines()] == [
            f"PASS {suite}" for suite in qbound.verify.SUITE_NAMES
        ]
        lemma2 = text.splitlines()[2]
        assert lemma2.startswith("PASS lemma2: points=1 ")
        assert f" at (x={qbound.x1_point(1.0000001):.17g}, kappa={1.0000001:.17g}) " in lemma2

    def test_all_kappa_next_to_one_decides_on_the_given_grid(self):
        # the theorem's worst point lies on the grid's 11 points, where Q
        # and g are both normal
        code, text = run_cli("verify", "all", "--kappa", "1.0000000000000002",
                             "--x-count", "11", "--format", "json")
        assert code == 0
        reports = json.loads(text)
        assert all(r["passed"] for r in reports)
        theorem = reports[0]
        assert theorem["suite"] == "theorem" and -10.0 <= theorem["worst_point"][0] <= 10.0
        assert theorem["worst_lhs"] > 0.0 and theorem["worst_rhs"] > 0.0

    def test_all_default_suites_in_order(self):
        # a literal, not SUITE_NAMES: a suite dropped from the default shows
        code, text = run_cli("verify", "all")
        assert code == 0
        assert [line.split(":")[0].split()[1] for line in text.splitlines()] == (
            ["theorem"] + ["lemma1"] * 9 + ["lemma2"] * 9)

    def test_all_below_the_derivative_step_passes(self):
        # no x >= FD_STEP, where verify_derivative has no point to check: `all`
        # runs the paper's claims alone, and they hold
        code, text = run_cli("verify", "all", "--x-min", "0", "--x-max", "1e-6", "--kappa", "2")
        assert code == 0
        assert [line.split(":")[0] for line in text.splitlines()] == [
            "PASS theorem", "PASS lemma1", "PASS lemma2"]

    @pytest.mark.parametrize("suite", ["derivative", "chernoff"])
    def test_kernel_checks_are_not_suites(self, suite, capsys):
        # verify_derivative and verify_chernoff check the kernels, not a claim
        # of the paper: the library runs them, the CLI does not
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", suite)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: qbound verify") and f"invalid choice: '{suite}'" in err
        assert "Traceback" not in err

    def test_help_lists_the_three_claims_and_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: qbound verify ") and "{theorem,lemma1,lemma2,all}" in out
        assert "derivative" not in out and "chernoff" not in out

    def test_lemma2_with_kappa_one_names_the_suite(self, capsys):
        code, _ = run_cli("verify", "lemma2", "--kappa", "1")
        assert code == 2
        assert capsys.readouterr().err == "error: verify_lemma2 requires kappa > 1, got 1.0\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_kappa_one_beside_another_is_skipped(self, fmt):
        # kappa 1 was an exit 2 when given, and skipped in the default sweep
        code, text = run_cli("verify", "all", "--kappa", "1", "--kappa", "2", "--format", fmt)
        assert code == 0
        code, alone = run_cli("verify", "all", "--kappa", "2", "--format", fmt)
        assert code == 0
        if fmt == "json":
            reports, want = json.loads(text), json.loads(alone)
            assert reports[0]["points_checked"] == 4002
            assert {r["worst_point"][1] for r in reports[1:]} == {2.0}
        else:
            reports, want = text.splitlines(), alone.splitlines()
            assert reports[0].startswith("PASS theorem: points=4002 ")
        assert len(reports) == 3 and reports[1:] == want[1:]

    def test_lemma1_with_kappa_one_exits_2(self):
        # and every other suite that needs kappa > 1
        for suite in ("lemma1", "lemma2", "all"):
            code, _ = run_cli("verify", suite, "--kappa", "1")
            assert code == 2, suite

    def test_all_matches_run_all(self):
        # one suite registry: same reports, same order
        code, text = run_cli("verify", "all", "--format", "json")
        assert code == 0
        want = [dataclasses.asdict(r) for r in qbound.run_all()]
        for r in want:
            r["worst_point"] = list(r["worst_point"])
        assert text == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("suite", ["lemma1", "lemma2"])
    def test_named_point_suites_ignore_the_x_flags(self, suite):
        # they check the points that decide them, not the --x-* grid, but
        # the flags are still checked
        grid = ("--x-min", "1", "--x-max", "40", "--x-count", "11")
        assert run_cli("verify", suite, *grid) == run_cli("verify", suite)
        assert run_cli("verify", suite, "--x-count", "1")[0] == 2

    @pytest.mark.parametrize("suite", qbound.verify.SUITE_NAMES + ("all",))
    def test_nan_tolerance_exits_2(self, suite, capsys):
        # each suite checks at its own constant: --tolerance, nan or not, is
        # argparse's usage error for every suite selection, not ignored
        for tolerance in ("nan", "1e-9"):
            with pytest.raises(SystemExit) as exc:
                run_cli("verify", suite, "--x-count", "11", "--tolerance", tolerance)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: qbound") and "unrecognized arguments: --tolerance" in err
            assert "Traceback" not in err

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "nonsense")
        assert exc.value.code == 2

    def test_json_report(self):
        code, text = run_cli(
            "verify", "theorem", "--x-count", "101", "--format", "json"
        )
        assert code == 0
        reports = json.loads(text)
        assert reports[0]["suite"] == "theorem"
        assert reports[0]["passed"] is True

    @pytest.mark.parametrize("command", [("table",), ("verify", "theorem")])
    def test_grid_span_that_overflows_exits_2(self, command, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli(*command, "--x-min", "-1.7e308", "--x-max", "1.7e308")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: the grid span x_max - x_min overflows for [-1.7e+308, 1.7e+308]\n"
        )

    @pytest.mark.parametrize("command", [("table",), ("verify", "theorem")])
    def test_grid_too_large_to_allocate_exits_2(self, command, capsys):
        # 1e17 points need 711 PiB, past any x86-64 address space, so the
        # allocation fails at once whatever the overcommit setting
        code, text = run_cli(*command, "--x-count", "100000000000000000")
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", [("table",), ("verify", "theorem")])
    @pytest.mark.parametrize("count", ["9223372036854775807", "9223372036854775808"])
    def test_count_numpy_lays_out_as_empty_exits_2(self, command, count, capsys):
        # np.arange gives an empty array for counts next to 2**63, where the
        # grid's last-point write raised IndexError, a traceback and exit 1
        code, text = run_cli(*command, "--x-count", count)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestOptimizeCommand:
    def test_pointwise(self):
        code, text = run_cli("optimize", "pointwise", "--x", "1", "--format", "json")
        assert code == 0
        res = json.loads(text)
        assert res["argument"] == pytest.approx(1.5186, abs=2e-3)
        assert res["gap"] == pytest.approx(0.0098, abs=5e-4)

    def test_weight(self):
        code, text = run_cli("optimize", "weight", "--kappa", "2", "--format", "json")
        assert code == 0
        res = json.loads(text)
        assert res["objective"] == pytest.approx(0.39306, abs=1e-4)

    def test_weight_inconsistency_exits_2(self, monkeypatch, capsys):
        # a measured weight below the proven alpha is an error, not a traceback
        monkeypatch.setattr(qbound.optimize, "alpha_coeff", lambda k: 1.0)
        code, text = run_cli("optimize", "weight", "--kappa", "2")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: fatal inconsistency")

    def test_help_names_the_kappa_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "weight", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--kappa KAPPA" in out and "KAPPA_SINGLE" not in out

    def test_interval_bad_lo_exits_2(self):
        code, _ = run_cli("optimize", "interval", "--x-lo", "0", "--x-hi", "2")
        assert code == 2

    def test_pointwise_text(self):
        code, text = run_cli("optimize", "pointwise", "--x", "0")
        assert code == 0
        lines = text.splitlines()
        assert "converged = false" in lines
        assert "message = supremum at x=0 is approached only as kappa -> inf" in lines

    def test_weight_text(self):
        # max_weight has no gap: None prints as nan; its empty message is left out
        code, text = run_cli("optimize", "weight", "--kappa", "2")
        assert code == 0
        lines = text.splitlines()
        assert "gap = nan" in lines
        assert "converged = true" in lines
        assert not any(line.startswith("message") for line in lines)

    MISSING_FLAG = [
        (("pointwise",), "--x"),
        (("weight",), "--kappa"),
        (("interval", "--x-lo", "1"), "--x-hi"),
        (("interval", "--x-hi", "2"), "--x-lo"),
    ]

    @staticmethod
    def usage_error(argv, capsys) -> str:
        """argparse's stderr for `qbound optimize *argv`, which must exit 2
        with nothing on stdout."""
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            main(["optimize", *argv], out=out)
        assert (exc.value.code, out.getvalue()) == (2, "")
        return capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", MISSING_FLAG)
    def test_missing_flag_exits_2(self, argv, flag, capsys):
        err = self.usage_error(argv, capsys)
        assert err.startswith(f"usage: qbound optimize {argv[0]} ")
        assert err.endswith(f"error: the following arguments are required: {flag}\n")

    # each mode's flags, a flag of each other mode, and argparse's error;
    # interval reads --x as an abbreviation of its own two flags
    OTHER_MODE_FLAG = [
        (("pointwise", "--x", "1"), ("--kappa", "5"), "unrecognized arguments: --kappa 5"),
        (("pointwise", "--x", "1"), ("--x-hi", "3"), "unrecognized arguments: --x-hi 3"),
        (("weight", "--kappa", "2"), ("--x", "1"), "unrecognized arguments: --x 1"),
        (("weight", "--kappa", "2"), ("--x-lo", "1"), "unrecognized arguments: --x-lo 1"),
        (("interval", "--x-lo", "1", "--x-hi", "3"), ("--x", "2"),
         "ambiguous option: --x could match --x-lo, --x-hi"),
        (("interval", "--x-lo", "1", "--x-hi", "3"), ("--kappa", "2"),
         "unrecognized arguments: --kappa 2"),
    ]

    @pytest.mark.parametrize("argv, other, message", OTHER_MODE_FLAG)
    def test_flag_of_another_mode_exits_2(self, argv, other, message, capsys):
        # it was ignored: `optimize pointwise --x 1 --kappa 5` printed kappa_star(1)
        assert run_cli("optimize", *argv)[0] == 0
        assert self.usage_error([*argv, *other], capsys).endswith(f" error: {message}\n")

    @pytest.mark.parametrize("argv", [("--x", "1", "pointwise"), ("--kappa", "2", "weight"),
                                      ("--format", "json", "weight", "--kappa", "2")])
    def test_flag_before_the_mode_exits_2(self, argv, capsys):
        err = self.usage_error(argv, capsys)
        assert err.startswith("usage: qbound optimize ")

    def test_interval_whose_span_underflows(self):
        # (x_hi - x_lo)*(x_hi + x_lo) is 0 here; both ends' kappa_star is the ceiling
        code, text = run_cli("optimize", "interval", "--x-lo", "1e-320", "--x-hi", "1e-300",
                             "--format", "json")
        assert code == 0
        res = json.loads(text)
        assert res["argument"] == qbound.optimize.KAPPA_MAX
        assert (res["iterations"], res["converged"]) == (0, False)


class TestNegativeValues:
    """A negative value in exponent form is a value, not an option string:
    `--flag -1e1` gives what `--flag=-1e1` gives."""

    ARGVS = [
        ("eval", "--x", "-1e300", "--kappa", "2"),
        ("eval", "--x", "-1.5E-3", "--kappa", "2", "--format", "json"),
        ("eval", "--x", "1", "--kappa", "-2e0"),
        ("table", "--x-min", "-1e1", "--x-max", "1", "--x-count", "3", "--kappa", "2"),
        ("table", "--x-min", "-2e1", "--x-max", "-1E1", "--x-count", "3"),
        ("verify", "theorem", "--x-min", "-1.5e1", "--x-count", "11", "--kappa", "2"),
        ("optimize", "pointwise", "--x", "-1e-1"),
        ("optimize", "interval", "--x-lo", "-1e-1", "--x-hi", "1"),
        ("optimize", "weight", "--kappa", "-2e0"),
        ("roots", "--kappa", "-1e0"),
    ]

    @staticmethod
    def outcome(argv):
        """(exit code, stdout), with argparse's exit 2 as (2, "")."""
        try:
            return run_cli(*argv)
        except SystemExit as exc:
            return exc.code, ""

    @staticmethod
    def equals_form(argv):
        joined = []
        for a in argv:
            if a.startswith("-") and a[1:2].isdigit():  # a negative value
                joined[-1] += "=" + a
            else:
                joined.append(a)
        return joined

    @pytest.mark.parametrize("argv", ARGVS, ids=["_".join(a) for a in ARGVS])
    def test_space_form_equals_the_equals_form(self, argv):
        assert self.outcome(argv) == self.outcome(self.equals_form(argv))

    NONFINITE = [
        ("eval", "--x", "-inf", "--kappa", "2"),
        ("eval", "--x", "-Infinity", "--kappa", "2", "--format", "json"),
        ("eval", "--x", "-nan", "--kappa", "2"),
        ("eval", "--x", "1", "--kappa", "-INF"),
        ("table", "--x-min", "-NaN", "--x-max", "1", "--x-count", "3"),
        ("optimize", "pointwise", "--x", "-inf"),
        ("roots", "--kappa", "-nan"),
    ]

    @pytest.mark.parametrize("argv", NONFINITE, ids=["_".join(a) for a in NONFINITE])
    def test_nonfinite_space_form_equals_the_equals_form(self, argv, capsys):
        """-inf and -nan, in any case, reach the library as values: exit
        code, stdout and stderr are the `=` form's."""
        joined = []
        for a in argv:
            if a[:2].lower() in ("-i", "-n"):
                joined[-1] += "=" + a
            else:
                joined.append(a)
        outcomes = []
        for form in (argv, joined):
            outcomes.append((self.outcome(form), capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1].startswith("error: ")

    def test_exponent_values_are_evaluated(self):
        code, text = run_cli("eval", "--x", "-1e300", "--kappa", "2")
        assert code == 0
        assert text.startswith("x = -1.0000000000000001e+300\n")
        code, text = run_cli(*self.ARGVS[3])
        assert code == 0
        assert text.splitlines()[1].startswith("-10,2,")


# x by sign and binary exponent over the whole double range, with the ends
X_ARGS = st.one_of(
    st.builds(lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from((-1.0, 1.0)),
              st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
              st.integers(min_value=-1074, max_value=1023)),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max)),
).map(repr)
# kappa 1, its next double and 1 + 10**U(-17, 6), below x2's lost digits
KAPPA_ARGS = st.one_of(
    st.sampled_from((1.0, 1.0 + 2.0**-52)),
    st.floats(min_value=-17.0, max_value=6.0).map(lambda e: 1.0 + 10.0**e),
).map(repr)


@st.composite
def cli_argvs(draw):
    """One argv of eval, table, verify (any suite selection), an optimize
    mode or roots, with drawn x and kappa values; one in ten ends in
    --tolerance, which no command takes."""
    command = draw(st.sampled_from(("eval", "table", "verify", "pointwise", "weight",
                                    "interval", "roots")))
    fmt = ("--format", draw(st.sampled_from(("csv", "json") if command == "table"
                                            else ("text", "json"))))
    if command in ("table", "verify"):
        lo, hi = sorted(draw(st.lists(X_ARGS, min_size=2, max_size=2)), key=float)
        kappas = draw(st.lists(KAPPA_ARGS, min_size=1, max_size=3))
        argv = [command, "--x-min", lo, "--x-max", hi,
                "--x-count", str(draw(st.integers(min_value=2, max_value=40))),
                "--spacing", draw(st.sampled_from(("linear", "log")))]
        argv += [a for k in kappas for a in ("--kappa", k)]
        if command == "verify":
            argv.insert(1, draw(st.sampled_from(qbound.verify.SUITE_NAMES + ("all",))))
    elif command == "eval":
        argv = ["eval", "--x", draw(X_ARGS), "--kappa", draw(KAPPA_ARGS)]
    elif command == "pointwise":
        argv = ["optimize", "pointwise", "--x", draw(X_ARGS)]
    elif command == "weight":
        argv = ["optimize", "weight", "--kappa", draw(KAPPA_ARGS)]
    elif command == "interval":
        lo, hi = sorted(draw(st.lists(X_ARGS, min_size=2, max_size=2)), key=float)
        argv = ["optimize", "interval", "--x-lo", lo, "--x-hi", hi]
    else:
        argv = ["roots", "--kappa", draw(KAPPA_ARGS)]
    argv += fmt
    if draw(st.integers(min_value=0, max_value=9)) == 4:  # not an end, which draws favour
        argv += ["--tolerance", "1e-9"]
    return argv


class TestDomainContract:
    """Every command on any double x and any kappa up to 1 + 1e6 exits 0,
    or 2 with argparse's usage or one `error:` line, and no traceback or
    warning: a verify suite never fails there (exit 1)."""

    @given(cli_argvs())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_0_or_a_usage_or_domain_error(self, argv):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code, usage = main(argv, out=io.StringIO()), False
            except SystemExit as exc:
                code, usage = exc.code, True
        err = err.getvalue()
        assert code in (0, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if usage:
            assert err.startswith("usage: qbound"), (argv, err)
        elif code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", (argv, err)


class TestImportCost:
    def test_scipy_never_imported(self):
        # import scipy.special alone costs ~0.35 s of every cold start;
        # qbound needs no scipy module at run time
        script = (
            "import sys, io, qbound.cli\n"
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
            "for argv in (['eval', '--x', '1', '--kappa', '2'], ['verify', 'all'],\n"
            "             ['optimize', 'weight', '--kappa', '2']):\n"
            "    qbound.cli.main(argv, out=io.StringIO())\n"
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=CHILD_ENV, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_json_loaded_by_json_output_alone(self):
        # import json costs ~0.9 ms of a cold start; a text command, a table
        # or eval in either format, or a usage error never needs it, and the
        # JSON of any other command does
        script = (
            "import contextlib, io, sys, qbound.cli\n"
            "for argv in (['eval', '--x', '1', '--kappa', '2'], ['table'], ['verify', 'all'],\n"
            "             ['roots', '--kappa', '2'], ['eval', '--x'], ['table', '--format', 'json'],\n"
            "             ['eval', '--x', '1', '--kappa', '2', '--format', 'json'],\n"
            "             ['roots', '--kappa', '2', '--format', 'json']):\n"
            "    with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "        qbound.cli.main(argv, out=io.StringIO())\n"
            "    print('json' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=CHILD_ENV, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"] * 7 + ["True"]

    def test_no_thread_pool(self):
        # only an array kernel called on more than one block of points
        # starts a thread, and the CLI's default grids are each at most one
        # block; concurrent.futures (~2 ms of import) is never needed
        script = (
            "import sys, io, threading, qbound, qbound.cli\n"
            "started, start = [], threading.Thread.start\n"
            "threading.Thread.start = lambda self: (started.append(self), start(self))[1]\n"
            "before = threading.active_count()\n"
            "print('concurrent.futures' in sys.modules)\n"
            "for argv in (['table'], ['verify', 'all'], ['optimize', 'weight', '--kappa', '2']):\n"
            "    qbound.cli.main(argv, out=io.StringIO())\n"
            "    print(len(started), threading.active_count() - before)\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=CHILD_ENV, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"] + ["0"] * 6 + ["False"]


class TestRootsCommand:
    def test_kappa_two(self):
        code, text = run_cli("roots", "--kappa", "2", "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert data["x1"] == pytest.approx(0.6236862429526105, rel=1e-12)
        assert data["x2"] == pytest.approx(1.4324906895398995, rel=1e-10)
        assert data["pivot"] == 1.0
        assert abs(data["residual_x1"]) <= 1e-12
        assert abs(data["residual_x2"]) <= 1e-12

    def test_kappa_one_exits_2(self):
        code, _ = run_cli("roots", "--kappa", "1")
        assert code == 2

    def test_text(self):
        code, text = run_cli("roots", "--kappa", "2")
        assert code == 0
        lines = text.splitlines()
        assert [line.split(" = ")[0] for line in lines] == [
            "kappa", "x1", "x2", "pivot", "w1", "w2", "residual_x1", "residual_x2"
        ]
        assert "pivot = 1" in lines

    @pytest.mark.parametrize("kappa", [1.0 + 1e-10, 2.0, 1e8, 1e15])
    def test_residuals_are_the_scalar_ones(self, kappa, monkeypatch):
        # one scalar call each, on x1 and then x2, each x a Python float
        calls = count_calls(monkeypatch, bounds, "crossing_condition")
        code, text = run_cli("roots", "--kappa", repr(kappa), "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert [type(x) for x, _ in calls] == [float, float]
        assert [x for x, _ in calls] == [data["x1"], data["x2"]]
        for x, res in ((data["x1"], data["residual_x1"]), (data["x2"], data["residual_x2"])):
            assert res.hex() == bounds.crossing_condition(x, kappa).hex()

    @pytest.mark.parametrize("kappa, err", [
        ("1", "critical_points requires kappa > 1, got 1.0"),
        ("0.5", "kappa must be >= 1, got 0.5"),
        ("nan", "kappa must be finite, got nan"),
    ])
    def test_bad_kappa_messages(self, kappa, err, capsys):
        assert run_cli("roots", "--kappa", kappa) == (2, "")
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_past_the_x2_limit_exits_2_with_the_cause(self, capsys):
        code, text = run_cli("roots", "--kappa", "4.4e232")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith(
            "error: x2_point: at kappa = 4.4e+232, 1 - t rounds to 0"
        )

    def test_near_degenerate_ordering(self):
        code, text = run_cli("roots", "--kappa", "1.001", "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert data["x1"] < data["pivot"] < data["x2"]


class TestRun:
    """cli.run(), the process entry point, ends at os._exit: a `python -m
    qbound.cli` process writes what main() writes in-process, every byte of
    it, with the same exit status."""

    CASES = [
        (("eval", "--x", "1", "--kappa", "2"), 0),
        (("eval", "--x", "1", "--kappa", "2", "--format", "json"), 0),
        (("table", "--format", "json"), 0),  # 4.3 MB
        (("verify", "all"), 0),
        (("roots", "--kappa", "1"), 2),  # one error: line
        (("verify", "lemma9"), 2),  # argparse's SystemExit
        (("--help",), 0),  # argparse's SystemExit
    ]

    @staticmethod
    def process(*argv, **kwargs):
        return subprocess.run([sys.executable, "-m", "qbound.cli", *argv],
                              env=CHILD_ENV, timeout=60, **kwargs)

    @pytest.mark.parametrize("argv, code", CASES, ids=["_".join(a) for a, _ in CASES])
    def test_process_equals_in_process(self, argv, code, capsys):
        out = io.StringIO()
        try:
            assert main(list(argv), out=out) == code
        except SystemExit as exc:
            assert exc.code == code
        inproc = capsys.readouterr()  # --help writes to sys.stdout, not to out
        proc = self.process(*argv, capture_output=True)
        assert proc.returncode == code
        assert proc.stdout == (out.getvalue() + inproc.out).encode()
        assert proc.stderr == inproc.err.encode()
        if argv[0] == "roots":
            assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("columns", ["30", "200", None])
    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help"), ("verify", "lemma9")])
    def test_help_and_usage_do_not_depend_on_the_terminal_width(self, argv, columns,
                                                                capsys, monkeypatch):
        # argparse wraps at COLUMNS - 2 unless it is given a width; the CLI
        # gives it 78, what an 80-column terminal gets
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        want = capsys.readouterr()
        env = {k: v for k, v in CHILD_ENV.items() if k != "COLUMNS"}
        if columns is not None:
            env["COLUMNS"] = columns
        proc = subprocess.run([sys.executable, "-m", "qbound.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            exc.value.code, want.out.encode(), want.err.encode())

    def test_closed_stdout_exits_120_without_traceback(self):
        # table's 2 MB of CSV outgrow the pipe, so a write in main() fails
        # once the reader has gone after one line
        proc = subprocess.Popen([sys.executable, "-m", "qbound.cli", "table"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
        assert proc.stdout.readline() == (",".join(CSV_FIELDS) + "\n").encode()
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, err) == (120, b"")
        # verify all's 3 KB wait in the buffer for run()'s flush; a pipe whose
        # read end is closed before the child starts fails that flush
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.process("verify", "all", stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (120, b"")

    def test_atexit_callbacks_run_before_the_flush(self):
        script = (
            "import atexit, sys\n"
            "from qbound import cli\n"
            "atexit.register(sys.stdout.write, 'atexit\\n')\n"
            "sys.argv[1:] = ['eval', '--x', '1', '--kappa', '2']\n"
            "cli.run()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=CHILD_ENV, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli("eval", "--x", "1", "--kappa", "2")[1].encode() + b"atexit\n"

    def test_run_exitfuncs_exists(self):
        # run() calls this private function of the atexit module; CPython's
        # own finalization runs the same callbacks
        assert callable(atexit._run_exitfuncs)

    def test_no_thread_outlives_main(self):
        # os._exit would cut short any thread still running; 140,000 points
        # are three of special._BLOCK's blocks, each run in its own thread
        # where there is more than one CPU
        before = threading.enumerate()
        assert run_cli("table", "--x-count", "140000", "--kappa", "2")[0] == 0
        assert threading.enumerate() == before
