"""CLI contract tests: exit codes, deterministic output, CSV/JSON schema."""
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import qbound
from qbound import bounds, q
from qbound.cli import CSV_FIELDS, main, make_record


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

    @pytest.mark.parametrize("x", ["1", "-3", "40"])
    def test_text_is_one_line_per_field(self, x):
        # -3 has the nan Boyd and Chernoff columns, 40 a Q of 0
        code, text = run_cli("eval", "--x", x, "--kappa", "2")
        assert code == 0
        row = make_record([float(x)], [2.0])[0, 0].tolist()
        assert text == "".join(f"{name} = {value:.17g}\n" for name, value in zip(CSV_FIELDS, row))


class TestJsonWriter:
    """Every --format json output is json.dumps(records, indent=2) + a newline."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--x", "1", "--kappa", "2"),
        ("eval", "--x", "-3", "--kappa", "1"),
        ("optimize", "pointwise", "--x", "2"),
        ("optimize", "weight", "--kappa", "2"),
        ("optimize", "interval", "--x-lo", "1", "--x-hi", "3"),
        ("roots", "--kappa", "2"),
        ("verify", "chernoff", "--x-max", "40"),
        ("verify", "all", "--x-count", "101"),
        ("table", "--x-min", "-1", "--x-max", "40", "--x-count", "11",
         "--kappa", "1", "--kappa", "2"),
    ], ids="_".join)
    def test_same_bytes_as_json_module(self, argv):
        code, text = run_cli(*argv, "--format", "json")
        assert code == 0
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


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

    @staticmethod
    def scalar_rows():
        """The GRID table, row by row from the scalar API."""
        rows = []
        for x in np.linspace(-4.0, 4.0, 17).tolist():
            for kappa in (1.0, 1.5, 3.0):
                qx, gx = q(x), bounds.g_lower(x, kappa)
                pos = x >= 0.0
                rows.append({
                    "x": x,
                    "kappa": kappa,
                    "q_ref": qx,
                    "g_lower": gx,
                    "boyd_lower_q": bounds.boyd_lower_q(x) if pos else math.nan,
                    "chernoff_upper": bounds.chernoff_upper(x) if pos else math.nan,
                    "rel_gap": (qx - gx) / qx,
                })
        return rows

    def test_csv_round_trip_bit_for_bit(self):
        code, text = run_cli("table", *self.GRID)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = self.scalar_rows()
        assert len(rows) == len(expected) == 51
        assert any(float(row["x"]) == 0.0 for row in rows)
        for row, want in zip(rows, expected):
            for field in CSV_FIELDS:
                got = float(row[field])
                if math.isnan(want[field]):
                    assert math.isnan(got), field
                else:
                    assert got == want[field], field

    def test_json_same_bytes_as_json_module(self):
        code, text = run_cli("table", *self.GRID, "--format", "json")
        assert code == 0
        assert text == json.dumps(self.scalar_rows(), indent=2) + "\n"

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
        # Q, Boyd and Chernoff depend on x alone: one call each for the
        # default grid's ten kappas, and one g_lower call per kappa
        calls = [count_calls(monkeypatch, module, name) for module, name in [
            (qbound.cli, "make_record"), (qbound.cli, "q"), (bounds, "boyd_lower_q"),
            (bounds, "chernoff_upper"), (bounds, "g_lower"),
        ]]
        assert run_cli("table")[0] == 0
        assert [len(c) for c in calls] == [1, 1, 1, 1, 10]
        assert [args[1].kappa for args in calls[-1]] == list(qbound.verify.DEFAULT_KAPPAS)


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
        # x1 = 3162.3 here: lemma 2's range reaches past it, to 10*x1
        code, text = run_cli("verify", "all", "--kappa", "1.0000001")
        assert code == 0
        assert [line.split(":")[0] for line in text.splitlines()] == [
            f"PASS {suite}" for suite in qbound.verify.SUITE_NAMES
        ]
        assert text.splitlines()[2].startswith("PASS lemma2: points=2000 ")

    def test_derivative_step_scales_with_kappa(self):
        # r varies on the scale 1/sqrt(kappa - 1) ~ 8e-4 here, so a step of
        # 1e-5 in x would leave a difference-quotient error of ~7e-4
        code, text = run_cli("verify", "derivative", "--kappa", "1551070.2964298625",
                             "--x-min", "-0.0538", "--x-max", "0.0538", "--x-count", "201")
        assert code == 0
        assert text.startswith("PASS derivative: points=100 ")

    def test_lemma2_with_kappa_one_names_the_suite(self, capsys):
        code, _ = run_cli("verify", "lemma2", "--kappa", "1")
        assert code == 2
        assert capsys.readouterr().err == "error: verify_lemma2 requires kappa > 1, got 1.0\n"

    def test_lemma1_with_kappa_one_exits_2(self):
        # and every other suite that needs kappa > 1
        for suite in ("lemma1", "lemma2", "derivative", "all"):
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

    def test_chernoff_alone_uses_the_given_grid(self):
        code, text = run_cli(
            "verify", "chernoff", "--x-min", "0", "--x-max", "5", "--x-count", "11",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(text)[0]["points_checked"] == 11

    def test_chernoff_alone_defaults_to_x_from_zero(self):
        # without --x-min the grid is [0, --x-max]; a negative one is an error
        code, text = run_cli("verify", "chernoff", "--kappa", "2", "--format", "json")
        assert code == 0
        report = json.loads(text)[0]
        assert report["points_checked"] == 2001 and report["passed"]
        assert run_cli("verify", "chernoff", "--x-min", "-1")[0] == 2
        # verify all keeps chernoff's own 10001-point grid
        code, text = run_cli("verify", "all", "--kappa", "2", "--x-count", "11",
                             "--format", "json")
        assert code == 0
        assert json.loads(text)[-1]["points_checked"] == 10001

    @pytest.mark.parametrize("suite", ["theorem", "all"])
    def test_nan_tolerance_exits_2(self, suite, capsys):
        code, text = run_cli("verify", suite, "--x-count", "11", "--tolerance", "nan")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: the tolerance must not be nan\n"

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

    @pytest.mark.parametrize("argv", [("--x-max", "40"), ("--x-max", "1e300", "--x-count", "50")])
    def test_chernoff_passes_where_q_underflows(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli("verify", "chernoff", *argv)
        assert code == 0
        assert text.startswith("PASS chernoff: ") and "worst_violation=0 " in text

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

    @pytest.mark.parametrize("argv, err", [
        (("pointwise",), "pointwise mode requires --x"),
        (("weight",), "weight mode requires --kappa"),
        (("interval", "--x-lo", "1"), "interval mode requires --x-lo and --x-hi"),
        (("interval", "--x-hi", "2"), "interval mode requires --x-lo and --x-hi"),
    ])
    def test_missing_flag_exits_2(self, argv, err, capsys):
        assert run_cli("optimize", *argv) == (2, "")
        assert capsys.readouterr().err == f"error: {err}\n"

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
        ("verify", "theorem", "--x-min", "-1.5e1", "--x-count", "11", "--kappa", "2",
         "--tolerance", "-1e-300"),
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
        src = str(Path(qbound.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

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
        src = str(Path(qbound.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
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
        # both residuals come from one array call, bit for bit the scalar ones
        calls = count_calls(monkeypatch, bounds, "crossing_condition")
        code, text = run_cli("roots", "--kappa", repr(kappa), "--format", "json")
        assert (code, len(calls)) == (0, 1)
        data = json.loads(text)
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
