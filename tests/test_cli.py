"""CLI contract tests: exit codes, deterministic output, CSV/JSON schema."""
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbound
from qbound import bounds, q
from qbound.cli import CSV_FIELDS, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


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


class TestVerifyCommand:
    def test_all_defaults_pass(self):
        code, text = run_cli("verify", "all", "--x-count", "501")
        assert code == 0
        assert "FAIL" not in text

    def test_corrupted_theorem_fails(self):
        code, text = run_cli(
            "verify", "theorem", "--kappa", "1000000",
            "--inflate-weight", "1.000001",
        )
        assert code == 1
        assert "FAIL" in text

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


class TestImportCost:
    def test_scipy_optimize_never_imported(self):
        # scipy.optimize costs ~0.3 s of every cold start and is not needed
        script = (
            "import sys, io, qbound\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from qbound.cli import main\n"
            "main(['optimize', 'weight', '--kappa', '2'], out=io.StringIO())\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(qbound.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]


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

    def test_near_degenerate_ordering(self):
        code, text = run_cli("roots", "--kappa", "1.001", "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert data["x1"] < data["pivot"] < data["x2"]
