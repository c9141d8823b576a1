"""Tests for the verification-suite engine."""
import math

import numpy as np
import pytest

from qbound import (
    DEFAULT_KAPPAS,
    DomainError,
    EvaluationGrid,
    UsageError,
    run_all,
    verify_chernoff,
    verify_derivative,
    verify_lemma1,
    verify_lemma2,
    verify_theorem,
    x1_point,
)


class TestEvaluationGrid:
    def test_defaults(self):
        g = EvaluationGrid()
        xs = g.xs()
        assert xs.size == 2001 and xs[0] == -10.0 and xs[-1] == 10.0

    def test_log_spacing(self):
        g = EvaluationGrid(x_min=0.1, x_max=10.0, x_count=5, spacing="log")
        xs = g.xs()
        assert np.allclose(np.diff(np.log(xs)), np.log(xs[1] / xs[0]))

    def test_validation(self):
        with pytest.raises(UsageError):
            EvaluationGrid(x_min=1.0, x_max=0.0)
        with pytest.raises(UsageError):
            EvaluationGrid(x_count=1)
        with pytest.raises(UsageError):
            EvaluationGrid(x_min=0.0, x_max=1.0, spacing="log")
        with pytest.raises(UsageError):
            EvaluationGrid(spacing="cubic")


class TestVerifyTheorem:
    def test_default_grid_passes(self):
        r = verify_theorem()
        assert r.passed
        assert r.worst_violation < 0.0
        assert r.points_checked == 2001 * len(DEFAULT_KAPPAS)

    def test_kappa_one_trivial_margin(self):
        r = verify_theorem(EvaluationGrid(kappas=(1.0,)))
        assert r.passed
        # g == 0, so the relative margin is exactly -1 at every point
        assert r.worst_violation == -1.0

    def test_adversarial_cluster_near_x1(self):
        x1 = x1_point(2.0)
        g = EvaluationGrid(
            x_min=x1 - 1e-6, x_max=x1 + 1e-6, x_count=101, kappas=(2.0,)
        )
        assert verify_theorem(g).passed

    def test_near_degenerate_kappa_uses_pivot_grid(self):
        kappa = 1.0 + 1e-10
        r = verify_theorem(EvaluationGrid(kappas=(kappa,)))
        assert r.passed
        # worst point must sit near 1/sqrt(kappa-1) ~ 1e5, not on [-10, 10]
        assert abs(r.worst_point[0]) > 10.0

    def test_corrupted_weight_detected(self):
        # 1e-6 inflation is only visible where the bound's own gap is
        # thinner than 1e-6, which requires kappa >> 100
        g = EvaluationGrid(kappas=(1e6,))
        assert verify_theorem(g).passed
        r = verify_theorem(g, weight_inflation=1.0 + 1e-6)
        assert not r.passed
        assert r.worst_violation > r.tolerance

    def test_detection_floor_on_default_sweep(self):
        # on the default kappas the thinnest gap is ~3.5e-4, so 1e-6
        # inflation cannot (and must not) trip the theorem check there
        r = verify_theorem(weight_inflation=1.0 + 1e-6)
        assert r.passed
        r = verify_theorem(weight_inflation=1.01)
        assert not r.passed


class TestVerifyLemma1:
    @pytest.mark.parametrize("kappa", [1.001, 1.1, 2.0, 100.0])
    def test_passes(self, kappa):
        r = verify_lemma1(kappa)
        assert r.passed
        assert r.worst_violation <= 1e-10

    def test_near_degenerate(self):
        assert verify_lemma1(1.0 + 1e-3).passed

    def test_rejects_kappa_one(self):
        with pytest.raises(DomainError):
            verify_lemma1(1.0)


class TestVerifyLemma2:
    @pytest.mark.parametrize("kappa", [1.001, 1.1, 2.0, 100.0])
    def test_passes(self, kappa):
        assert verify_lemma2(kappa, x_hi=50.0, count=2000).passed

    def test_boyd_condition_fails_below_x1(self):
        # the sufficient condition is sharp at x1; just below it must fail
        kappa = 2.0
        x = x1_point(kappa) * (1.0 - 1e-6)
        cond = math.pi * kappa * x / (
            (math.pi - 1.0) * x + math.sqrt(x * x + 2.0 * math.pi)
        )
        assert cond < 1.0

    def test_rejects_kappa_one(self):
        with pytest.raises(DomainError):
            verify_lemma2(1.0)

    def test_rejects_bad_range(self):
        with pytest.raises(UsageError):
            verify_lemma2(2.0, x_hi=0.1)


class TestVerifyDerivative:
    def test_default_passes(self):
        g = EvaluationGrid(kappas=tuple(k for k in DEFAULT_KAPPAS if k > 1.0))
        r = verify_derivative(g)
        assert r.passed
        assert r.worst_violation <= 1e-6

    def test_near_degenerate_kappa(self):
        r = verify_derivative(EvaluationGrid(kappas=(1.001,)))
        assert r.passed

    def test_rejects_kappa_one(self):
        with pytest.raises(UsageError):
            verify_derivative(EvaluationGrid(kappas=(1.0, 2.0)))

    def test_rejects_bad_step(self):
        g = EvaluationGrid(kappas=(2.0,))
        with pytest.raises(UsageError):
            verify_derivative(g, h_step=1e-2)

    def test_rejects_grid_without_positive_x(self):
        # the closed form needs x >= h_step; no such point is a usage error
        g = EvaluationGrid(x_min=-10.0, x_max=0.0, kappas=(2.0,))
        with pytest.raises(UsageError):
            verify_derivative(g)


class TestVerifyChernoff:
    def test_default_passes(self):
        r = verify_chernoff()
        assert r.passed

    def test_equality_at_zero(self):
        g = EvaluationGrid(x_min=0.0, x_max=1.0, x_count=11, kappas=(2.0,))
        r = verify_chernoff(g)
        assert r.passed

    def test_rejects_negative_x(self):
        with pytest.raises(UsageError):
            verify_chernoff(EvaluationGrid(x_min=-1.0, x_max=1.0, kappas=(2.0,)))


class TestRunAll:
    def test_everything_passes(self):
        reports = run_all()
        assert reports and all(r.passed for r in reports)

    def test_reports_reproducible(self):
        a = run_all()
        b = run_all()
        assert a == b

    def test_corruption_propagates(self):
        g = EvaluationGrid(kappas=(1e6,))
        reports = run_all(g, weight_inflation=1.0 + 1e-6)
        assert any(not r.passed for r in reports)
