"""Tests for the bound family and the proof-level functions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qbound import (
    DomainError,
    KappaParam,
    alpha_coeff,
    boyd_lower,
    chernoff_upper,
    critical_points,
    crossing_condition,
    df_dx_identity,
    f_diff,
    g_lower,
    lemma1_relation,
    mills_ratio,
    q,
    r_scaled,
    x1_point,
    x2_point,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
KAPPA_GRID = (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)


class TestKappaParam:
    def test_derived_quantities(self):
        k = KappaParam(2.0)
        assert k.kappa_minus_1 == 1.0
        assert k.c == pytest.approx(math.pi + 2.0, rel=1e-16)

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            KappaParam(0.5)
        with pytest.raises(DomainError):
            KappaParam(math.nan)

    def test_boundary_accepted(self):
        assert KappaParam(1.0).kappa_minus_1 == 0.0


class TestAlphaCoeff:
    def test_trivial_at_one(self):
        assert alpha_coeff(1.0) == 0.0

    def test_at_two(self):
        # frozen from direct high-precision evaluation of the coefficient
        assert alpha_coeff(2.0) == pytest.approx(0.3884908754395175, rel=1e-14)
        assert alpha_coeff(2.0) == pytest.approx(oracles.alpha_direct(2.0), rel=1e-15)

    def test_asymptotic_ceiling(self):
        a = alpha_coeff(1e6)
        assert 0.5 - 1e-5 < a < 0.5
        # leading-order expansion (kappa - 1 + 2/pi) / (2*kappa)
        approx = (1e6 - 1.0 + 2.0 / math.pi) / 2e6
        assert a == pytest.approx(approx, abs=1e-12)

    def test_weight_ceiling_and_monotonicity(self):
        kappas = np.geomspace(1.0 + 1e-9, 1e6, 2000)
        alphas = np.array([alpha_coeff(k) for k in kappas])
        assert np.all(alphas >= 0.0) and np.all(alphas < 0.5)
        assert np.all(np.diff(alphas) > 0.0)

    def test_rejects_below_one(self):
        with pytest.raises(DomainError):
            alpha_coeff(0.99)


class TestGLower:
    def test_trivial_kappa(self):
        for x in [-3.0, 0.0, 1.0, 10.0]:
            assert g_lower(x, 1.0) == 0.0

    def test_value_and_bound_at_one_two(self):
        val = g_lower(1.0, 2.0)
        assert val == pytest.approx(0.1429178061568941, rel=1e-13)
        assert val <= q(1.0)

    def test_even(self):
        for x in [0.3, 1.0, 3.0, 7.5]:
            assert g_lower(-x, 2.0) == g_lower(x, 2.0)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=500, deadline=None)
    def test_theorem_property(self, x, kappa):
        qx = q(x)
        assert g_lower(x, kappa) - qx <= 1e-13 * qx


class TestRScaled:
    def test_at_origin(self):
        assert r_scaled(0.0, 2.0) == pytest.approx(
            SQRT_2PI * alpha_coeff(2.0), rel=1e-15
        )

    def test_lemma1_equality_at_x1(self):
        x1 = x1_point(2.0)
        # kappa * x1 * r(x1) = 1  =>  r(x1) = 1/(2*x1)
        assert r_scaled(x1, 2.0) == pytest.approx(1.0 / (2.0 * x1), rel=1e-13)

    def test_decay(self):
        assert r_scaled(50.0, 2.0) < 1e-300 or r_scaled(50.0, 2.0) == 0.0
        xs = np.linspace(0.0, 10.0, 500)
        assert np.all(np.diff(r_scaled(xs, 2.0)) < 0.0)

    def test_no_overflow_at_large_x(self):
        assert np.isfinite(r_scaled(1000.0, 1.5))

    def test_rejects_kappa_one(self):
        with pytest.raises(DomainError):
            r_scaled(1.0, 1.0)


class TestFDiff:
    def test_at_origin(self):
        expect = SQRT_2PI * alpha_coeff(2.0) - math.sqrt(math.pi / 2.0)
        assert f_diff(0.0, 2.0) == pytest.approx(expect, rel=1e-13)
        assert f_diff(0.0, 2.0) == pytest.approx(-0.2795119245026556, abs=1e-12)

    def test_nonpositive_at_x1(self):
        for kappa in KAPPA_GRID:
            assert f_diff(x1_point(kappa), kappa) <= 0.0

    def test_far_tail_dominated_by_mills(self):
        # r(10, 2) ~ exp(-50), so f(10, 2) is essentially -R(10)
        val = f_diff(10.0, 2.0)
        assert val < 0.0
        assert val == pytest.approx(-mills_ratio(10.0), abs=1e-3)

    def test_case_structure_nonpositive_everywhere(self):
        # Cases 2, 3, 1: [0, x1], [x1, x2], [x2, 10*x2]
        for kappa in KAPPA_GRID:
            x1, x2 = x1_point(kappa), x2_point(kappa)
            for xs in (
                np.linspace(0.0, x1, 200),
                np.linspace(x1, x2, 200),
                np.geomspace(x2, 10.0 * x2, 200),
            ):
                assert np.all(f_diff(xs, kappa) <= 1e-15)

    def test_equivalence_with_q_form(self):
        # f <= 0  <=>  g <= Q, at random points
        rng = np.random.default_rng(20250823)
        xs = rng.uniform(0.0, 10.0, 1000)
        kappas = rng.uniform(1.0 + 1e-6, 50.0, 1000)
        for x, kappa in zip(xs, kappas):
            f_sign = f_diff(x, kappa) <= 0.0
            g_sign = g_lower(x, kappa) <= q(x) * (1.0 + 1e-13)
            assert f_sign == g_sign


class TestCriticalPoints:
    def test_x1_closed_form_at_two(self):
        x1 = x1_point(2.0)
        assert x1 == pytest.approx(0.6236862429526105, rel=1e-14)
        assert x1 == pytest.approx(math.sqrt(2.0 / (math.pi + 2.0)), rel=1e-15)
        # w1 = x1^2*(1-kappa) solves the crossing relation with equality
        assert abs(crossing_condition(x1, 2.0)) < 1e-14

    def test_x1_near_degenerate_leading_term(self):
        kappa = 1.0 + 1e-6
        assert x1_point(kappa) == pytest.approx(
            1.0 / math.sqrt(kappa - 1.0), rel=1e-3
        )

    def test_x2_at_two_matches_bisection(self):
        # frozen from bisection on x^2(1-k)exp(x^2(1-k)) = z over [1, 3]
        assert x2_point(2.0) == pytest.approx(1.4324906895398995, abs=1e-12)

    def test_ordering_and_lambert_preimages(self):
        for kappa in KAPPA_GRID:
            cp = critical_points(kappa)
            assert 0.0 < cp.x1 < cp.pivot < cp.x2
            assert cp.w2 < -1.0 < cp.w1 < 0.0
            assert cp.w1 == pytest.approx(cp.x1**2 * (1.0 - kappa), rel=1e-12)

    def test_near_degenerate_regression_anchor(self):
        # kappa = 1 + 1e-3 still yields a finite, ordered pair (frozen values)
        cp = critical_points(1.001)
        assert cp.x1 == pytest.approx(31.597969352550322, rel=1e-12)
        assert cp.x2 == pytest.approx(31.64759033939976, rel=1e-10)
        assert cp.x1 < cp.pivot < cp.x2

    def test_rejects_kappa_one(self):
        for fn in (x1_point, x2_point, critical_points):
            with pytest.raises(DomainError):
                fn(1.0)


class TestCrossingCondition:
    def test_zero_at_both_roots(self):
        for kappa in KAPPA_GRID:
            assert abs(crossing_condition(x1_point(kappa), kappa)) < 1e-12
            assert abs(crossing_condition(x2_point(kappa), kappa)) < 1e-12

    def test_positive_at_origin(self):
        for kappa in KAPPA_GRID:
            assert crossing_condition(0.0, kappa) > 0.0

    def test_negative_inside(self):
        x_mid = 0.5 * (x1_point(2.0) + x2_point(2.0))
        assert crossing_condition(x_mid, 2.0) < 0.0

    def test_sign_agrees_with_lemma1(self):
        xs = np.linspace(1e-3, 5.0, 500)
        cc = crossing_condition(xs, 2.0)
        l1 = lemma1_relation(xs, 2.0)
        assert np.all(np.sign(cc) == -np.sign(l1))


class TestLemma1Relation:
    def test_equality_at_x1(self):
        assert abs(lemma1_relation(x1_point(2.0), 2.0)) < 1e-10

    def test_minus_one_at_origin(self):
        for kappa in KAPPA_GRID:
            assert lemma1_relation(0.0, kappa) == -1.0

    def test_positive_at_pivot(self):
        for kappa in KAPPA_GRID:
            pivot = 1.0 / math.sqrt(kappa - 1.0)
            assert lemma1_relation(pivot, kappa) > 0.0

    def test_sign_pattern(self):
        for kappa in KAPPA_GRID:
            cp = critical_points(kappa)
            below = np.linspace(0.0, cp.x1, 300, endpoint=False)
            inside = np.linspace(cp.x1, cp.x2, 300)[1:-1]
            above = np.geomspace(cp.x2, 10.0 * cp.x2, 301)[1:]
            assert np.all(lemma1_relation(below, kappa) < 0.0)
            assert np.all(lemma1_relation(inside, kappa) >= -1e-14)
            assert np.all(lemma1_relation(above, kappa) < 0.0)
            assert abs(lemma1_relation(cp.x1, kappa)) <= 1e-10
            assert abs(lemma1_relation(cp.x2, kappa)) <= 1e-10


class TestLemma2:
    def test_mills_relation_beyond_x1(self):
        for kappa in KAPPA_GRID:
            xs = np.geomspace(x1_point(kappa), 1000.0, 3000)
            assert np.all(kappa * xs * mills_ratio(xs) >= 1.0 - 1e-12)

    def test_threshold_equals_x1(self):
        # solving pi*kappa*x = (pi-1)*x + sqrt(x^2+2*pi) gives exactly x1
        for kappa in KAPPA_GRID:
            x1 = x1_point(kappa)
            lhs = math.pi * kappa * x1
            rhs = (math.pi - 1.0) * x1 + math.sqrt(x1 * x1 + 2.0 * math.pi)
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_boyd_condition_sharp_below_x1(self):
        x = x1_point(2.0) * (1.0 - 1e-6)
        cond = 2.0 * math.pi * x / ((math.pi - 1.0) * x + math.sqrt(x * x + 2 * math.pi))
        assert cond < 1.0


class TestBoydLower:
    def test_exact_at_zero(self):
        assert boyd_lower(0.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)
        assert boyd_lower(0.0) == pytest.approx(mills_ratio(0.0), rel=1e-15)

    def test_at_one(self):
        expect = math.pi / ((math.pi - 1.0) + math.sqrt(1.0 + 2.0 * math.pi))
        assert boyd_lower(1.0) == pytest.approx(expect, rel=1e-15)
        assert boyd_lower(1.0) == pytest.approx(0.6490450874232269, abs=1e-10)
        assert boyd_lower(1.0) <= mills_ratio(1.0)

    def test_dominated_by_mills_everywhere(self):
        xs = np.geomspace(1e-6, 1e4, 5000)
        assert np.all(boyd_lower(xs) <= mills_ratio(xs) * (1.0 + 1e-14))

    def test_quadrature_comparison_at_ten(self):
        assert boyd_lower(10.0) <= oracles.mills_quad(10.0)

    def test_dominance_chain_at_x1(self):
        for kappa in KAPPA_GRID:
            x1 = x1_point(kappa)
            assert boyd_lower(x1) <= mills_ratio(x1) * (1.0 + 1e-14)
            cond = (
                math.pi * kappa * x1
                / ((math.pi - 1.0) * x1 + math.sqrt(x1 * x1 + 2.0 * math.pi))
            )
            assert cond >= 1.0 - 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            boyd_lower(-1.0)


class TestChernoffUpper:
    def test_equality_at_zero(self):
        assert chernoff_upper(0.0) == 0.5 == q(0.0)

    def test_values(self):
        assert chernoff_upper(1.0) == pytest.approx(0.30326532985631671, rel=1e-15)
        assert chernoff_upper(1.0) >= q(1.0)
        assert chernoff_upper(3.0) == pytest.approx(0.0055544982691211531, rel=1e-15)
        assert chernoff_upper(3.0) >= oracles.q_quad(3.0)

    def test_dominates_q(self):
        xs = np.linspace(0.0, 10.0, 2000)
        assert np.all(q(xs) <= chernoff_upper(xs))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            chernoff_upper(-0.5)


class TestDerivativeIdentity:
    def test_one_at_origin(self):
        for kappa in KAPPA_GRID:
            assert df_dx_identity(0.0, kappa) == 1.0

    def test_matches_finite_difference(self):
        h_step = 1e-5
        for x, kappa in [(0.5, 2.0), (1.0, 1.5), (2.0, 3.0), (0.1, 100.0)]:
            fd = (f_diff(x + h_step, kappa) - f_diff(x - h_step, kappa)) / (2 * h_step)
            ident = df_dx_identity(x, kappa)
            assert ident == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_reduces_at_x1(self):
        # kappa*x1*r(x1) = 1 kills the last two terms
        x1 = x1_point(2.0)
        assert df_dx_identity(x1, 2.0) == pytest.approx(
            x1 * f_diff(x1, 2.0), abs=1e-10
        )
        assert df_dx_identity(x1, 2.0) <= 1e-10


class TestTheoremSweep:
    def test_full_grid(self):
        xs = np.arange(-10.0, 10.0 + 1e-9, 0.01)
        qs = q(xs)
        for kappa in (1.0,) + KAPPA_GRID:
            gs = g_lower(xs, kappa)
            assert np.all(gs - qs <= 1e-13 * qs), f"kappa={kappa}"
