"""Tests for the bound family and the proof-level functions."""
import dataclasses
import functools
import inspect
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qbound import (
    DomainError,
    KappaParam,
    alpha_coeff,
    boyd_lower,
    boyd_lower_q,
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
from qbound import special
from qbound.bounds import _q_and_g, rel_gap

SQRT_2PI = math.sqrt(2.0 * math.pi)
KAPPA_GRID = (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)


class TestKappaParam:
    def test_derived_quantities(self):
        k = KappaParam(2.0)
        assert k.kappa_minus_1 == 1.0
        assert k.c == pytest.approx(math.pi + 2.0, rel=1e-16)

    def test_kappa_is_the_one_field(self):
        # kappa_minus_1 and c are set once, outside the dataclass fields
        k = KappaParam(2.0)
        assert [f.name for f in dataclasses.fields(KappaParam)] == ["kappa"]
        assert repr(k) == "KappaParam(kappa=2.0)"
        assert k == KappaParam(2) and hash(k) == hash(KappaParam(2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.kappa = 3.0

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

    def test_huge_kappa_matches_mpmath(self):
        # (kappa-1)*c overflows past kappa ~ 7.5e153 and c itself past ~5.7e307
        mp = pytest.importorskip("mpmath")
        for kappa in (1e200, 1e300, 1.7976931348623157e308):
            with mp.workdps(40):
                k = mp.mpf(kappa)
                c = mp.pi * (k - 1) + 2
                expected = float(mp.exp(1 / c) / (2 * k) * mp.sqrt((k - 1) * c / mp.pi))
            assert alpha_coeff(kappa) == pytest.approx(expected, rel=1e-15)


class TestOverflowSwitch:
    """alpha and x1 change form where (kappa-1)*c overflows: both forms
    stay within one unit of 2**-53 of mpmath where they meet."""

    # the last kappa whose (kappa-1)*c is finite, and the next double
    KAPPAS = (7.564545572282618e153, 7.56454557228262e153)

    def test_kappas_straddle_the_switch(self):
        lo, hi = map(KappaParam, self.KAPPAS)
        assert math.nextafter(lo.kappa, math.inf) == hi.kappa
        assert lo.kappa_minus_1 * lo.c < math.inf == hi.kappa_minus_1 * hi.c

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_alpha_and_x1_match_mpmath(self, kappa):
        mp = pytest.importorskip("mpmath")
        k = KappaParam(kappa)
        with mp.workdps(40):
            km = mp.mpf(kappa)
            c = mp.pi * (km - 1) + 2
            alpha = mp.exp(1 / c) / (2 * km) * mp.sqrt((km - 1) * c / mp.pi)
            x1 = mp.sqrt(2 / ((km - 1) * c))
            for got, want in [(alpha_coeff(kappa), alpha), (k.alpha, alpha),
                              (x1_point(kappa), x1), (k.x1, x1)]:
                assert abs(got - want) <= 2**-53 * want

    def test_x1_of_kappa_one_is_a_domain_error(self):
        with pytest.raises(DomainError, match="requires kappa > 1, got 1.0"):
            KappaParam(1.0).x1


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

    def test_zero_without_warning_where_exponent_overflows(self):
        # kappa*x*x overflows here; Tier-1 turns a RuntimeWarning into an error
        for x, kappa in [(1e155, 2.0), (-1e200, 2.0), (1.7e308, 1.5), (10.0, 1e307)]:
            assert g_lower(x, kappa) == 0.0
            assert g_lower(np.array([x, 1.0]), kappa)[0] == 0.0
        assert g_lower(np.array([1e155, 1.0]), 2.0)[1] == g_lower(1.0, 2.0)

    def test_one_kappa_not_a_tuple(self):
        # a column of kappas is _q_and_g's alone
        for x in (0.5, np.float64(0.5), np.array(0.5), np.array([0.5])):
            with pytest.raises(TypeError):
                g_lower(x, (2.0, 3.0))


class TestTailWithoutWarnings:
    """Where x*x or (kappa-1)*x*x overflows, the kernels give the values
    frozen here, from before they shared one Gaussian factor, and no
    warning, which Tier-1 turns into an error.  Where kappa*x overflows,
    r is exactly 0, and lemma1_relation and df_dx_identity give -1 and
    1 - x*R(x).  Where x*x*(kappa-1) overflows, h(w) is -0, so
    crossing_condition gives its value at x = 0, where h(w) is 0."""

    CASES = [
        (q, (), 1e155, 0.0),
        (q, (), 1e300, 0.0),
        (g_lower, (2.0,), 1e155, 0.0),
        (g_lower, (2.0,), 1e300, 0.0),
        (r_scaled, (2.0,), 1e155, 0.0),
        (r_scaled, (2.0,), 1e300, 0.0),
        (f_diff, (2.0,), 1e155, -1e-155),
        (f_diff, (2.0,), 1e300, -9.999999999999999e-301),
        (lemma1_relation, (2.0,), 1e155, -1.0),
        (lemma1_relation, (2.0,), 1e300, -1.0),
        (df_dx_identity, (2.0,), 1e155, 0.0),
        (df_dx_identity, (2.0,), 1e300, 1.1102230246251565e-16),
        (chernoff_upper, (), 1e155, 0.0),
        (chernoff_upper, (), 1e300, 0.0),
        (r_scaled, (3.7e294,), 10.0, 0.0),
        (r_scaled, (3.7e294,), 1e8, 0.0),
        (f_diff, (3.7e294,), 10.0, -0.0990285964717319),
        (f_diff, (3.7e294,), 1e8, -1e-08),
        (lemma1_relation, (3.7e294,), 10.0, -1.0),
        (lemma1_relation, (3.7e294,), 1e8, -1.0),
        (df_dx_identity, (3.7e294,), 10.0, 0.009714035282681),
        (df_dx_identity, (3.7e294,), 1e8, 0.0),
        (lemma1_relation, (1e300,), 1e10, -1.0),
        (lemma1_relation, (2.0,), 1.7976931348623157e308, -1.0),
        (df_dx_identity, (1e300,), 1e10, 1.0 - 1e10 * mills_ratio(1e10)),
        (df_dx_identity, (1e200,), 1e200, 1.0 - 1e200 * mills_ratio(1e200)),
        (df_dx_identity, (2.0,), 1.7976931348623157e308, 1.1102230246251565e-16),
        (crossing_condition, (2.0,), 1e155, crossing_condition(0.0, 2.0)),
        (crossing_condition, (2.0,), 1.7976931348623157e308, crossing_condition(0.0, 2.0)),
        (crossing_condition, (1e300,), 1e10, crossing_condition(0.0, 1e300)),
        (crossing_condition, (1e300,), 1e8, crossing_condition(0.0, 1e300)),
    ]

    @pytest.mark.parametrize(
        "fn, args, x, want", CASES, ids=[f"{c[0].__name__}-{c[1]}-{c[2]}" for c in CASES]
    )
    def test_frozen_value_on_both_paths(self, fn, args, x, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(x, *args) == want
            assert fn(np.array([x, 1.0]), *args)[0] == want


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


class TestRelGap:
    @given(
        st.floats(min_value=-6.0, max_value=8.0),
        st.floats(min_value=-12.0, max_value=300.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath(self, x_log10, m_log10):
        """1 - r/R at 50 digits, to 2e-15 plus the error that rounding the
        exponent E = (kappa-1)*x**2/2 to a double must cause, (r/R)*E*2**-53."""
        mp = pytest.importorskip("mpmath")
        x, kappa = 10.0**x_log10, 1.0 + 10.0**m_log10
        with mp.workdps(50):
            xm, m = mp.mpf(x), mp.mpf(kappa) - 1
            c = mp.pi * m + 2
            alpha = mp.exp(1 / c) / (2 * (m + 1)) * mp.sqrt(m * c / mp.pi)
            log_r = mp.log(mp.sqrt(2 * mp.pi) * alpha) - m * xm * xm / 2
            log_mills = mp.log(mp.sqrt(mp.pi / 2) * mp.erfc(xm / mp.sqrt(2))) + xm * xm / 2
            ratio = mp.exp(log_r - log_mills)
            want, ratio = float(1 - ratio), float(ratio)
        tol = 2e-15 + ratio * (kappa - 1.0) * x * x / 2.0 * 2.0**-53
        got = rel_gap(x, kappa)
        assert abs(got - want) <= tol
        assert rel_gap(np.array([x, 1.0]), kappa)[0] == got

    def test_is_the_table_tail_gap(self):
        # the table's x > 20 column, operation for operation: no table byte moves
        xs = np.array([20.5, 37.5, 45.0, 300.0])
        k = KappaParam(1.0001)
        want = 1.0 - alpha_coeff(k) * np.exp(-0.5 * k.kappa_minus_1 * xs * xs) / (
            mills_ratio(xs) / SQRT_2PI
        )
        assert np.array_equal(rel_gap(xs, k), want)

    def test_checks_x_like_every_kernel(self):
        for x in (-1.0, -math.inf, math.nan, np.array([2.0, -0.5]), np.array([2.0, math.inf])):
            with pytest.raises(DomainError):
                rel_gap(x, 2.0)
        assert type(rel_gap(25.0, 2.0)) is float
        assert type(rel_gap(np.float64(25.0), 2.0)) is float


class TestCriticalPoints:
    def test_x1_closed_form_at_two(self):
        x1 = x1_point(2.0)
        assert x1 == pytest.approx(0.6236862429526105, rel=1e-14)
        assert x1 == pytest.approx(math.sqrt(2.0 / (math.pi + 2.0)), rel=1e-15)
        # w1 = x1^2*(1-kappa) solves the crossing relation with equality
        assert abs(crossing_condition(x1, 2.0)) < 1e-14

    def test_x1_huge_kappa_matches_mpmath(self):
        # frozen from mpmath at 50 digits; (kappa-1)*c overflows past ~7.5e153
        for kappa, x1 in [
            (1e200, 7.978845608028653800e-201),
            (1e300, 7.978845608028653140e-301),
            (1.7976931348623157e308, 4.438380195872388862e-309),  # subnormal
        ]:
            assert x1_point(kappa) == pytest.approx(x1, rel=1e-15, abs=5e-324)

    def test_x1_near_degenerate_leading_term(self):
        kappa = 1.0 + 1e-6
        assert x1_point(kappa) == pytest.approx(
            1.0 / math.sqrt(kappa - 1.0), rel=1e-3
        )

    def test_x2_at_two_matches_bisection(self):
        # frozen from bisection on x^2(1-k)exp(x^2(1-k)) = z over [1, 3]
        assert x2_point(2.0) == pytest.approx(1.4324906895398995, abs=1e-12)

    def test_ordering_and_lambert_preimages(self):
        # and the ends of the kappa range: at 1 + 2**-52, x1 and the pivot
        # are closest (67108863.999999985 against 67108864); past ~5.7e15,
        # x2 may be a DomainError
        for kappa in KAPPA_GRID + (1.0 + 2.0**-52, 1.0 + 1e-12, 1e6, 1e12, 5e15):
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


class TestX2NewtonSolve:
    """x2 comes from one Newton solve of psi(s) = psi(t); where 1 - t rounds
    to 0 or c overflows, it is a DomainError."""

    @pytest.mark.parametrize(
        "kappa, cause",
        [
            (1.2e16, "1 - t rounds to 0"),
            (1e100, "1 - t rounds to 0"),
            (5.8e307, "c = pi\\*\\(kappa-1\\) \\+ 2 overflows"),
            (sys.float_info.max, "c = pi\\*\\(kappa-1\\) \\+ 2 overflows"),
        ],
    )
    def test_domain_error_past_the_limit_names_its_cause(self, kappa, cause):
        with pytest.raises(DomainError, match=f"x2_point: at kappa = .*, {cause}"):
            x2_point(kappa)

    def test_at_most_ten_newton_steps(self, monkeypatch):
        # each x2_point evaluates log1p once for its target, at most once
        # for its start and once per Newton step, plus the step that ends
        # the solve: more than 12 calls would mean more than 10 steps
        calls = []
        log1p = math.log1p

        def counted(v):
            calls.append(v)
            return log1p(v)

        monkeypatch.setattr(math, "log1p", counted)
        most = 0
        for m in np.geomspace(1e-12, 1e16, 20000):
            calls.clear()
            try:
                x2_point(1.0 + float(m))
            except DomainError:  # 1 - t rounds to 0, at some m past 5.7e15
                assert m > 5.7e15
            most = max(most, len(calls))
        assert 2 <= most <= 12


class TestCrossingCondition:
    @given(
        st.floats(min_value=-160.0, max_value=8.0).map(lambda e: 10.0**e),
        st.floats(min_value=-12.0, max_value=math.log10(sys.float_info.max) - 1e-12).map(
            lambda e: 1.0 + 10.0**e
        ),
    )
    @example(8.695287148348957, 7.587616060873651e139)
    @example(1.0, 5.8e307)
    @example(1.0, sys.float_info.max)
    @example(1e-160, 1e200)
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath(self, x, kappa):
        """h(w) - h(w1) at 60 digits, to 8 units of 2**-53 in the size of its
        terms, |h(w)| + |h(w1)|, times 1 + |w| for the rounding of w."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            w = mp.mpf(x) ** 2 * (1 - mp.mpf(kappa))
            a = 2 / (mp.pi * (mp.mpf(kappa) - 1) + 2)
            hw, z = w * mp.exp(w), -a * mp.exp(-a)
            want = hw - z
            tol = 8 * mp.mpf(2) ** -53 * (abs(hw) + abs(z)) * (1 + abs(w))
        got = crossing_condition(x, kappa)
        assert math.isfinite(got)
        assert abs(got - want) <= tol
        assert crossing_condition(np.array([x, 1.0]), kappa)[0] == got

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

    def test_equals_mills_at_zero_on_both_scales(self):
        assert boyd_lower(0.0) == mills_ratio(0.0)
        assert boyd_lower_q(0.0) == q(0.0) == 0.5
        assert boyd_lower(np.zeros(2)).tolist() == [mills_ratio(0.0)] * 2

    def test_below_mills_without_slack(self):
        xs = np.linspace(1e-12, 50.0, 100_000)
        assert np.all(boyd_lower(xs) <= mills_ratio(xs))

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

    def test_matches_mpmath_where_x_squared_overflows(self):
        # ~1/x past x ~ 1.3e154, on both paths and without a warning; the
        # Q-scale bound underflows to 0 there
        mp = pytest.importorskip("mpmath")
        for x in (1.3407807929942597e154, 1e155, 1e300, 1.7976931348623157e308):
            with mp.workdps(40):
                X = mp.mpf(x)
                expected = float(mp.pi / ((mp.pi - 1) * X + mp.sqrt(X * X + 2 * mp.pi)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert boyd_lower(x) == pytest.approx(expected, rel=1e-13, abs=0.0)
                arr = boyd_lower(np.array([0.0, x]))
                assert arr[1] == pytest.approx(expected, rel=1e-13, abs=0.0)
                assert arr[0] == boyd_lower(0.0)
                assert boyd_lower_q(x) == 0.0


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


class TestQAndG:
    """_q_and_g(x, kappas): the pair (q(x), g), g with one row per kappa,
    bit for bit q(x) and g_lower(x, kappa)."""

    KAPPAS = (1.0, 1.0 + 2.0**-52, 1.0 + 1e-10, 2.0, 1e200, sys.float_info.max)
    # q runs in blocks past _BLOCK points; the g rows run in one pass
    SIZES = (1, 201, special._BLOCK // 4 - 1, special._BLOCK // 4 + 1, special._BLOCK + 7)
    EDGES = (0.0, 5e-324, 2.0**512, sys.float_info.max)

    @pytest.mark.parametrize("kappas", [KAPPAS, KAPPAS[1:6:2]], ids=["six", "three"])
    @pytest.mark.parametrize("n", SIZES)
    def test_rows_equal_q_and_g_lower(self, n, kappas, monkeypatch):
        x = oracles.blocked_xs(0)[:n].copy()
        x[:min(n, 8)] = [s * v for v in self.EDGES for s in (1.0, -1.0)][:min(n, 8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = [g_lower(x, k).tobytes() for k in kappas]
            for workers in (1, 2):
                with oracles.block_workers(monkeypatch, workers):
                    qx, g = _q_and_g(x, kappas)
                assert qx.tobytes() == q(x).tobytes(), workers
                assert g.shape == (len(kappas), n)
                assert [row.tobytes() for row in g] == want, workers

    def test_scalars_and_shapes(self):
        x = np.linspace(-3.0, 3.0, 12)
        qx, g = _q_and_g(x, (2.0, KappaParam(1.5)))
        assert qx.tobytes() == q(x).tobytes()
        assert g.shape == (2, 12)
        assert g[1].tobytes() == g_lower(x, 1.5).tobytes()
        qx, g = _q_and_g(x, ())
        assert qx.tobytes() == q(x).tobytes() and g.shape == (0, 12)
        with pytest.raises(DomainError):
            _q_and_g(x, (2.0, 0.5))
        with pytest.raises(DomainError, match="x must be finite"):
            _q_and_g(np.array([1.0, math.inf]), (2.0,))


class TestBlockedPath:
    """Every bound kernel on an array of more than one block gives the same
    bytes as on chunks of at most one block, and keeps the input's shape."""

    WITH_KAPPA = [g_lower, r_scaled, f_diff, rel_gap, crossing_condition, lemma1_relation,
                  df_dx_identity]
    KERNELS = WITH_KAPPA + [boyd_lower, chernoff_upper, boyd_lower_q]

    @pytest.mark.parametrize("fn", KERNELS, ids=lambda fn: fn.__name__)
    def test_blocked_equals_chunked(self, fn, monkeypatch):
        x = oracles.blocked_xs(0 if fn is g_lower else 1)
        kappas = (1.0 + 1e-12, 2.0, 1e200) if fn in self.WITH_KAPPA else (None,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa in kappas:
                args = () if kappa is None else (kappa,)
                want = oracles.chunked(fn, x, *args).tobytes()
                for n in oracles.WORKER_COUNTS:
                    with oracles.block_workers(monkeypatch, n):
                        assert fn(x, *args).tobytes() == want, (kappa, n)
                        grid = x.reshape(11, -1)
                        assert fn(grid, *args).shape == grid.shape
                        assert fn(grid, *args).tobytes() == want, (kappa, n)

    def test_public_functions_entered_from_the_calling_thread(self, monkeypatch):
        # As bench/spans.py's tracer does, every function in the __all__ of
        # bounds and special is swapped, in every namespace, for a wrapper
        # that is not safe to enter from a block thread: no kernel body may
        # call one.  Each kernel is called through its wrapper.
        import qbound
        from qbound import bounds, cli, optimize, special, verify

        entered = []

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                entered.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        wrappers = {fn: wrap(fn) for mod in (bounds, special)
                    for fn in map(mod.__dict__.get, mod.__all__) if inspect.isfunction(fn)}
        for mod in (qbound, special, bounds, optimize, verify, cli):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[value])
        k = (2.0,)
        calls = [(special.q, ()), (special.mills_ratio, ()), (bounds.g_lower, k),
                 (bounds.r_scaled, k), (bounds.f_diff, k), (bounds.df_dx_identity, k),
                 (bounds.boyd_lower_q, ()), (bounds.chernoff_upper, ()),
                 (bounds.crossing_condition, k), (bounds.lemma1_relation, k),
                 (bounds.rel_gap, k)]  # rel_gap is not in __all__: not wrapped itself
        x = oracles.blocked_xs(1)
        with oracles.block_workers(monkeypatch, 3):
            for fn, args in calls:
                assert fn(x, *args).tobytes() == oracles.chunked(fn, x, *args).tobytes()
        assert {name for name, _ in entered} == {fn.__name__ for fn, _ in calls[:-1]}
        assert {ident for _, ident in entered} == {threading.get_ident()}
