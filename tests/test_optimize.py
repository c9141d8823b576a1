"""Tests for the parameter-selection searches."""
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qbound import (
    DomainError,
    alpha_coeff,
    g_lower,
    interval_kappa,
    kappa_star,
    max_weight,
    mills_ratio,
    q,
)
from qbound.bounds import rel_gap, x1_point
from qbound.optimize import _KAPPA_MIN, KAPPA_MAX, _bracketed_newton

SQRT_2PI = math.sqrt(2.0 * math.pi)


def tail_gaps(xs, kappa):
    """(Q - g)/Q at xs > 0, as 1 - r/R through logarithms, where neither Q
    nor g underflows."""
    log_ratio = (
        math.log(SQRT_2PI * alpha_coeff(kappa))
        - 0.5 * (kappa - 1.0) * xs * xs
        - np.log(mills_ratio(xs))
    )
    return -np.expm1(log_ratio)


def g_lower_call_ndims(monkeypatch):
    """The list the ndim of x of every call to g_lower from qbound.optimize
    is recorded in."""
    import qbound.optimize as opt

    calls = []
    real = opt.g_lower

    def counted(x, k):
        calls.append(np.ndim(x))
        return real(x, k)

    monkeypatch.setattr(opt, "g_lower", counted)
    return calls


def recording(step):
    """step, and the list the x of each of its calls is recorded in."""
    xs = []
    return (lambda x: xs.append(x) or step(x)), xs


class TestBracketedNewton:
    """The two exits of the safeguarded loop that no optimizer reaches on
    its own sweeps: bisection and the stop where the bracket has no room."""

    def test_bisects_while_newton_leaves_the_bracket(self):
        # the Newton step of atan(x - 0.3) overshoots far from the root
        def step(x):
            d = x - 0.3
            return math.atan(d) * (1.0 + d * d)

        step, xs = recording(step)
        assert _bracketed_newton(step, 10.0, -1.0, 20.0, 1.0) == (0.3, 7)
        # two midpoints of [-1, hi], then Newton's steps from 0.375
        assert xs[:4] == [10.0, 4.5, 1.75, 0.375]

    def test_stops_where_neither_step_nor_midpoint_fits(self):
        # [0, 1e-323] holds one double strictly inside, 5e-324, whose
        # bracket [0, 5e-324] has none: the loop stops there
        step, xs = recording(lambda x: -1.0 if x == 0.0 else 1.0)
        assert _bracketed_newton(step, 0.0, 0.0, 1e-323, 0.0) == (5e-324, 2)
        assert xs == [0.0, 5e-324]


class TestKappaStar:
    # anchors frozen from the dense-scan oracle (step 1e-4 over [1.01, 10])
    ANCHORS = {
        0.5: (2.2880, 0.011548),
        1.0: (1.5186, 0.009791),
        3.0: (1.0939, 0.001750),
    }

    @pytest.mark.parametrize("x", sorted(ANCHORS))
    def test_matches_scan_oracle(self, x):
        k_expect, gap_expect = self.ANCHORS[x]
        res = kappa_star(x)
        assert res.converged
        assert res.argument == pytest.approx(k_expect, abs=2e-3)
        assert res.gap == pytest.approx(gap_expect, abs=1e-5)

    def test_scan_oracle_agreement_live(self):
        k_scan, g_scan = oracles.kappa_scan(1.0)
        res = kappa_star(1.0)
        assert res.argument == pytest.approx(k_scan, abs=1e-3)
        assert res.objective >= g_scan - 1e-12

    def test_gap_below_two_percent(self):
        for x in [0.1, 0.5, 1.0, 2.0, 3.0, 6.0]:
            assert kappa_star(x).gap <= 0.02

    def test_true_local_maximum(self):
        for x in [0.5, 1.0, 3.0]:
            res = kappa_star(x)
            for delta in (-1e-4, 1e-4):
                assert g_lower(x, res.argument + delta) <= res.objective

    def test_deterministic(self):
        a = kappa_star(1.7)
        b = kappa_star(1.7)
        assert a == b

    def test_gap_in_unit_interval(self):
        res = kappa_star(2.5)
        assert 0.0 <= res.gap <= 1.0

    def test_zero_reports_nonconverged(self):
        res = kappa_star(0.0)
        assert not res.converged
        assert res.message

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            kappa_star(-1.0)

    @pytest.mark.parametrize("x", [-1.0, -5e-324, math.inf, math.nan])
    def test_message_names_the_domain(self, x):
        with pytest.raises(DomainError, match=rf"^kappa_star requires a finite x >= 0, got {x}$"):
            kappa_star(x)

    def test_deep_tail_matches_mpmath(self):
        # Q(50) and g underflow; frozen from mpmath at 40 digits: the root
        # of the kappa-slope of ln g and 1 - r/R there
        res = kappa_star(50.0)
        assert res.converged
        assert res.argument == pytest.approx(1.0003996805407757076, rel=1e-14)
        assert res.gap == pytest.approx(6.0991300580838724e-08, abs=1e-15)
        assert res.objective == 0.0

    def test_small_x_matches_mpmath(self):
        # frozen from bench/reference.kappa_star_ref at 40 digits; here the
        # slope's terms are ~1/kappa and cancel to ~1/kappa**2
        for x, expected in [(1e-4, 8525.485210949692354), (1e-3, 852.96325525689440946)]:
            res = kappa_star(x)
            assert res.converged
            assert res.argument == pytest.approx(expected, rel=1e-13)

    def test_newton_steps_on_a_log_sweep(self):
        solved = 0
        for x in np.geomspace(1e-4, 1e8, 241):
            res = kappa_star(float(x))
            if res.converged:  # else the root is clipped to an end
                solved += 1
                assert res.iterations <= 8, x
        assert solved > 150

    def test_cost_is_one_bisection(self, monkeypatch):
        calls = g_lower_call_ndims(monkeypatch)
        assert kappa_star(1.0).iterations <= 64
        assert calls == [0]  # the objective at the optimum, nothing else


class TestGapIsRelGap:
    """Both optimizers report the looseness bounds.rel_gap gives at the
    returned kappa, bit for bit, as a Python float."""

    @pytest.mark.parametrize("x", [0.0, 1e-4, 0.5, 1.0, 3.0, 50.0, 1e8])
    def test_kappa_star(self, x):
        res = kappa_star(x)
        assert type(res.gap) is float
        assert res.gap == rel_gap(x, res.argument)

    @pytest.mark.parametrize("x_lo, x_hi", [(0.05, 0.2), (0.5, 3.0), (1.0, 1.0), (30.0, 60.0)])
    def test_interval_kappa(self, x_lo, x_hi):
        res = interval_kappa(x_lo, x_hi)
        assert type(res.objective) is float
        assert res.objective == res.gap
        assert res.objective == max(rel_gap(x_lo, res.argument), rel_gap(x_hi, res.argument))

    # kappa_star(X) is 1 + 2.5e-9, where the true gap is 2.1e-17 and
    # 1 - r/R rounds to -2**-52
    X = 20055.62862182016

    def test_no_negative_gap_where_the_bound_is_tight(self):
        # +0.0, not -0.0, which == 0.0 would let through
        res = kappa_star(self.X)
        assert res.gap == 0.0 and math.copysign(1.0, res.gap) == 1.0
        xs = np.array([self.X, 3.0])
        assert rel_gap(xs, res.argument)[0] == 0.0
        assert not np.signbit(rel_gap(xs, res.argument)[0])
        assert rel_gap(xs, res.argument)[1] == rel_gap(3.0, res.argument) > 0.0

    def test_a_broken_bound_keeps_its_negative_gap(self, monkeypatch):
        # only rounding is returned as 0: alpha 16 ulps too large puts the
        # gap ~2**-48 below 0, past the rounding floor, scalar and array
        kappa = kappa_star(self.X).argument
        oracles.inflate_alpha(monkeypatch, 1.0 + 2.0**-48)
        gap = rel_gap(self.X, kappa)
        assert -(2.0**-47) < gap < -(2.0**-50)
        assert rel_gap(np.array([self.X, 3.0]), kappa)[0] == gap


class TestMaxWeight:
    def test_anchor_at_two(self):
        # frozen from the dense scan of Q(x)*exp(x^2) with quadrature Q
        res = max_weight(2.0)
        assert res.objective == pytest.approx(0.3930596222035738, rel=1e-9)
        assert res.argument == pytest.approx(0.612003, abs=1e-4)
        assert res.objective / alpha_coeff(2.0) == pytest.approx(1.0118, abs=2e-3)

    def test_scan_oracle_agreement_live(self):
        x_scan, v_scan = oracles.weight_scan(2.0)
        res = max_weight(2.0)
        assert res.objective <= v_scan + 1e-12  # a scan can only overshoot the inf

    def test_dominates_alpha(self):
        for kappa in [1.1, 1.5, 2.0, 5.0, 10.0, 100.0]:
            res = max_weight(kappa)
            assert res.objective >= alpha_coeff(kappa) * (1.0 - 1e-12)

    def test_approaches_half(self):
        res = max_weight(100.0)
        assert 0.49 < res.objective < 0.5

    def test_rejects_kappa_one(self):
        with pytest.raises(DomainError, match="max_weight requires kappa > 1, got 1.0"):
            max_weight(1.0)

    def test_huge_kappa(self):
        # (kappa-1)*c overflows here; alpha_max -> 1/2 as kappa -> inf
        for kappa in (1e200, 1e300):
            assert max_weight(kappa).objective == pytest.approx(0.5, rel=1e-15)

    def test_near_one_matches_mpmath(self):
        # Q(root) underflows here, so the objective must be taken in log space
        mp = pytest.importorskip("mpmath")
        kappa = 1.0 + 1e-6
        with mp.workdps(40):
            k = mp.mpf(kappa)

            def scaled(x):  # Q(x) * exp(kappa * x**2 / 2)
                return mp.erfc(x / mp.sqrt(2)) / 2 * mp.exp(k * x * x / 2)

            def slope(x):  # kappa*x*R(x) - 1
                return k * x * mp.sqrt(2 * mp.pi) * scaled(x) * mp.exp(-(k - 1) * x * x / 2) - 1

            root = mp.findroot(slope, mp.mpf(1000))
            expected = float(scaled(root))
        res = max_weight(kappa)
        assert res.converged
        assert res.objective == pytest.approx(expected, rel=1e-9)

    def test_huge_kappa_argument(self):
        # x1 no longer underflows to 0 there, so the root is solved for
        res = max_weight(1e200)
        assert res.argument == pytest.approx(7.978845608028654e-201, rel=1e-14, abs=0.0)
        assert 1 <= res.iterations <= 8

    def test_iterations_count_slope_evaluations(self, monkeypatch):
        import qbound.optimize as opt

        calls = []
        real = opt.mills_ratio
        monkeypatch.setattr(opt, "mills_ratio", lambda x: calls.append(x) or real(x))
        res = opt.max_weight(2.0)
        # every call but the last (the objective at the root) is a slope evaluation
        assert res.iterations == len(calls) - 1
        assert 1 <= res.iterations <= 8

    def test_newton_takes_at_most_eight_evaluations(self):
        for m in np.geomspace(1e-12, 1e300, 2000):
            res = max_weight(1.0 + m)
            assert 1 <= res.iterations <= 8, m

    def test_newton_lands_on_the_root(self):
        # On the same sweep the true slope kappa*x*R(x) - 1 at the argument
        # is as small as the slope's own rounding allows: ~eps below x = 512,
        # where kappa*x*R ~ 1, and ~eps*(kappa-1) past it, where the slope is
        # summed as (kappa-1) minus a series of the same size.  A solve that
        # stops before Newton's quadratic phase leaves far more than that.
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        for m in np.geomspace(1e-12, 1e300, 2000):
            kappa = 1.0 + m
            x = max_weight(kappa).argument
            with mp.workdps(60):
                k, xm = mp.mpf(kappa), mp.mpf(x)
                mills = mp.sqrt(mp.pi / 2) * mp.erfc(xm / mp.sqrt(2)) * mp.exp(xm * xm / 2)
                slope = float(abs(k * xm * mills - 1))
            scale = 1.0 if x < 512.0 else kappa - 1.0
            worst = max(worst, slope / (np.finfo(float).eps * scale))
        assert worst <= 4.0

    @pytest.mark.parametrize("m", [1e15, 1e16, 1e100, 1e300, 1e308, sys.float_info.max])
    def test_argument_at_most_x1(self, m):
        # here the root is x1 to rounding, and the solve's last step, of a
        # few ulps, is taken even where it crosses the rounded x1 (at 1e16,
        # 1e300 and 1e308 it does)
        res = max_weight(1.0 + m)
        assert 0.0 < res.argument <= x1_point(1.0 + m)

    @pytest.mark.parametrize("m", [1e-12, 1e-6, 1.0, 1e6, 1e200])
    def test_argument_matches_mpmath(self, m):
        # past x = 512 the slope is summed from its asymptotic series, so
        # the root holds at kappa - 1 = 1e-12, where kappa*x*R(x) - 1 cancels
        mp = pytest.importorskip("mpmath")
        res = max_weight(1.0 + m)
        with mp.workdps(50):
            k = mp.mpf(1.0 + m)

            def mills(x):
                return mp.sqrt(mp.pi / 2) * mp.erfc(x / mp.sqrt(2)) * mp.exp(x * x / 2)

            root = mp.findroot(lambda x: k * x * mills(x) - 1, mp.mpf(res.argument))
            objective = mp.exp((k - 1) * root * root / 2) * mills(root) / mp.sqrt(2 * mp.pi)
        assert res.argument == pytest.approx(float(root), rel=1e-15, abs=0.0)
        assert res.objective == pytest.approx(float(objective), rel=4e-15, abs=0.0)


class TestIntervalKappa:
    def test_degenerate_equals_pointwise(self):
        res = interval_kappa(1.0, 1.0)
        point = kappa_star(1.0)
        assert res.argument == pytest.approx(point.argument, abs=1e-4)
        assert res.objective == pytest.approx(point.gap, rel=1e-6)

    def test_half_to_three(self):
        # the spec sketch suggested <= 5% here, but no single kappa comes
        # close: the scan-oracle minimax worst-gap is ~26% at kappa ~ 1.24
        res = interval_kappa(0.5, 3.0)
        assert 1.1 < res.argument < 2.3
        assert res.objective == pytest.approx(0.2604, abs=5e-3)

    def test_scan_dominance(self):
        res = interval_kappa(0.5, 3.0)
        xs = np.geomspace(0.5, 3.0, 512)
        qs = q(xs)
        for kappa in np.linspace(1.05, 5.0, 100):
            scan_gap = float(np.max((qs - g_lower(xs, kappa)) / qs))
            assert res.objective <= scan_gap * (1.0 + 1e-9) + 1e-12

    def test_deterministic(self):
        assert interval_kappa(0.5, 2.0) == interval_kappa(0.5, 2.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            interval_kappa(0.0, 1.0)
        with pytest.raises(DomainError):
            interval_kappa(2.0, 1.0)

    @pytest.mark.parametrize("end", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_endpoint(self, end):
        for x_lo, x_hi in ((end, 1.0), (1.0, end)):
            with pytest.raises(DomainError, match="^interval endpoints must be finite$"):
                interval_kappa(x_lo, x_hi)

    def test_deep_tail_matches_mpmath(self):
        # frozen from mpmath at 40 digits: the endpoint gaps cross at kc,
        # inside [kappa_star(60), kappa_star(30)], where both equal the value
        res = interval_kappa(30.0, 60.0)
        assert res.converged
        assert res.argument == pytest.approx(1.0005128272031288456, rel=1e-14)
        assert res.objective == pytest.approx(0.11020586743738304, abs=1e-12)

    def test_no_array_evaluations(self, monkeypatch):
        calls = g_lower_call_ndims(monkeypatch)
        interval_kappa(0.5, 3.0)
        assert max(calls, default=0) == 0

    @given(
        st.floats(min_value=-3.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=1.0),
        st.floats(min_value=-6.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_grid_sup_is_at_an_endpoint(self, lo_log10, width_log10, km1_log10):
        x_lo = 10.0**lo_log10
        xs = np.geomspace(x_lo, x_lo * (1.0 + 10.0**width_log10), 512)
        gaps = tail_gaps(xs, 1.0 + 10.0**km1_log10)
        assert gaps.max() == pytest.approx(max(gaps[0], gaps[-1]), abs=1e-14)

    @pytest.mark.parametrize("x_lo, x_hi", [(0.05, 0.2), (0.5, 3.0), (2.0, 8.0), (30.0, 60.0)])
    def test_dense_scan_dominance(self, x_lo, x_hi):
        res = interval_kappa(x_lo, x_hi)
        xs = np.geomspace(x_lo, x_hi, 512)
        kappas = 1.0 + np.geomspace(1e-5, 1e3, 4001)
        scan = [tail_gaps(xs, kappa).max() for kappa in kappas]
        assert res.objective <= min(scan) + 1e-12


def checked(fn, *args):
    """fn(*args) with every warning an error, and every field finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fn(*args)
    assert all(math.isfinite(v) for v in (res.argument, res.objective, res.gap or 0.0)), res
    assert res.iterations >= 0
    return res


LARGEST = sys.float_info.max


def pow2(e):
    """2**e for e in [-1074, 1024], with e = 1024 standing for the largest
    double."""
    return LARGEST if e >= 1024.0 else 2.0**e


class TestWholeDoubleRange:
    """Every optimizer over the whole double range: finite fields, an
    argument inside its search range, a gap in [0, 1] and no warning."""

    @given(st.floats(min_value=0.0, max_value=LARGEST))
    @example(0.0)
    @example(5e-324)
    @example(LARGEST)
    @settings(max_examples=300, deadline=None)
    def test_kappa_star(self, x):
        res = checked(kappa_star, x)
        assert _KAPPA_MIN <= res.argument <= KAPPA_MAX
        assert 0.0 <= res.gap <= 1.0

    @given(st.floats(min_value=-52.0, max_value=1024.0))
    @example(-52.0)
    @example(1024.0)
    @settings(max_examples=300, deadline=None)
    def test_max_weight(self, log2_m):
        kappa = 1.0 + pow2(log2_m)
        res = checked(max_weight, kappa)
        assert 0.0 < res.argument <= x1_point(kappa)
        assert res.gap is None

    @given(st.floats(min_value=-1074.0, max_value=1024.0),
           st.floats(min_value=-1074.0, max_value=1024.0))
    @example(math.log2(1e-320), math.log2(1e-300))
    @example(1024.0, 1024.0)
    @settings(max_examples=300, deadline=None)
    def test_interval_kappa(self, log2_a, log2_b):
        x_lo, x_hi = sorted(pow2(e) for e in (log2_a, log2_b))
        res = checked(interval_kappa, x_lo, x_hi)
        assert _KAPPA_MIN <= res.argument <= KAPPA_MAX
        assert 0.0 <= res.gap <= 1.0
