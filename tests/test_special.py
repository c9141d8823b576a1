"""Tests for the special-function kernels."""
import importlib.util
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qbound import bounds, special
from qbound import (
    BRANCH_POINT,
    DomainError,
    LambertBranch,
    UsageError,
    lambert_w,
    mills_ratio,
    q,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# Every kernel behind special.elementwise, and whether it takes a kappa.
ELEMENTWISE = [
    (special.q, False),
    (special.mills_ratio, False),
    (bounds.g_lower, True),
    (bounds.r_scaled, True),
    (bounds.f_diff, True),
    (bounds.rel_gap, True),
    (bounds.crossing_condition, True),
    (bounds.lemma1_relation, True),
    (bounds.df_dx_identity, True),
    (bounds.boyd_lower, False),
    (bounds.chernoff_upper, False),
    (bounds.boyd_lower_q, False),
]


def _outcome(fn, x, args, one):
    """(value bits or exception type and message, warning categories) of
    fn(x, *args); one picks the single element out of an array result."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(x, *args)
            value = np.float64(one(out)).tobytes()
        except Exception as exc:  # compared by type and message below
            value = (type(exc), str(exc))
    return value, sorted({w.category.__name__ for w in caught})


class TestQ:
    def test_at_zero(self):
        assert q(0.0) == 0.5

    def test_anchor_from_quadrature(self):
        # frozen from the quadrature oracle over the density
        assert q(1.0) == pytest.approx(0.15865525393145707, rel=1e-14)
        assert q(1.0) == pytest.approx(oracles.q_quad(1.0), rel=1e-13)

    def test_complement(self):
        for x in np.linspace(0.0, 8.0, 161):
            assert q(x) + q(-x) == pytest.approx(1.0, abs=1e-14)

    def test_strictly_decreasing(self):
        # above x ~ 6 on the left, 1 - Q drops below one ulp of 1.0 and
        # neighbouring values collide; strictness is testable inside that
        xs = np.linspace(-6.0, 8.0, 2001)
        vals = q(xs)
        assert np.all(np.diff(vals) < 0.0)

    def test_budget_in_the_bulk_is_its_floor(self):
        v = q(3.0)
        assert 0.0 < v < 1.0
        assert oracles.q_budget(3.0, v) <= 1e-14 + 1e-20

    def test_budget_holds_against_mpmath(self):
        # rounding x*x in exp(-x*x/2) alone costs up to x*x/2 units of
        # 2**-53 (5.7e-14 at x = 32.4), past a fixed 1e-14 budget
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261018)
        xs = np.concatenate([[-38.0, 0.0, 32.4, 37.5], rng.uniform(-38.0, 37.5, 2000)])
        with mp.workdps(40):
            for x in xs:
                got = q(float(x))
                want = mp.erfc(mp.mpf(float(x)) / mp.sqrt(2)) / 2
                err = float(abs((mp.mpf(got) - want) / want))
                assert err <= oracles.q_budget(float(x), got), x

    @pytest.mark.parametrize("x", [38.5, 40.0, 1e300])
    def test_past_underflow(self, x):
        # Q is 0 from x ~38.49: no relative accuracy is left
        assert q(x) == 0.0

    def test_subnormal_budget_is_its_spacing(self):
        mp = pytest.importorskip("mpmath")
        v = q(38.0)
        assert 0.0 < v < sys.float_info.min
        assert v == pytest.approx(2.885e-316, rel=1e-3)
        assert oracles.q_budget(38.0, v) == math.ulp(v) / v
        with mp.workdps(40):
            want = mp.erfc(mp.mpf(38.0) / mp.sqrt(2)) / 2
            assert float(abs((mp.mpf(v) - want) / want)) <= math.ulp(v) / v

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            q(math.nan)
        with pytest.raises(DomainError):
            q(math.inf)

    def test_consistency_with_mills(self):
        # sqrt(2*pi)*Q(x)*exp(x^2/2) == R(x), below the overflow threshold
        for x in np.linspace(0.0, 30.0, 301):
            lhs = SQRT_2PI * q(x) * math.exp(0.5 * x * x)
            assert lhs == pytest.approx(mills_ratio(x), rel=1e-12)


class TestMillsRatio:
    def test_at_zero(self):
        assert mills_ratio(0.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)

    def test_at_one(self):
        # sqrt(2*pi)*Q(1)*exp(1/2), frozen from the quadrature oracle
        assert mills_ratio(1.0) == pytest.approx(0.6556795424187985, rel=1e-14)

    def test_quadrature_cross_check(self):
        for x in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]:
            assert mills_ratio(x) == pytest.approx(oracles.mills_quad(x), rel=1e-12)

    def test_classical_upper_bound(self):
        # R(x) < 1/x for all x > 0; the margin is ~1/x^3, so at x = 1e8 it
        # falls below one ulp and only <= survives rounding
        for x in [0.5, 1.0, 5.0, 50.0, 1e4]:
            assert mills_ratio(x) < 1.0 / x
        assert mills_ratio(1e8) <= (1.0 / 1e8) * (1.0 + 1e-15)

    def test_large_argument_stability(self):
        # no overflow anywhere on [0, 1e8]
        xs = np.geomspace(1e-3, 1e8, 1000)
        vals = mills_ratio(xs)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 50.0, 10001)
        assert np.all(np.diff(mills_ratio(xs)) < 0.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            mills_ratio(-0.1)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(BRANCH_POINT, LambertBranch.PRINCIPAL) == -1.0
        assert lambert_w(BRANCH_POINT, LambertBranch.NEGATIVE) == -1.0

    def test_negative_branch_example(self):
        # frozen from bisection on w*exp(w) = -0.26365 over [-10, -1]
        w = lambert_w(-0.26365, LambertBranch.NEGATIVE)
        assert w == pytest.approx(-2.0518980613997906, abs=1e-12)
        assert w == pytest.approx(
            oracles.lambert_bisect(-0.26365, -10.0, -1.0), abs=1e-12
        )

    def test_branch_ranges(self):
        for z in [-0.3, -0.1, -1e-5, 0.5, 3.0, 1e6]:
            assert lambert_w(z, LambertBranch.PRINCIPAL) >= -1.0
        for z in [-0.36, -0.2, -1e-5, -1e-100]:
            assert lambert_w(z, LambertBranch.NEGATIVE) <= -1.0

    def test_round_trip_grid(self):
        ws = np.linspace(-700.0, 0.0, 10000)
        for w in ws:
            z = w * math.exp(w)
            branch = (
                LambertBranch.PRINCIPAL if w >= -1.0 else LambertBranch.NEGATIVE
            )
            assert lambert_w(z, branch) == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("branch, past", [
        (LambertBranch.PRINCIPAL, -math.inf),
        (LambertBranch.NEGATIVE, math.inf),
    ])
    def test_a_root_past_the_branch_boundary_is_clamped(self, branch, past, monkeypatch):
        # newton's root one ulp across w = -1 comes back as -1 on either branch
        starts = []
        monkeypatch.setattr(special, "newton",
                            lambda step, w: starts.append(w) or math.nextafter(-1.0, past))
        assert lambert_w(-0.36, branch) == -1.0
        assert len(starts) == 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w(-0.4)  # below -1/e, no real solution
        with pytest.raises(DomainError):
            lambert_w(0.5, LambertBranch.NEGATIVE)
        with pytest.raises(DomainError):
            lambert_w(math.nan)

    @pytest.mark.parametrize("branch", ["principal", "negative", None, 0])
    def test_branch_not_a_member_is_a_usage_error(self, branch):
        # unchecked, each took the negative branch: W_-1(-0.1) for W_0(-0.1),
        # and a negative-branch domain error at z = 1
        for z in (-0.1, 1.0):
            with pytest.raises(UsageError) as info:
                lambert_w(z, branch)
            assert str(info.value) == f"branch must be a LambertBranch, got {branch!r}"
        assert lambert_w(-0.1) == lambert_w(-0.1, LambertBranch.PRINCIPAL) == -0.11183255915896297
        assert lambert_w(-0.1, LambertBranch.NEGATIVE) == -3.577152063957297

    @given(st.floats(min_value=-5.0, max_value=-1e-3))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property_negative_side(self, w):
        z = w * math.exp(w)
        branch = LambertBranch.PRINCIPAL if w >= -1.0 else LambertBranch.NEGATIVE
        got = lambert_w(z, branch)
        # conditioning: dw/dz = 1/((1+w)e^w) blows up at the branch point
        tol = max(1e-12, 5e-15 * abs(w) / max(abs(1.0 + w), 1e-12))
        assert got == pytest.approx(w, abs=tol)

    @given(st.floats(min_value=1e-300, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_residual_property_principal(self, z):
        w = lambert_w(z, LambertBranch.PRINCIPAL)
        assert abs(w * math.exp(w) - z) <= 1e-14 * max(abs(z), 1e-300)

    @staticmethod
    def worst_units(zs, branch):
        """The largest relative error of lambert_w on zs against mpmath (40
        digits), in units of 2**-53.  Relative error, not the residual: past
        w ~200, the residual of a correctly rounded w exceeds 1e-14*|z|."""
        mp = pytest.importorskip("mpmath")
        k = 0 if branch is LambertBranch.PRINCIPAL else -1
        worst = 0.0
        with mp.workdps(40):
            for z in zs:
                ref = mp.lambertw(mp.mpf(z), k).real
                err = abs((mp.mpf(lambert_w(z, branch)) - ref) / ref)
                worst = max(worst, float(err) * 2.0**53)
        return worst

    def test_negative_branch_deep_tail_against_mpmath(self):
        # |z| <= 1e-300, subnormals included: exp(w) is subnormal or 0 where
        # w < -708, and w*exp(w) - z cannot be formed there
        rng = np.random.default_rng(20261018)
        zs = [-5e-324, -sys.float_info.min, -1e-300]
        zs += (-np.exp(rng.uniform(math.log(5e-324), math.log(1e-300), 1000))).tolist()
        assert self.worst_units(zs, LambertBranch.NEGATIVE) <= 4.0

    def test_principal_branch_up_to_the_largest_double_against_mpmath(self):
        # w*exp(w) overflows long before z does; w ~703 at the largest double
        rng = np.random.default_rng(20261019)
        zs = [1e6, sys.float_info.max]
        zs += np.exp(rng.uniform(math.log(1e6), math.log(sys.float_info.max), 1000)).tolist()
        assert self.worst_units(zs, LambertBranch.PRINCIPAL) <= 4.0

    @pytest.mark.parametrize("branch, k, series_bound", [
        (LambertBranch.PRINCIPAL, 0, 0.7),
        (LambertBranch.NEGATIVE, -1, 1.01),
    ])
    def test_near_the_branch_point_against_mpmath(self, branch, k, series_bound):
        # z - BRANCH_POINT log-spaced in [1e-16, 0.37]: the series where
        # 2*(e*z + 1) < 0.04, Halley's steps past it, where |1 + w| > 0.18;
        # the worst relative errors in units of 2**-53 (60 digits), as the
        # docstring states them; the steps' measured 4.7 runs through the
        # platform's exp and log, so its bound leaves margin
        mp = pytest.importorskip("mpmath")
        series = steps = 0.0
        with mp.workdps(60):
            for z in (BRANCH_POINT + np.geomspace(1e-16, 0.37, 2000)).tolist():
                if k == -1 and z >= 0.0:
                    continue
                w = lambert_w(z, branch)
                assert w > -1.0 if k == 0 else w < -1.0
                ref = mp.lambertw(mp.mpf(z), k).real
                err = float(abs((mp.mpf(w) - ref) / ref)) * 2.0**53
                if 2.0 * math.e * ((z - BRANCH_POINT) + special._INV_E_LO) < 0.04:
                    series = max(series, err)
                else:
                    steps = max(steps, err)
        assert series <= series_bound
        assert steps <= 6.0

    def test_series_coefficients_are_the_recurrences(self):
        # Corless et al. 1996, eqs. 4.23-4.24, in exact rationals, each
        # rounded once to a double
        from fractions import Fraction
        mu, alpha = [Fraction(-1), Fraction(1)], [Fraction(2), Fraction(-1)]
        for j in range(2, 18):
            alpha.append(sum((mu[i] * mu[j + 1 - i] for i in range(2, j)), Fraction(0)))
            mu.append(Fraction(j - 1, j + 1) * (mu[j - 2] / 2 + alpha[j - 2] / 4)
                      - alpha[j] / 2 - mu[j - 1] / (j + 1))
        assert special._W_SERIES == tuple(float(m) for m in mu[17:0:-1])
        assert mu[2:5] == [Fraction(-1, 3), Fraction(11, 72), Fraction(-43, 540)]

    def test_subnormal_z_on_both_branches(self):
        # each power of two below the smallest normal double, its neighbours
        # and random mantissas: a finite w on the branch's side of -1
        rng = np.random.default_rng(7)
        powers = [math.ldexp(1.0, e) for e in range(-1074, -1022)]
        tiny = [v for t in powers for v in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0))]
        tiny = [t for t in tiny if t > 0.0] + (rng.integers(1, 2**52, 1000) * 5e-324).tolist()
        for t in tiny:
            assert 0.0 < t < sys.float_info.min
            for z, branch in (
                (t, LambertBranch.PRINCIPAL),
                (-t, LambertBranch.PRINCIPAL),
                (-t, LambertBranch.NEGATIVE),
            ):
                w = lambert_w(z, branch)
                assert math.isfinite(w), (z, branch)
                if branch is LambertBranch.PRINCIPAL:
                    assert w >= -1.0, (z, branch)
                else:
                    assert w <= -1.0, (z, branch)


# The draws of the elementwise property tests: bulk, tail and non-finite x;
# kappa - 1 log-uniform in [1e-12, 1e300], kappa < 1 and kappa = 1.
X_DRAWS = st.one_of(
    st.floats(min_value=-40.0, max_value=40.0),
    st.floats(allow_nan=True, allow_infinity=True),  # the tail and non-finite x
)
KAPPA_DRAWS = st.one_of(
    st.floats(min_value=-12.0, max_value=300.0).map(lambda e: 1.0 + 10.0**e),
    st.floats(min_value=0.5, max_value=1e300),  # kappa < 1 is a domain error
    st.just(1.0),
)


def _tail_examples(test):
    """Points where x*x or (kappa-1)*x*x overflows, and their neighbours."""
    for x, kappa in [(1e155, 2.0), (1e300, 1e300), (10.0, 3.7e294), (1e8, 3.7e294)]:
        test = example(x, kappa)(test)
    return test


# Each composite kernel with its defining expression in the public kernels.
# crossing_condition(0, kappa) = h(0) - h(w1) = -h(w1), h(w) = w*exp(w).
# Its w is (1 - kappa)*x*x: x*x alone goes subnormal first (at x = 1e-160
# and kappa = 1e200, x*x*(1 - kappa) is 1.1e-5 off, relative).
COMPOSITES = [
    (bounds.f_diff, lambda x, k: bounds.r_scaled(x, k) - special.mills_ratio(x)),
    (bounds.lemma1_relation, lambda x, k: k * x * bounds.r_scaled(x, k) - 1.0),
    (
        bounds.df_dx_identity,
        lambda x, k: x * bounds.f_diff(x, k) + 1.0 - k * x * bounds.r_scaled(x, k),
    ),
    (
        bounds.crossing_condition,
        lambda x, k: (w := (1.0 - k) * x * x) * np.exp(w) + bounds.crossing_condition(0.0, k),
    ),
]

# the definitions of the two composites with kappa*x*r, where kappa*x
# overflows and r = 0 makes that term 0
WITHOUT_KXR = {
    bounds.lemma1_relation: lambda x, k: np.full_like(x, -1.0, dtype=float),
    bounds.df_dx_identity: lambda x, k: x * bounds.f_diff(x, k) + 1.0,
}


class TestElementwiseGuard:
    @given(X_DRAWS, KAPPA_DRAWS)
    @example(math.nan, 2.0)
    @example(-math.inf, 2.0)
    @example(-1.0, 2.0)
    @_tail_examples
    @settings(max_examples=300, deadline=None)
    def test_scalar_0d_and_1d_agree(self, x, kappa):
        # a 0-d x takes the scalar branch of the guard, a 1-element array
        # the array branch: same bits, exception and warning category
        for fn, takes_kappa in ELEMENTWISE:
            args = (kappa,) if takes_kappa else ()
            scalar = _outcome(fn, x, args, lambda out: out)
            assert _outcome(fn, np.array(x), args, lambda out: out) == scalar, fn.__name__
            one = _outcome(fn, np.array([x]), args, lambda out: out[0])
            assert one == scalar, fn.__name__

    @given(X_DRAWS, KAPPA_DRAWS)
    @_tail_examples
    @settings(max_examples=300, deadline=None)
    def test_composites_equal_their_definitions(self, x, kappa):
        # bit for bit, on the scalar and the array path, wherever the
        # composite is defined (the test above covers its domain errors)
        for xv, one in ((x, lambda out: out), (np.array([x]), lambda out: out[0])):
            for fn, define in COMPOSITES:
                got = _outcome(fn, xv, (kappa,), one)[0]
                if not isinstance(got, bytes):
                    continue
                if fn is bounds.crossing_condition and not math.isfinite((1.0 - kappa) * x * x):
                    continue  # w*exp(w) is nan at w = -inf
                if fn in WITHOUT_KXR and math.isinf(kappa * x):
                    # the definition's kappa*x*r is inf*0, yet r is exactly
                    # +0 there: compare with the definition less that term
                    assert _outcome(bounds.r_scaled, xv, (kappa,), one)[0] == bytes(8)
                    define = WITHOUT_KXR[fn]
                assert _outcome(define, xv, (kappa,), one)[0] == got, fn.__name__

    @pytest.mark.parametrize(
        "x, first", [([0.0, math.nan, math.inf], "nan"), ([0.0, -math.inf, math.nan], "-inf")]
    )
    def test_array_message_names_the_first_non_finite_value(self, x, first):
        for fn, takes_kappa in ELEMENTWISE:
            args = (2.0,) if takes_kappa else ()
            with pytest.raises(DomainError, match=f"must be finite, got {first}$"):
                fn(np.array(x), *args)

    def test_signed_zeros_pass_every_kernel(self):
        # -0.0 >= 0 for the sign=1 kernels
        x = np.array([-0.0, 0.0, -0.0])
        for fn, takes_kappa in ELEMENTWISE:
            args = (2.0,) if takes_kappa else ()
            assert fn(x, *args).shape == (3,), fn.__name__
            fn(-0.0, *args)

    def test_empty_array_gives_an_empty_array(self):
        for fn, takes_kappa in ELEMENTWISE:
            args = (2.0,) if takes_kappa else ()
            for shape in ((0,), (0, 3)):
                assert fn(np.empty(shape), *args).shape == shape, fn.__name__

    def test_scalar_result_is_a_python_float(self):
        # boyd_lower's branch for x >= 2**512 builds 0-d arrays
        for x in (0.5, 1.4e154, 2.0**512, sys.float_info.max):
            for fn, takes_kappa in ELEMENTWISE:
                args = (2.0,) if takes_kappa else ()
                for form in (x, np.float64(x), np.array(x)):
                    assert type(fn(form, *args)) is float, (fn.__name__, form)
                assert fn(np.array([x]), *args).shape == (1,)

    @pytest.mark.parametrize("x", [1e154, 1e300, sys.float_info.max])
    @pytest.mark.parametrize("kappa", [
        1.0, 1.0 + 2.0**-52, 7.564545572282618e153, 7.56454557228262e153, sys.float_info.max,
    ])
    def test_scalar_equals_one_element_array_where_products_overflow(self, x, kappa):
        # x*x, or kappa*x*x, overflows: a scalar's product is Python's, an
        # array's numpy's under np.errstate; the same bits or exception, and
        # no warning on either
        for fn, takes_kappa in ELEMENTWISE:
            args = (kappa,) if takes_kappa else ()
            for v in (x, -x):
                scalar = _outcome(fn, v, args, lambda out: out)
                assert scalar[1] == [], fn.__name__
                one = _outcome(fn, np.array([v]), args, lambda out: out[0])
                assert one == scalar, (fn.__name__, v, kappa)


def _fit_erfcx():
    """tools/fit_erfcx.py, whose mpmath erfcx is the reference here too."""
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "tools" / "fit_erfcx.py"
    spec = importlib.util.spec_from_file_location("fit_erfcx", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestErfcx:
    """The native erfcx behind q and mills_ratio: one frozen table, one
    formula for every finite z >= 0, the same bits on both paths.  _erfcx
    reads z as w = 1 + z, so each call passes 1.0 + z."""

    LARGEST = sys.float_info.max

    def test_one_at_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert special._erfcx(1.0 + 0.0) == 1.0
            assert special._erfcx(1.0 + np.float64(0.0)) == 1.0
            assert special._erfcx(1.0 + np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "lo, hi", [(0.0, 0.5), (0.5, 4.0), (4.0, 50.0), (50.0, 1e300)]
    )
    def test_matches_mpmath(self, lo, hi):
        # the accuracy gate of tools/fit_erfcx.py, on 2,000 points a range
        tool = _fit_erfcx()
        rng = np.random.default_rng(int(hi))
        if hi > 1e3:
            z = np.exp(rng.uniform(math.log(lo), math.log(hi), 2000))
        else:
            z = rng.uniform(lo, hi, 2000)
        got = special._erfcx(1.0 + z)
        worst = 0.0
        with tool.mp.workdps(30):
            for zi, gi in zip(z, got):
                want = tool.erfcx_mp(float(zi))
                worst = max(worst, float(abs((tool.mp.mpf(float(gi)) - want) / want)))
        assert worst <= 4.0 * 2.0**-53

    def test_scalar_equals_array_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        z = np.concatenate([
            [0.0, 5e-324, 50.0, 1e154, self.LARGEST],
            [128.0 / j - 1.0 for j in range(1, 129)],  # every piece boundary
            rng.uniform(0.0, 4.0, 4000),
            np.exp(rng.uniform(math.log(4.0), math.log(1e300), 4000)),
            np.exp(rng.uniform(-745.0, math.log(self.LARGEST), 2000)),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = special._erfcx(1.0 + z)
            scalar = [special._erfcx(1.0 + float(v)) for v in z]
        assert all(type(v) is float for v in scalar)
        assert np.array(scalar).tobytes() == array.tobytes()
        assert np.all(np.isfinite(array)) and np.all(array > 0.0)
        # one call on four copies: no point depends on another
        assert special._erfcx(1.0 + np.tile(z, 4)).tobytes() == np.tile(array, 4).tobytes()
        # nor on the size of its call: slices of 1, 1,000, 5,000 and the rest
        assert oracles.chunked(special._erfcx, 1.0 + z).tobytes() == array.tobytes()


class TestGauss:
    """q takes its Gaussian factor on the signed x, as (-0.5*x)*x has the
    same bits at x and -x: special.gauss(x, 1.0) equals
    special.gauss(|x|, 1.0) bit for bit."""

    EDGES = [0.0, 5e-324, 38.5, 1.3e154, 1e200, sys.float_info.max]

    def test_even_in_x_on_an_array(self):
        # below and above _MASK_MIN, with and without underflowing lanes
        rng = np.random.default_rng(26)
        x = np.concatenate([
            self.EDGES,
            rng.uniform(-40.0, 40.0, special._BLOCK),
            10.0 ** rng.uniform(-320.0, 308.0, special._BLOCK),
        ])
        x *= np.where(rng.random(x.size) < 0.5, -1.0, 1.0)
        x = np.concatenate([np.negative(self.EDGES), x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arr in (x, x[:special._MASK_MIN - 1]):
                assert special.gauss(arr, 1.0).tobytes() == special.gauss(np.abs(arr), 1.0).tobytes()

    @pytest.mark.parametrize("v", EDGES)
    def test_even_in_x_on_scalars(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = np.float64(special.gauss(np.float64(v), 1.0)).tobytes()
            assert np.float64(special.gauss(np.float64(-v), 1.0)).tobytes() == want
            assert np.float64(special.gauss(-v, 1.0)).tobytes() == want


class TestTwoForms:
    """Below elementwise there are two forms of x: a kernel body, and the
    helpers it calls, see a Python float or a float ndarray, whatever the
    caller passed."""

    def test_helpers_see_a_float_or_an_array(self, monkeypatch):
        seen = []

        def recording(fn):
            def wrapper(*args):
                seen.extend(type(a) for a in args)  # block threads too
                return fn(*args)
            return wrapper

        monkeypatch.setattr(special, "_erfcx", recording(special._erfcx))
        gauss = recording(special.gauss)
        monkeypatch.setattr(special, "gauss", gauss)
        monkeypatch.setattr(bounds, "gauss", gauss)  # bounds' own name for it
        rng = np.random.default_rng(42)
        wide = rng.uniform(0.0, 40.0, (2, special._BLOCK // 2 + 1))  # past one block
        for fn, takes_kappa in ELEMENTWISE:
            args = (2.0,) if takes_kappa else ()
            # the bulk, the tail, and past 2**512, where boyd_lower builds 0-d arrays
            for v in (0.5, 40.0, 2.0**513):
                for x in (v, np.float64(v), np.array(v), np.full(3, v), np.full((2, 3), v)):
                    fn(x, *args)
            fn(wide[0], *args)
            fn(wide, *args)
        assert set(seen) == {float, np.ndarray}


class TestBlockedPath:
    """An array of more than one block runs the kernel body block by block,
    with np.exp's underflowing lanes masked: the same bytes as the kernel
    on chunks of at most one block, and the same shape as the input."""

    @pytest.mark.parametrize("fn", [special.q, special.mills_ratio], ids=lambda fn: fn.__name__)
    def test_blocked_equals_chunked(self, fn, monkeypatch):
        x = oracles.blocked_xs(0 if fn is special.q else 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = oracles.chunked(fn, x).tobytes()
            for n in oracles.WORKER_COUNTS:
                with oracles.block_workers(monkeypatch, n):
                    got = fn(x)
                    assert got.tobytes() == want, n
                    grid = x.reshape(11, -1)
                    assert fn(grid).tobytes() == want and fn(grid).shape == grid.shape, n
                    assert fn(grid.T).tobytes() == fn(grid).T.copy().tobytes(), n

    @pytest.mark.parametrize("fn, takes_kappa", ELEMENTWISE,
                             ids=[fn.__name__ for fn, _ in ELEMENTWISE])
    def test_temporaries_within_eight_blocks(self, fn, takes_kappa, monkeypatch):
        # on the calling thread alone, what a kernel allocates beyond its
        # output peaks at 8 block-sized arrays at most: _erfcx gathers its
        # coefficients into one of them, where a (7, n) gather took seven
        x = np.resize(oracles.blocked_xs(1), 4 * special._BLOCK)
        args = (2.0,) if takes_kappa else ()
        with oracles.block_workers(monkeypatch, 1):
            fn(x, *args)  # anything allocated once, on a first call
            tracemalloc.start()
            try:
                out = fn(x, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - out.nbytes <= 8 * special._BLOCK * 8

    @pytest.mark.parametrize("fn, args", [
        (special.q, ()), (special.mills_ratio, ()),
        (bounds.f_diff, (2.0,)), (bounds.df_dx_identity, (2.0,)), (bounds.rel_gap, (2.0,)),
    ], ids=["q", "mills_ratio", "f_diff", "df_dx_identity", "rel_gap"])
    def test_erfcx_kernel_body_peaks_at_five_blocks(self, fn, args):
        # one block of mixed input: the body's peak, its result included, is
        # _erfcx's w, t, j, gather buffer and accumulator, with no array of
        # x/sqrt(2), |x| or r kept beside them
        rng = np.random.default_rng(26)
        n = special._BLOCK
        x = np.concatenate([rng.uniform(-10.0, 10.0, n // 2), 10.0 ** rng.uniform(1.0, 8.0, n - n // 2)])
        rng.shuffle(x)
        if fn is not special.q:
            x = np.abs(x)
        body = fn.__wrapped__
        body(x, *args)  # anything allocated once, on a first call
        tracemalloc.start()
        try:
            body(x, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.25 * n * 8

    def test_exp_equals_np_exp(self):
        # across the underflow threshold, the subnormal results, -inf, and
        # normal values: with over half the lanes masked, with a few masked
        # lanes among many normal ones, on a small array and on scalars
        rng = np.random.default_rng(7)
        edge = special._EXP_ZERO
        y = np.concatenate([
            [-math.inf, -sys.float_info.max, edge, math.nextafter(edge, 0.0),
             math.nextafter(edge, -math.inf), -745.1332191019411, -0.0, 0.0],
            rng.uniform(-800.0, -700.0, 3 * special._BLOCK),
            rng.uniform(-700.0, 700.0, special._BLOCK),
        ])
        rng.shuffle(y)
        sparse = np.concatenate([y[:99], rng.uniform(-700.0, 700.0, special._BLOCK)])
        small = y[:special._MASK_MIN - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arr in (y, sparse, small):
                before = arr.copy()
                assert special._exp(arr).tobytes() == np.exp(arr).tobytes()
                assert arr.tobytes() == before.tobytes()  # the input is not written to
            for v in y[:50]:
                assert np.float64(special._exp(float(v))).tobytes() == np.exp(v).tobytes()

    @pytest.mark.parametrize("n", [special._MASK_MIN, special._BLOCK])
    def test_exp_of_wholly_underflowed_array(self, n):
        # every lane underflows: np.exp's bytes, +0.0 with no sign bit in
        # every lane; one lane that does not underflow, or a nan lane,
        # still takes the mask path
        rng = np.random.default_rng(n)
        y = rng.uniform(-1e4, -745.3, n)
        y[:3] = [-math.inf, -sys.float_info.max, math.nextafter(special._EXP_ZERO, -math.inf)]
        rng.shuffle(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = y.copy()
            got = special._exp(y)
            assert got.tobytes() == np.exp(y).tobytes() == bytes(8 * n)
            assert got.shape == y.shape
            assert y.tobytes() == before.tobytes()  # the input is not written to
            for lane in (special._EXP_ZERO, -700.0, math.nan):
                z = y.copy()
                z[n // 2] = lane
                assert special._exp(z).tobytes() == np.exp(z).tobytes(), lane

    @pytest.mark.parametrize("fn", [bounds.g_lower, bounds.crossing_condition],
                             ids=lambda fn: fn.__name__)
    def test_blocks_that_wholly_underflow(self, fn):
        # at kappa = 1e300, exp underflows for every x above ~4e-149: the
        # first block keeps lanes, the other two underflow whole
        rng = np.random.default_rng(13)
        x = np.concatenate([
            rng.uniform(0.0, 1e-150, special._BLOCK),
            10.0 ** rng.uniform(-140.0, 8.0, 2 * special._BLOCK),
        ])
        if fn is bounds.g_lower:
            x *= np.where(rng.random(x.size) < 0.5, -1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn(x, 1e300)
            assert got.tobytes() == oracles.chunked(fn, x, 1e300).tobytes()
        # exp's term varies in the first block and is 0 past it
        assert np.unique(got[:special._BLOCK]).size > 1
        assert np.unique(got[special._BLOCK:]).size == 1

    def test_q_sign_on_both_paths(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-12.0, 12.0, 2 * special._BLOCK + 5)
        x[[0, 17, -1]] = -0.0
        got = q(x)
        for i in np.concatenate([[0, 17, x.size - 1], rng.integers(0, x.size, 300)]):
            assert np.float64(q(float(x[i]))).tobytes() == got[i].tobytes()
        assert q(-0.0) == 0.5 and got[0] == 0.5 and got[-1] == 0.5
        assert q(np.array([-0.0, 1.0]))[0] == 0.5
        # one form at every size, the same bits as in the whole array
        for n in (1, 1023, 1024, 4097):
            assert q(x[:n]).tobytes() == got[:n].tobytes(), n


class TestBlockThreads:
    """The blocks of an array run on special._WORKERS threads, the calling
    thread and threads started for the call, none for one block: each block
    under the caller's floating-point error state, an error raised only
    once every block started has finished, no thread left running after
    the call, a kernel body free to call a blocked kernel, and a forked
    child's blocks on threads of its own."""

    def test_caller_errstate_reaches_every_block(self, monkeypatch):
        runs = []

        @special.elementwise()
        def record(x, ready):
            ready.wait()  # every block waits for the others: one per thread
            runs.append((threading.get_ident(), np.geterr()["under"]))
            return x

        # exp underflows at x = 38 alone, which is in block 1
        x = np.ones(3 * special._BLOCK)
        x[special._BLOCK + 5] = 38.0
        for n in oracles.WORKER_COUNTS:
            runs.clear()
            with oracles.block_workers(monkeypatch, n):
                assert 0.0 < q(x)[special._BLOCK + 5] < sys.float_info.min
                with np.errstate(under="raise"):
                    with pytest.raises(FloatingPointError):
                        q(x)
                    record(np.zeros(n * special._BLOCK), threading.Barrier(n, timeout=30))
            assert len({thread for thread, _ in runs}) == n
            assert {under for _, under in runs} == {"raise"}

    def test_error_raised_after_every_block(self, monkeypatch):
        started, finished = set(), set()

        @special.elementwise()
        def fails_in_block_2(x, ready):
            block = int(x[0]) // special._BLOCK
            started.add(block)
            try:
                if block == 2:
                    raise ValueError("block 2")
                ready.wait()  # blocks 0 and 1 run at once, where there are threads
                time.sleep(0.1 * block)  # block 1 outlasts block 2's error
                return x
            finally:
                finished.add(block)

        x = np.arange(3.0 * special._BLOCK)
        y = oracles.blocked_xs(0)
        want = oracles.chunked(q, y).tobytes()
        for n in oracles.WORKER_COUNTS:
            started.clear()
            finished.clear()
            with oracles.block_workers(monkeypatch, n):
                with pytest.raises(ValueError, match="block 2"):
                    fails_in_block_2(x, threading.Barrier(min(n, 2), timeout=30))
                assert started == finished == {0, 1, 2}, n
                assert q(y).tobytes() == want, n

    @pytest.mark.parametrize("fn, args, first, last, message", [
        (q, (), 38.0, math.nan, "x must be finite, got nan"),
        (mills_ratio, (), -1.0, math.nan, "x must be finite, got nan"),
        (bounds.f_diff, (2.0,), 38.0, -1.0, "f_diff requires x >= 0"),
    ], ids=["q", "mills_ratio", "f_diff"])
    def test_domain_error_is_the_whole_arrays(self, fn, args, first, last, message,
                                              monkeypatch):
        # block 0 fails first in its body (exp underflows at 38 under
        # under="raise") or in its thread's check of block 0 alone (-1.0
        # fails the sign check); the error is the whole array's, as x is
        # checked whole once a block has raised: its first non-finite
        # value, else the sign message
        x = np.ones(3 * special._BLOCK)
        x[5] = first
        x[2 * special._BLOCK + 5] = last
        for n in (1, 2):
            with oracles.block_workers(monkeypatch, n):
                with np.errstate(under="raise"):
                    with pytest.raises(DomainError, match=f"{message}$"):
                        fn(x, *args)

    @pytest.mark.parametrize("fn, args, valid, wrong_sign, sign_message, under", [
        (q, (), 1.0, None, None, 38.0),
        (mills_ratio, (), 1.0, -1.0, "mills_ratio requires x >= 0", sys.float_info.max),
        (bounds._q_and_g, ((1.5, 2.0, 3.0),), 1.0, None, None, 38.0),
    ], ids=["q", "mills_ratio", "_q_and_g"])
    def test_error_past_block_0_is_the_whole_arrays(self, fn, args, valid, wrong_sign,
                                                    sign_message, under, monkeypatch):
        # block 0 is valid, and block 1 and the last block hold the bad
        # values; block 1 is taken first, so on one thread it fails first,
        # in its check or in its body (exp's underflow, or mills_ratio's
        # last division).  The error is the whole array's all the same: its
        # first non-finite value, else the sign message, and for a valid x
        # the body's own error.  _q_and_g's x is checked by q, before the
        # g rows are built
        block = special._BLOCK
        name = getattr(fn, "__wrapped__", fn).__code__.co_varnames[0]
        cases = [
            ((math.inf, math.nan), DomainError, f"{name} must be finite, got inf$"),
            ((math.nan, -math.inf), DomainError, f"{name} must be finite, got nan$"),
            ((under, math.nan), DomainError, f"{name} must be finite, got nan$"),
            ((under, under), FloatingPointError, "underflow"),
        ]
        if wrong_sign is not None:
            cases += [
                ((wrong_sign, math.nan), DomainError, f"{name} must be finite, got nan$"),
                ((wrong_sign, wrong_sign), DomainError, f"{sign_message}$"),
            ]
        x = np.full(3 * block + 7, valid)
        for n in oracles.WORKER_COUNTS:
            with oracles.block_workers(monkeypatch, n):
                for (in_block_1, in_last), error, message in cases:
                    y = x.copy()
                    y[block + 5], y[-1] = in_block_1, in_last
                    with np.errstate(under="raise"):
                        with pytest.raises(error, match=message):
                            fn(y, *args)

    def test_threads_start_past_one_block(self, monkeypatch):
        # one block runs in the calling thread; one point more makes two
        # blocks, which run on min(_WORKERS, 2) threads
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: (started.append(self), start(self))[1])
        x = np.linspace(0.0, 40.0, special._BLOCK + 1)
        want = oracles.chunked(q, x).tobytes()
        for n in oracles.WORKER_COUNTS:
            with oracles.block_workers(monkeypatch, n):
                started.clear()
                assert q(x[:-1]).tobytes() == want[:-8], n
                assert started == [], n
                assert q(x).tobytes() == want, n
                assert len(started) == min(n, 2) - 1, n

    def test_no_thread_outlives_the_call(self, monkeypatch):
        ran = set()

        @special.elementwise()
        def record(x, ready):
            ready.wait()  # every block waits for the others: one per thread
            ran.add(threading.current_thread())
            return x

        before = threading.active_count()
        with oracles.block_workers(monkeypatch, 3):
            record(np.zeros(3 * special._BLOCK), threading.Barrier(3, timeout=30))
        assert len(ran) == 3
        assert {t for t in ran if t.is_alive()} == {threading.current_thread()}
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(signal, "alarm"), reason="no signal.alarm")
    def test_kernel_body_calls_a_blocked_kernel(self):
        # each block's body calls q on two blocks, from the calling thread
        # and from the thread beside it; a child that hangs is killed
        script = (
            "import signal\n"
            "import numpy as np\n"
            "from qbound import special\n"
            "special._WORKERS = 2\n"
            "signal.alarm(30)\n"
            "inner = np.linspace(0.0, 40.0, 2 * special._BLOCK)\n"
            "@special.elementwise()\n"
            "def outer(x):\n"
            "    return x + special.q(inner)[:x.size]\n"
            "y = outer(np.zeros(2 * special._BLOCK))\n"
            "assert y.tobytes() == np.tile(special.q(inner)[:special._BLOCK], 2).tobytes()\n"
        )
        src = str(Path(special.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_runs_blocks_on_its_own_threads(self):
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from qbound import special\n"
            "special._WORKERS = 3\n"
            "x = np.linspace(0.0, 40.0, 3 * special._BLOCK + 7)\n"
            "parent = special.mills_ratio(x).tobytes()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)  # a child that hangs is killed\n"
            "    os._exit(0 if special.mills_ratio(x).tobytes() == parent else 1)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        src = str(Path(special.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
