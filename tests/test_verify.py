"""Tests for the verification-suite engine."""
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import oracles
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
from qbound import verify


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

    def test_non_integer_count_is_a_usage_error(self):
        # np.linspace would raise TypeError only when xs() is called
        for count in (2.5, 3.0, math.nan):
            with pytest.raises(UsageError, match="x_count must be an integer"):
                EvaluationGrid(x_count=count)
        assert EvaluationGrid(x_count=np.int64(3)).xs().size == 3

    def test_span_that_overflows_is_a_usage_error(self):
        # np.linspace would give nan: x_max - x_min is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match=r"span x_max - x_min overflows"):
                EvaluationGrid(x_min=-1.7e308, x_max=1.7e308)
            xs = EvaluationGrid(x_min=-8e307, x_max=8e307, x_count=3).xs()
        assert list(xs) == [-8e307, 0.0, 8e307]

    def test_log_spacing_to_the_largest_double_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = EvaluationGrid(x_min=1.0, x_max=sys.float_info.max, spacing="log")
            xs = g.xs()
        assert xs[0] == 1.0 and xs[-1] == sys.float_info.max
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)


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

    def test_nan_tolerance_is_a_usage_error(self, monkeypatch):
        # a nan tolerance would fail every report, whatever its margin
        monkeypatch.setattr(verify, "q", None)  # no kernel runs
        with pytest.raises(UsageError, match="tolerance must not be nan"):
            verify_theorem(tolerance=math.nan)
        with pytest.raises(UsageError, match="tolerance must not be nan"):
            run_all(tolerance=math.nan)

    @pytest.mark.parametrize("tolerance", [math.inf, -1e-300])
    def test_infinite_and_negative_tolerances_accepted(self, tolerance):
        r = verify_theorem(EvaluationGrid(x_count=11), tolerance=tolerance)
        assert r.tolerance == tolerance and r.passed

    def test_report_independent_of_kappa_order(self):
        # at kappa = 1e200, (kappa-1)*c overflows inside alpha_coeff
        a = verify_theorem(EvaluationGrid(kappas=(2.0, 1e200)))
        b = verify_theorem(EvaluationGrid(kappas=(1e200, 2.0)))
        assert a == b
        assert a.passed

    def test_one_q_pass_for_the_shared_grid(self, monkeypatch):
        sizes = []
        real = verify.q
        monkeypatch.setattr(verify, "q", lambda xs: sizes.append(xs.size) or real(xs))
        grid = EvaluationGrid(x_count=101, kappas=(1.0, 1.5, 1.0 + 1e-10, 2.0, 10.0))
        report = verify_theorem(grid)
        # one pass over the grid, one over the near-degenerate kappa's own grid
        assert sizes == [101, 101]
        assert report.points_checked == 5 * 101

    def test_nan_in_any_part_is_the_worst(self):
        xs = np.array([0.0, 1.0])
        finite = (xs, 2.0, np.array([-0.5, 0.25]), lambda i: (xs[i], xs[i]))
        with_nan = (xs, 3.0, np.array([-1.0, math.nan]), lambda i: (xs[i], xs[i]))
        for parts in ([finite, with_nan], [with_nan, finite]):
            r = verify._merge("theorem", parts, verify.REL_TOL)
            assert math.isnan(r.worst_violation)
            assert not r.passed
            assert r.worst_point == (1.0, 3.0)

    # kappas at which the bound is tight somewhere in [37, 38.6], where Q is
    # subnormal past x ~37.52 and 0 from x ~38.49
    TAIL_KAPPAS = tuple(float(k) for k in 1.0 + np.geomspace(5e-4, 1e-3, 101))

    def test_tight_kappas_pass_where_q_is_subnormal(self):
        # at these kappas the bound is tight in the deep tail, and there q
        # and g are each off by up to one unit of 2**-1074: g may round one
        # unit above Q where the theorem holds (a relative check failed 43)
        grid = EvaluationGrid(x_min=37.0, x_max=38.6, x_count=40001)
        failed = [k for k in self.TAIL_KAPPAS
                  if not verify_theorem(dataclasses.replace(grid, kappas=(k,))).passed]
        assert failed == []

    def test_one_unit_above_zero_q_passes(self):
        # mpmath at 50 digits: Q = 2.4816e-324 > g = 2.4520e-324 at this x,
        # where q rounds to 0 and g to 2**-1074
        grid = EvaluationGrid(x_min=38.4, x_max=38.6, x_count=20001, kappas=(1.00067,))
        xs = grid.xs()
        i = int(np.argmin(np.abs(xs - 38.48529)))
        assert verify.q(xs[i]) == 0.0 and verify.g_lower(xs[i], 1.00067) == 2.0**-1074
        r = verify_theorem(grid)
        assert r.passed and r.worst_violation == -1.0

    @pytest.mark.parametrize("x_min, x_max, count, kappas", [
        (38.4, 38.6, 20001, (1.00067,)),
        (37.0, 38.6, 40001, TAIL_KAPPAS),
    ])
    def test_inflated_bound_fails_where_q_is_subnormal(self, x_min, x_max, count, kappas):
        r = verify_theorem(EvaluationGrid(x_min, x_max, count, kappas=kappas),
                           weight_inflation=4.0)
        assert not r.passed
        assert r.worst_violation == math.inf
        assert r.worst_lhs - r.worst_rhs > 2.0**-1073

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

    @pytest.mark.parametrize("end, scale", [("x1", 1.0 - 1e-6), ("x1", 1.0 + 1e-6),
                                            ("x2", 1.0 + 1e-6)])
    def test_an_endpoint_off_its_root_fails_on_either_side(self, monkeypatch, end, scale):
        # the relation is negative just outside [x1, x2] and positive just
        # inside: the endpoint check takes the residual's size, not its sign
        real = verify.critical_points

        def shifted(k):
            cp = real(k)
            return dataclasses.replace(cp, **{end: scale * getattr(cp, end)})

        monkeypatch.setattr(verify, "critical_points", shifted)
        r = verify_lemma1(2.0)
        assert not r.passed
        assert r.worst_point[0] == getattr(shifted(2.0), end)
        assert r.worst_lhs == r.worst_violation > 1e-10

    def test_misordered_critical_points_fail_unchecked(self, monkeypatch):
        # x1 < pivot < x2 is checked before any point: no point is checked
        real = verify.critical_points
        monkeypatch.setattr(verify, "critical_points",
                            lambda k: dataclasses.replace(real(k), x1=real(k).pivot))
        r = verify_lemma1(2.0)
        pivot = real(2.0).pivot
        assert (r.suite, r.points_checked, r.worst_violation, r.worst_point) == (
            "lemma1", 0, math.inf, (pivot, 2.0))
        assert (r.tolerance, r.passed) == (verify.ENDPOINT_TOL, False)
        assert math.isnan(r.worst_lhs) and math.isnan(r.worst_rhs)

    def test_rejects_kappa_one(self):
        with pytest.raises(DomainError, match="verify_lemma1 requires kappa > 1, got 1.0"):
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
        with pytest.raises(DomainError, match="verify_lemma2 requires kappa > 1, got 1.0"):
            verify_lemma2(1.0)

    def test_rejects_bad_range(self):
        with pytest.raises(UsageError):
            verify_lemma2(2.0, x_hi=0.1)

    @pytest.mark.parametrize("count", [0, -5, 0.5, math.nan])
    def test_rejects_count_below_one(self, monkeypatch, count):
        monkeypatch.setattr(verify, "mills_ratio", None)  # no kernel runs
        with pytest.raises(UsageError, match="count must be >= 1"):
            verify_lemma2(2.0, count=count)

    @pytest.mark.parametrize("count", [math.inf, math.nan, 2.5, 0])
    def test_rejects_count_not_a_positive_integer(self, monkeypatch, count):
        monkeypatch.setattr(verify, "mills_ratio", None)  # no kernel runs
        with pytest.raises(UsageError, match="count must be >= 1 and an integer"):
            verify_lemma2(2.0, count=count)

    def test_numpy_integer_count(self):
        assert verify_lemma2(2.0, count=np.int64(3)).points_checked == 3

    @pytest.mark.parametrize("x_hi", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_x_hi(self, monkeypatch, x_hi):
        monkeypatch.setattr(verify, "mills_ratio", None)  # no kernel runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="x_hi must be finite"):
                verify_lemma2(2.0, x_hi=x_hi)

    def test_one_point(self):
        r = verify_lemma2(2.0, count=1)
        assert r.points_checked == 1 and r.worst_point == (x1_point(2.0), 2.0)

    @pytest.mark.parametrize(
        "kappa, x_hi",
        [(sys.float_info.max, 1000.0), (2.0, 1e308), (2.0, sys.float_info.max)],
    )
    def test_passes_without_warning_where_kappa_x_overflows(self, kappa, x_hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_lemma2(kappa, x_hi=x_hi).passed


class TestVerifyDerivative:
    def test_default_passes(self):
        g = EvaluationGrid(kappas=tuple(k for k in DEFAULT_KAPPAS if k > 1.0))
        r = verify_derivative(g)
        assert r.passed
        assert r.worst_violation <= 1e-6

    def test_near_degenerate_kappa(self):
        r = verify_derivative(EvaluationGrid(kappas=(1.001,)))
        assert r.passed

    @pytest.mark.parametrize("m", [1e-12, 1.0, 1551069.2964298625, 1e10, 1e16, 1e100,
                                   sys.float_info.max])
    @pytest.mark.parametrize("x_min, x_max", [(-10.0, 10.0), (0.0, 1e-2)])
    def test_passes_at_every_kappa(self, m, x_min, x_max):
        # r varies on the scale 1/sqrt(kappa - 1) and R on the scale 1; one
        # step for both fails near x = 0 at large kappa, or past it
        g = EvaluationGrid(x_min=x_min, x_max=x_max, x_count=1001, kappas=(1.0 + m,))
        r = verify_derivative(g)
        assert r.passed, r.worst_violation

    @pytest.mark.parametrize("kappas, sizes, points", [
        # the grid's 50 points x >= FD_STEP, both sides in one call, once for
        # 1.5, 2 and 10; each near-degenerate kappa's own 101-point grid
        ((1.5, 1.0 + 1e-10, 2.0, 1.0 + 1e-12, 10.0), [100, 202, 202], 3 * 50 + 2 * 101),
        # no kappa keeps the grid: no call on it
        ((1.0 + 1e-10, 1.0 + 1e-12), [202, 202], 2 * 101),
    ])
    def test_one_mills_pass_for_the_shared_grid(self, monkeypatch, kappas, sizes, points):
        calls = []
        real = verify.mills_ratio
        monkeypatch.setattr(verify, "mills_ratio", lambda xs: calls.append(xs.size) or real(xs))
        report = verify_derivative(EvaluationGrid(x_count=101, kappas=kappas))
        assert calls == sizes
        assert report.points_checked == points
        assert report.passed

    def test_rejects_kappa_one(self):
        with pytest.raises(UsageError):
            verify_derivative(EvaluationGrid(kappas=(1.0, 2.0)))

    def test_rejects_grid_without_positive_x(self):
        # the closed form needs x >= FD_STEP; no such point is a usage error
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

    @pytest.mark.parametrize("x_max, count", [(40.0, 2001), (1e300, 50)])
    def test_passes_where_q_and_the_bound_underflow(self, x_max, count):
        # past x ~38.6 both sides are 0; the violation Q/ch - 1 stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = verify_chernoff(EvaluationGrid(x_min=0.0, x_max=x_max, x_count=count))
        assert r.passed and r.worst_violation == 0.0
        assert r.worst_lhs == r.worst_rhs == 0.5


class TestRunAll:
    def test_everything_passes(self):
        reports = run_all()
        assert reports and all(r.passed for r in reports)

    def test_reports_reproducible(self):
        a = run_all()
        b = run_all()
        assert a == b

    def test_corruption_propagates(self, monkeypatch):
        oracles.inflate_alpha(monkeypatch, 1.0 + 1e-6)
        reports = run_all(EvaluationGrid(kappas=(1e6,)))
        assert any(not r.passed for r in reports)

    @pytest.mark.parametrize("names, bad", [
        ((), "at least one suite"),
        ([], "at least one suite"),
        ("theorem", "the string 'theorem'"),
        (("theorm",), "unknown suite 'theorm'"),
        (("theorem", "Lemma1"), "unknown suite 'Lemma1'"),
        (("chernoff", "chernoff"), "suite 'chernoff' is named twice"),
        (("theorem", "lemma1", "theorem"), "suite 'theorem' is named twice"),
    ])
    def test_rejects_bad_names(self, names, bad):
        # unchecked, these verified nothing, ran the suites named by substrings,
        # or ran a repeated chernoff on its default grid
        with pytest.raises(UsageError, match=bad):
            run_all(EvaluationGrid(x_max=5.0, x_count=11), names=names)

    def test_one_suite_named_in_a_list(self):
        g = EvaluationGrid(x_min=0.0, x_max=40.0, x_count=101)
        assert run_all(g, names=["chernoff"]) == [verify_chernoff(g)]
        assert run_all(g, names=["chernoff"]) != [verify_chernoff()]
