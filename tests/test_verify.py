"""Tests for the verification-suite engine."""
import dataclasses
import io
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from qbound import (
    DEFAULT_KAPPAS,
    DomainError,
    EvaluationGrid,
    UsageError,
    g_lower,
    run_all,
    verify_chernoff,
    verify_derivative,
    verify_lemma1,
    verify_lemma2,
    verify_theorem,
    x1_point,
)
from qbound import special, verify


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

    def test_no_kappa_is_a_usage_error(self):
        # unchecked, run_all's kappa suites checked nothing and said nothing
        for kappas in ((), []):
            with pytest.raises(UsageError, match="kappas must hold at least one kappa"):
                EvaluationGrid(kappas=kappas)

    def test_kappas_not_a_sequence_is_a_usage_error(self):
        # "25" was iterated one character at a time, kappas 2 and 5
        for kappas in ("25", 2.0, np.float64(2.0)):
            with pytest.raises(UsageError, match="kappas must be a sequence of kappas, got"):
                EvaluationGrid(kappas=kappas)
        want = EvaluationGrid(kappas=(2.0, 5.0)).kappas
        for kappas in (np.array([2.0, 5.0]), [2.0, 5.0], (k for k in (2.0, 5.0))):
            assert EvaluationGrid(kappas=kappas).kappas == want

    def test_non_integer_count_is_a_usage_error(self):
        # np.linspace would raise TypeError only when xs() is called
        for count in (2.5, 3.0, math.nan):
            with pytest.raises(UsageError, match="x_count must be an integer"):
                EvaluationGrid(x_count=count)
        assert EvaluationGrid(x_count=np.int64(3)).xs().size == 3

    @pytest.mark.parametrize("count", [2**63 + d for d in (-513, -512, -1, 0, 1024, 1025)])
    def test_count_arange_lays_out_as_empty_is_a_usage_error(self, count):
        # np.arange(count, dtype=float) is empty, not an error, for counts
        # from 2**63 - 512 to 2**63 + 1024 (numpy 2.4), and xs[-1] = 0.0
        # raised IndexError.  Elsewhere numpy's own error stands.  Each
        # probe allocates nothing: arange returns empty or raises at once
        try:
            assert np.arange(count, dtype=float).size == 0
            want, message = UsageError, f"^cannot lay out {count} points in an array$"
        except (ValueError, OverflowError) as exc:
            want, message = type(exc), None
        with pytest.raises(want, match=message):
            EvaluationGrid(x_count=count).xs()
        with pytest.raises(want, match=message):
            verify_lemma2(2.0, count=count)

    def test_span_that_overflows_is_a_usage_error(self):
        # np.linspace would give nan: x_max - x_min is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match=r"span x_max - x_min overflows"):
                EvaluationGrid(x_min=-1.7e308, x_max=1.7e308)
            xs = EvaluationGrid(x_min=-8e307, x_max=8e307, x_count=3).xs()
        assert list(xs) == [-8e307, 0.0, 8e307]

    @pytest.mark.parametrize("x_min, x_max, count", [
        (5e-324, sys.float_info.max, 32),
        (-sys.float_info.max, 1e-260, 29),
    ])
    def test_linear_spacing_to_the_largest_double_without_warning(self, x_min, x_max, count):
        # linspace's (count - 1)*step overflows before it sets the end point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs = EvaluationGrid(x_min=x_min, x_max=x_max, x_count=count).xs()
        assert xs[0] == x_min and xs[-1] == x_max and xs.size == count
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)

    def test_log_spacing_to_the_largest_double_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = EvaluationGrid(x_min=1.0, x_max=sys.float_info.max, spacing="log")
            xs = g.xs()
        assert xs[0] == 1.0 and xs[-1] == sys.float_info.max
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)

    def test_log_spacing_next_to_the_largest_double_reports(self):
        # both ends within 2**-50 of the largest double: geomspace's inner
        # points are inf, _spaced's the upper end, and every suite that
        # takes the grid reports on it
        big = sys.float_info.max
        grid = EvaluationGrid(x_min=big * (1 - 2**-50), x_max=big, x_count=5, spacing="log")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs = grid.xs()
            assert xs.tolist() == [grid.x_min] + [big] * 4
            r = verify_theorem(grid)
            assert r.passed and r.points_checked == 5 * len(DEFAULT_KAPPAS)

    def test_spaced_equals_numpy_bit_for_bit(self):
        # verify._spaced against np.linspace and np.geomspace on 24,000
        # seeded grids: ends of both signs from 5e-324 to the largest double
        # (positive ones for log), ends a few units of 5e-324 apart, whose
        # step is 0 and takes linspace's subnormal branch, and log ends near
        # the largest double, where geomspace's inner power overflows to inf
        # and _spaced's is clipped to the upper end
        rng = np.random.default_rng(30)
        big = sys.float_info.max

        def end(sign):
            e = int(rng.integers(-1075, 1024))
            return sign * math.ldexp(1.0 + float(rng.random()), e)

        def count(log):
            if rng.random() < 0.5:
                return int(rng.choice([1, 2, 3, 201, 2000, 2001] if log else [2, 3, 201, 2000, 2001]))
            return int(rng.integers(1 if log else 2, 5001))

        cases = [(1.0, big, 50, True), (5e-324, big, 2001, True), (big * (1 - 2**-50), big, 5, True),
                 (5e-324, big, 32, False), (-big, 1e-260, 29, False), (-8e307, 8e307, 3, False)]
        for _ in range(8000):
            signs = rng.choice([-1.0, 1.0], 2)
            cases.append((end(signs[0]), end(signs[1]), count(False), False))
            a, b = (int(v) * 5e-324 for v in rng.integers(-3000, 3001, 2))
            cases.append((a, b, count(False), False))
            cases.append((end(1.0), end(1.0), count(True), True))
        zero_steps = clipped = 0
        for a, b, n, log in cases:
            if b - a == math.inf or a - b == math.inf:
                continue  # EvaluationGrid rejects such a span
            with np.errstate(over="ignore"):  # numpy sets its overflowed ends
                want = np.geomspace(a, b, n) if log else np.linspace(a, b, n)
            clipped += int(np.count_nonzero(want == math.inf))
            want[want == math.inf] = b
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = verify._spaced(a, b, n, log)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (a, b, n, log)
            zero_steps += not log and n > 1 and (b - a) / (n - 1) == 0.0
        assert zero_steps > 1000 and clipped == 3


class TestVerifyTheorem:
    def test_default_grid_passes(self):
        r = verify_theorem()
        assert r.passed
        assert r.worst_violation < 0.0
        assert r.points_checked == 2001 * len(DEFAULT_KAPPAS)

    def test_kappa_one_trivial_margin(self):
        r = verify_theorem(EvaluationGrid(kappas=(1.0,)))
        assert r.passed
        # g == 0, so the relative margin is exactly -1 at every point, and
        # the first point is the worst
        assert r.worst_violation == -1.0
        assert r.worst_point == (-10.0, 1.0) and (r.worst_lhs, r.worst_rhs) == (0.0, verify.q(-10.0))

    def test_adversarial_cluster_near_x1(self):
        x1 = x1_point(2.0)
        g = EvaluationGrid(
            x_min=x1 - 1e-6, x_max=x1 + 1e-6, x_count=101, kappas=(2.0,)
        )
        assert verify_theorem(g).passed

    @pytest.mark.parametrize("kappa", [1.0 + 1e-10, 1.0000000000000002])
    def test_near_degenerate_kappa_decides_on_the_given_grid(self, kappa):
        # the kappa keeps the grid's x values, where Q and g are normal
        grid = EvaluationGrid(x_count=11, kappas=(kappa,))
        r = verify_theorem(grid)
        assert r.passed
        assert grid.x_min <= r.worst_point[0] <= grid.x_max
        assert r.worst_lhs > 0.0 and r.worst_rhs > 0.0

    def test_inflated_weight_fails_at_a_near_degenerate_kappa(self):
        # g's weight is ~6.6e-6 here: inflated 1e5-fold, g exceeds Q most at
        # the grid's end, x = 10
        r = verify_theorem(EvaluationGrid(kappas=(1.0 + 1e-10,)), weight_inflation=1e5)
        assert not r.passed
        assert r.worst_violation > 1.0 and r.worst_point[0] == 10.0

    def test_corrupted_weight_detected(self):
        # 1e-6 inflation is only visible where the bound's own gap is
        # thinner than 1e-6, which requires kappa >> 100
        g = EvaluationGrid(kappas=(1e6,))
        assert verify_theorem(g).passed
        r = verify_theorem(g, weight_inflation=1.0 + 1e-6)
        assert not r.passed
        assert r.worst_violation > r.tolerance

    def test_takes_no_tolerance(self):
        # each suite checks at its own constant; positional, 1e-9 would
        # have been taken for a weight inflation
        g = EvaluationGrid(x_count=11)
        with pytest.raises(TypeError, match="positional argument"):
            verify_theorem(g, 1e-9)
        for fn in (verify_theorem, run_all):
            with pytest.raises(TypeError, match="unexpected keyword argument 'tolerance'"):
                fn(g, tolerance=1e-9)

    def test_report_independent_of_kappa_order(self):
        # at kappa = 1e200, (kappa-1)*c overflows inside alpha_coeff
        a = verify_theorem(EvaluationGrid(kappas=(2.0, 1e200)))
        b = verify_theorem(EvaluationGrid(kappas=(1e200, 2.0)))
        assert a == b
        assert a.passed

    def test_one_q_pass_for_the_shared_grid(self, monkeypatch):
        calls = []
        real = verify._q_and_g
        monkeypatch.setattr(verify, "_q_and_g", lambda xs, ks: calls.append(
            (xs.size, [k.kappa for k in ks])) or real(xs, ks))
        grid = EvaluationGrid(x_count=101, kappas=(1.0, 1.5, 1.0 + 1e-10, 2.0, 10.0))
        report = verify_theorem(grid)
        # one call on the grid: Q and one g row per kappa
        assert calls == [(101, [1.0, 1.5, 1.0 + 1e-10, 2.0, 10.0])]
        assert report.points_checked == 5 * 101

    @pytest.mark.parametrize("kappas", [
        (2.0, 1.0 + 1e-10, 5.0),  # three kappas, as in the select_certify workload's grids
        (1.0, 1.0 + 1e-10, 1.5, 2.0, 10.0, 100.0),
        (1.0, 1.0 + 1e-10, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0, 100.0, 1e200),
    ], ids=len)
    def test_peak_within_three_copies_of_g(self, kappas):
        # Q runs in blocks; g, the violation and the Gaussian pass's
        # temporaries each hold K*n floats, and the call peaks below three
        grid = EvaluationGrid(x_count=3 * special._BLOCK, kappas=kappas)
        verify_theorem(EvaluationGrid(x_count=11, kappas=kappas))  # one-time allocations
        tracemalloc.start()
        try:
            verify_theorem(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(kappas) * grid.x_count * 8

    @pytest.mark.parametrize("keywords, weight_inflation", [
        ({"x_count": 201, "kappas": (2.0, 1.0 + 1e-10, 5.0)}, 1.0),  # near 1 between two
        ({"x_count": 201, "kappas": (2.0, 1.5, 2.0)}, 1.0),  # a duplicated kappa
        ({"x_count": 201, "kappas": (1.5, 2.0, 1.5)}, 1.01),  # ... whose worst point ties
        ({"x_count": 201, "kappas": (1.0,)}, 1.0),
        # kappa 1's g is 0, so its violation is -1 at every point
        ({"x_count": 201, "kappas": (1.0 + 1e-10, 1.0)}, 1.0),
        ({"x_count": 201, "kappas": (1.0, 1.0 + 1e-10)}, 1e5),
        ({"x_min": 0.0, "x_max": 40.0, "x_count": 4001,
          "kappas": (1.0, 1.0005, 1.00067, 1.001, 1e200)}, 1.0),  # Q subnormal and 0
        ({"x_min": 37.0, "x_max": 40.0, "x_count": 3001, "kappas": (1.00067, 2.0)}, 4.0),
        ({"x_count": 40001, "kappas": (1.0 + 1e-12, 1.5, 2.0, 1.5, 1e200)}, 1.0),  # blocked rows
    ])
    def test_report_equals_the_per_kappa_loop(self, keywords, weight_inflation, monkeypatch):
        grid = EvaluationGrid(**keywords)
        want = repr(oracles.theorem_per_kappa(grid, weight_inflation=weight_inflation))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for workers in (1, 2):
                with oracles.block_workers(monkeypatch, workers):
                    assert repr(verify_theorem(grid, weight_inflation=weight_inflation)) == want

    def test_merge_equals_the_merge_by_hand(self):
        # one flat argmax over a (rows, n) block picks what a loop over each
        # row in turn does: the first nan, else the first strictly greater
        # value.  The fixed blocks tie within and across rows, put -0.0
        # before 0.0, hold +-inf and a nan after a larger number; the seeded
        # ones draw from a pool of such values, so that they tie often
        blocks = [(np.array([[-1.0, 0.5, 0.5], [0.5, -2.0, 0.25]]), (1.0, 2.0), "0.5"),
                  (np.array([[2.0, 0.5, math.nan], [math.nan, 0.0, 9.0]]), (2.0, 2.0), "nan"),
                  (np.array([[-0.0, -1.0, 0.0], [0.0, -0.0, -1.0]]), (0.0, 2.0), "-0.0"),
                  (np.array([[-1.0, -0.0], [0.0, -1.0]]), (1.0, 2.0), "-0.0"),
                  (np.array([[-math.inf, 1.0], [math.inf, math.inf]]), (0.0, 3.0), "inf"),
                  (np.array([[-math.inf, -math.inf]]), (0.0, 2.0), "-inf"),
                  (np.array([1.0, 0.5, 1.0]), (0.0, 2.0), "1.0")]  # 1-D: one row
        rng = np.random.default_rng(38)
        pool = np.array([-1.0, -0.0, 0.0, 0.5, 2.0, math.inf, -math.inf, math.nan])
        for _ in range(5000):
            viol = rng.choice(pool, (rng.integers(1, 5), rng.integers(1, 7)),
                              p=rng.dirichlet(np.ones(pool.size)))
            blocks.append((viol[0] if len(viol) == 1 and rng.random() < 0.5 else viol, None, None))
        verdicts = set()
        for viol, point, worst in blocks:
            rows = viol.reshape(-1, viol.shape[-1])
            xs, kappas = np.arange(rows.shape[1], dtype=float), [2.0 + r for r in range(len(rows))]
            sides = lambda r, i, rows=rows: (rows[r, i], -float(r))  # noqa: E731
            got = verify._merge("theorem", xs, kappas, viol, sides, verify.REL_TOL)
            want = oracles.merge_by_hand("theorem", xs, kappas, rows, sides, verify.REL_TOL)
            assert repr(got) == repr(want), viol
            assert got.points_checked == viol.size
            if point is not None:
                assert got.worst_point == point and repr(got.worst_violation) == worst
            verdicts |= {got.passed, repr(got.worst_violation)}
        assert {True, False, "nan", "inf", "0.0", "-0.0"} <= verdicts

    @pytest.mark.parametrize("shape, kappas", [((3, 0), (2.0, 3.0, 4.0)), ((0,), (2.0,))])
    def test_no_point_is_a_usage_error(self, shape, kappas):
        # a grid with no x >= FD_STEP gives the derivative suite such a viol
        for merge in (verify._merge, oracles.merge_by_hand):
            with pytest.raises(UsageError, match="^the derivative suite has no point to check"):
                merge("derivative", np.empty(0), kappas, np.empty(shape),
                      lambda r, i: pytest.fail("no point"), verify.FD_TOL)

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
        assert verify.q(xs[i]) == 0.0 and g_lower(xs[i], 1.00067) == 2.0**-1074
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

    def test_one_scalar_call_each_on_x1_the_pivot_and_x2(self, monkeypatch):
        calls = []
        real = verify.lemma1_relation
        monkeypatch.setattr(verify, "lemma1_relation",
                            lambda x, k: calls.append(x) or real(x, k))
        r = verify_lemma1(2.0)
        cp = verify.critical_points(2.0)
        assert calls == [cp.x1, cp.pivot, cp.x2]
        assert all(type(x) is float for x in calls)
        assert r.points_checked == 3 and r.worst_point[0] in (cp.x1, cp.x2)

    @pytest.mark.parametrize("m", np.logspace(-6.0, 6.0, 49).tolist())
    def test_verdict_equals_a_dense_sign_scan(self, m):
        # x*r(x) rises up to the pivot and falls after it: three points
        # decide what 6,000 sampled ones do
        assert verify_lemma1(1.0 + m).passed == oracles.lemma1_scan(1.0 + m)

    def test_a_negative_relation_at_the_pivot_fails_there(self, monkeypatch):
        real = verify.lemma1_relation
        dip = -2.0 * verify.ENDPOINT_TOL

        def dipped(x, k):
            return dip if x == verify.critical_points(k).pivot else real(x, k)

        monkeypatch.setattr(verify, "lemma1_relation", dipped)
        r = verify_lemma1(2.0)
        assert not r.passed
        assert r.worst_point == (verify.critical_points(2.0).pivot, 2.0)
        assert (r.worst_violation, r.worst_lhs, r.worst_rhs) == (-dip, dip, 0.0)

    def test_a_nan_relation_is_the_worst_point(self, monkeypatch):
        # as in _merge: a nan beats any number, even one found before it
        real = verify.lemma1_relation
        cp = verify.critical_points(2.0)
        off = {cp.x1: 1.0, cp.x2: math.nan}
        monkeypatch.setattr(verify, "lemma1_relation", lambda x, k: off.get(x, real(x, k)))
        r = verify_lemma1(2.0)
        assert not r.passed and r.points_checked == 3
        assert r.worst_point == (cp.x2, 2.0) and math.isnan(r.worst_violation)

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

    @pytest.mark.parametrize("off", [
        None,
        # equal endpoint residuals of either sign: both ends tie at |r|
        (1e-11, None, 1e-11), (-1e-11, None, -1e-11),
        (1e-11, None, -1e-11), (-1e-11, None, 1e-11),
        (-1e-3, -1e-3, 1e-3),  # all three tie: x1 wins
        (0.0, -1e-3, -1e-3),  # the pivot ties x2 and comes first
        # 0.0 against -0.0, at the ends and at the pivot
        (0.0, None, -0.0), (-0.0, None, 0.0),
        (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, -0.0), (-0.0, 0.0, 0.0),
        # a nan at each point, and two nans: the first is the worst point
        (math.nan, None, None), (None, math.nan, None), (None, None, math.nan),
        (1.0, math.nan, math.nan), (math.nan, None, math.nan),
    ])
    def test_report_equals_the_hand_built_one(self, monkeypatch, off):
        # off gives the relation's value at (x1, pivot, x2); None keeps the
        # real one.  Without it, kappa - 1 sweeps [1e-12, 1e20]: the FAILs
        # from ~4.6e6 and the DomainError past ~5.7e15 are in the sweep
        if off is None:
            kappas = (1.0 + np.logspace(-12.0, 20.0, 121)).tolist()
        else:
            kappas = [1.0 + 1e-6, 2.0, 1e6]
            real, cps = verify.lemma1_relation, verify.critical_points

            def fake(x, k):
                cp = cps(k)
                v = dict(zip((cp.x1, cp.pivot, cp.x2), off)).get(x)
                return real(x, k) if v is None else v

            monkeypatch.setattr(verify, "lemma1_relation", fake)

        def outcome(fn, kappa):
            try:
                return fn(kappa)
            except DomainError as e:  # x2 past kappa ~5.7e15: compared by its message
                return type(e), str(e)

        verdicts = set()
        for kappa in kappas:
            got, want = outcome(verify_lemma1, kappa), outcome(oracles.lemma1_by_hand, kappa)
            if isinstance(want, tuple):
                assert got == want
                verdicts.add(want[0])
                continue
            assert repr(got) == repr(want)
            verdicts.add(got.passed)
            fields = [getattr(got, f.name) for f in dataclasses.fields(got)]
            fields[3:4] = got.worst_point
            assert all(type(v) in (str, float, bool, int) for v in fields), fields
            json.dumps(dataclasses.asdict(got))
        if off is None:
            assert verdicts == {True, False, DomainError}

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
            assert verify_lemma2(kappa, x_hi=x_hi, count=10_000).passed

    def test_default_checks_x1_alone(self):
        # x_hi alone does not sample: count decides the points
        r = verify_lemma2(2.0, x_hi=50.0)
        assert r == verify_lemma2(2.0)
        assert r.points_checked == 1 and r.worst_point == (x1_point(2.0), 2.0)

    X1_DECIDES = [k for k in DEFAULT_KAPPAS if k > 1.0] + [
        1.0 + m for m in (1e-12, 1e-7, 1e12, 1e300)]

    @pytest.mark.parametrize("kappa", X1_DECIDES)
    def test_x1_decides(self, kappa):
        # both left sides increase in x, so no sampled point is worse than x1
        at_x1 = verify_lemma2(kappa)
        sampled = verify_lemma2(kappa, count=10_000)
        assert sampled.passed == at_x1.passed
        assert sampled.worst_violation <= at_x1.worst_violation

    def test_run_all_checks_x1(self):
        kappas = tuple(self.X1_DECIDES)
        reports = verify.SUITES["lemma2"](EvaluationGrid(kappas=kappas))
        assert list(map(repr, reports)) == [repr(verify_lemma2(k)) for k in kappas]


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

    def test_near_degenerate_kappa_on_the_pivot_scale(self):
        # r varies on the scale 1/sqrt(kappa - 1) = 1e5: a log grid around it
        g = EvaluationGrid(x_min=1e2, x_max=1e8, spacing="log", kappas=(1.0 + 1e-10,))
        r = verify_derivative(g)
        assert r.passed and r.worst_violation < 1e-10
        assert r.points_checked == 2001

    @pytest.mark.parametrize("kappas, sizes, points", [
        # the grid's 50 points x >= FD_STEP, both sides in one call, for
        # every kappa, near 1 or not
        ((1.5, 1.0 + 1e-10, 2.0, 1.0 + 1e-12, 10.0), [100], 5 * 50),
        ((1.0 + 1e-10, 1.0 + 1e-12), [100], 2 * 50),
    ])
    def test_one_mills_pass_for_the_shared_grid(self, monkeypatch, kappas, sizes, points):
        calls = []
        real = verify.mills_ratio
        monkeypatch.setattr(verify, "mills_ratio", lambda xs: calls.append(xs.size) or real(xs))
        report = verify_derivative(EvaluationGrid(x_count=101, kappas=kappas))
        assert calls == sizes
        assert report.points_checked == points
        assert report.passed

    @pytest.mark.parametrize("keywords", [
        {"x_count": 201, "kappas": (2.0, 1.0 + 1e-10, 5.0)},  # near 1 between two
        {"x_count": 201, "kappas": (1.5, 2.0, 1.5)},  # a duplicated kappa
        # no grid point x >= FD_STEP: a UsageError on both sides
        {"x_min": 0.0, "x_max": 1e-6, "x_count": 101, "kappas": (2.0, 1.0 + 1e-10, 5.0)},
        {"x_count": 201, "kappas": (1.0 + 1e-10, 1.0 + 1e-12)},  # only kappas near 1
        {"x_count": 40001, "kappas": (1.0 + 1e-12, 1.5, 2.0, 1e200)},  # blocked rows
    ])
    def test_report_equals_the_per_kappa_loop(self, keywords, monkeypatch):
        def outcome(suite):
            try:
                return repr(suite(grid))
            except UsageError as e:
                return f"UsageError: {e}"

        grid = EvaluationGrid(**keywords)
        want = outcome(oracles.derivative_per_kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for workers in (1, 2):
                with oracles.block_workers(monkeypatch, workers):
                    assert outcome(verify_derivative) == want

    def test_step_scales_with_kappa(self):
        # r varies on the scale 1/sqrt(kappa - 1) ~ 8e-4 here, so a step of
        # 1e-5 in x would leave a difference-quotient error of ~7e-4
        g = EvaluationGrid(x_min=-0.0538, x_max=0.0538, x_count=201,
                           kappas=(1551070.2964298625,))
        r = verify_derivative(g)
        assert r.passed and r.points_checked == 100

    def test_rejects_kappa_one(self):
        with pytest.raises(DomainError, match=r"^verify_derivative requires kappa > 1, got 1\.0$"):
            verify_derivative(EvaluationGrid(kappas=(1.0, 2.0)))

    @pytest.mark.parametrize("kappas", [(1.0,), (1.0, 1.0)])
    def test_kappa_one_alone_is_its_error(self, kappas):
        # no kappa to skip to: as_kappa's one rule, the same error as above
        with pytest.raises(DomainError) as info:
            verify_derivative(EvaluationGrid(x_count=11, kappas=kappas))
        assert str(info.value) == "verify_derivative requires kappa > 1, got 1.0"

    @pytest.mark.parametrize("x_min, x_max, kappas", [
        (-10.0, 0.0, (2.0,)),
        (0.0, 1e-6, (2.0, 1.0 + 1e-10, 5.0)),  # a kappa near 1 keeps the grid too
    ])
    def test_rejects_grid_without_x_from_fd_step(self, x_min, x_max, kappas):
        # the closed form needs x >= FD_STEP; no such point is a usage error
        g = EvaluationGrid(x_min=x_min, x_max=x_max, x_count=101, kappas=kappas)
        with pytest.raises(UsageError, match="no point to check"):
            verify_derivative(g)


class TestVerifyChernoff:
    def test_default_passes(self, monkeypatch):
        # at x = 0 alone, one scalar R call on the float 0.0: R/sqrt(pi/2) - 1
        # is exactly 0 there, and R decreases
        calls = []
        real = verify.mills_ratio
        monkeypatch.setattr(verify, "mills_ratio", lambda x: calls.append(x) or real(x))
        r = verify_chernoff()
        assert calls == [0.0] and type(calls[0]) is float
        assert (r.points_checked, r.worst_violation, r.worst_point[0]) == (1, 0.0, 0.0)
        assert r.passed and r.worst_lhs == r.worst_rhs == 0.5

    def test_takes_no_grid(self):
        # x = 0 decides [0, inf): there is no grid to give, nor a negative x
        with pytest.raises(TypeError):
            verify_chernoff(EvaluationGrid(x_min=-1.0, x_max=1.0, kappas=(2.0,)))

    @pytest.mark.parametrize("keywords", [
        {"x_min": 0.0, "x_max": 1.0, "x_count": 11, "kappas": (2.0,)},
        {"x_min": 0.0, "x_max": 40.0, "x_count": 2001},  # Q and the bound underflow
        {"x_min": 0.0, "x_max": 1e300, "x_count": 50},
        {"x_min": 30.0, "x_max": 45.0, "x_count": 20001},  # Q subnormal or 0
        {"x_min": 0.0, "x_max": 40.0, "x_count": 70001},  # blocked, masked exp
        {"x_min": 1.0, "x_max": 1e300, "x_count": 4001, "spacing": "log"},
        {"x_min": 2.5, "x_max": 7.5, "x_count": 1001},
        # both ends next to the largest double, and the whole positive range
        {"x_min": sys.float_info.max * (1 - 2**-50), "x_max": sys.float_info.max,
         "x_count": 5, "spacing": "log"},
        {"x_min": 5e-324, "x_max": sys.float_info.max, "x_count": 2001, "spacing": "log"},
    ])
    def test_x_zero_decides(self, keywords, monkeypatch):
        # R decreases, so no grid of x >= 0 has a worse point than x = 0: the
        # grid's report, from the oracle, has its verdict and a violation no
        # greater
        want = verify_chernoff()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for workers in (1, 2):
                with oracles.block_workers(monkeypatch, workers):
                    r = oracles.chernoff_one_point(EvaluationGrid(**keywords))
                assert r.passed == want.passed
                assert r.worst_violation <= want.worst_violation

    def test_worst_point_sides_are_scalar_calls(self, monkeypatch):
        # one scalar q and one scalar chernoff_upper call, on the float 0.0,
        # with the bits of the 1-point arrays they replace
        want = repr(oracles.chernoff_one_point())
        calls = []
        for name in ("q", "chernoff_upper"):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda x, name=name, real=real:
                                calls.append((name, isinstance(x, float))) or real(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repr(verify_chernoff()) == want
        assert calls == [("q", True), ("chernoff_upper", True)]


class TestRunAll:
    def test_everything_passes(self):
        reports = run_all()
        assert reports and all(r.passed for r in reports)

    def test_default_suites_in_order(self):
        # a literal, not SUITES: a suite dropped from the registry shows
        assert [r.suite for r in run_all()] == ["theorem"] + ["lemma1"] * 9 + ["lemma2"] * 9

    def test_every_suite_by_name(self):
        # the registry is the paper's three claims, all run by default; the
        # derivative and Chernoff checks test the kernels, not a claim, and
        # are no suite of it
        g = EvaluationGrid()
        assert tuple(verify.SUITES) == ("theorem", "lemma1", "lemma2")
        assert not hasattr(verify, "PROOF_SUITES") and not hasattr(verify, "SUITE_NAMES")
        assert "derivative" not in verify.SUITES and "chernoff" not in verify.SUITES
        reports = [r for name in ("theorem", "lemma1", "lemma2") for r in verify.SUITES[name](g)]
        assert reports == run_all(g)
        assert all(r.passed for r in reports)

    def test_each_suite_reports_its_own_tolerance(self):
        g = EvaluationGrid(x_max=5.0, x_count=11, kappas=(2.0, 3.0))
        want = {"theorem": verify.REL_TOL, "lemma1": verify.ENDPOINT_TOL,
                "lemma2": verify.LEMMA2_TOL}
        reports = run_all(g)
        assert len(reports) == 5
        assert all(r.tolerance == want[r.suite] for r in reports), reports
        # the two kernel checks outside the registry keep theirs
        assert verify_derivative(g).tolerance == verify.FD_TOL
        assert verify_chernoff().tolerance == verify.REL_TOL

    def test_reports_reproducible(self):
        a = run_all()
        b = run_all()
        assert a == b

    def test_corruption_propagates(self, monkeypatch):
        oracles.inflate_alpha(monkeypatch, 1.0 + 1e-6)
        reports = run_all(EvaluationGrid(kappas=(1e6,)))
        assert any(not r.passed for r in reports)

    def test_kappa_one_is_skipped_beside_another_kappa(self):
        # kappa 1 adds a row to the theorem's grid and nothing else
        one_and_two = run_all(EvaluationGrid(kappas=(1.0, 2.0)))
        assert one_and_two[0].points_checked == 2 * 2001
        assert one_and_two[1:] == run_all(EvaluationGrid(kappas=(2.0,)))[1:]
        assert [r.suite for r in one_and_two] == ["theorem", "lemma1", "lemma2"]

    @pytest.mark.parametrize("name, error, message", [
        ("lemma1", DomainError, "verify_lemma1 requires kappa > 1, got 1.0"),
        ("lemma2", DomainError, "verify_lemma2 requires kappa > 1, got 1.0"),
    ])
    def test_kappa_one_alone_is_each_suites_error(self, name, error, message):
        # skipped, such a grid gave no report for the suite and no error;
        # each suite's kappa > 1 is as_kappa's one rule
        for kappas in ((1.0,), (1.0, 1.0)):
            with pytest.raises(error) as info:
                verify.SUITES[name](EvaluationGrid(x_count=11, kappas=kappas))
            assert str(info.value) == message
        # run_all reaches lemma1 first, and raises its error
        with pytest.raises(DomainError, match="^verify_lemma1 requires kappa > 1, got 1.0$"):
            run_all(EvaluationGrid(x_count=11, kappas=(1.0,)))

    def test_no_explicit_switch(self):
        with pytest.raises(TypeError):
            run_all(explicit=True)

    def test_no_names_knob(self):
        # one suite runs as verify.SUITES[name](grid)
        with pytest.raises(TypeError):
            run_all(EvaluationGrid(x_count=11), names=("theorem",))

    def test_suites_are_looked_up_at_call_time(self, monkeypatch):
        # a wrapper set on the module, as bench/spans.py sets one to count
        # each suite's calls, sees every call of run_all and `qbound verify`
        from qbound.cli import main

        calls = []
        for name in ("verify_theorem", "verify_lemma1", "verify_lemma2"):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        kappas = (1.0, 2.0, 3.0)
        want = {"theorem": ["verify_theorem"], "lemma1": ["verify_lemma1"] * 2,
                "lemma2": ["verify_lemma2"] * 2}
        assert len(run_all(EvaluationGrid(x_count=11, kappas=kappas))) == 5
        assert calls == want["theorem"] + want["lemma1"] + want["lemma2"]
        want["all"] = list(calls)
        for suite in want:
            calls.clear()
            argv = ["verify", suite] + [a for k in kappas for a in ("--kappa", str(k))]
            assert main(argv, out=io.StringIO()) == 0
            assert calls == want[suite], suite

    def test_one_suite_named_in_a_list(self):
        g = EvaluationGrid(x_min=0.0, x_max=40.0, x_count=101)
        want = [verify_lemma2(k) for k in DEFAULT_KAPPAS if k > 1.0]
        assert verify.SUITES["lemma2"](g) == want
