"""Property-suite engine: certifies the bound inequality, the critical-point
sign structure, the Mills-ratio relation, the derivative identity, and the
Chernoff upper bound on configurable grids, emitting structured reports.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    KappaParam,
    as_kappa,
    boyd_lower,
    chernoff_upper,
    critical_points,
    df_dx_identity,
    f_diff,
    g_lower,
    lemma1_relation,
    x1_point,
)
from .errors import DomainError, UsageError
from .special import mills_ratio, q

#: Default kappa sweep: trivial, near-degenerate, moderate, and asymptotic.
DEFAULT_KAPPAS = (1.0, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)

#: Default tolerances: relative for inequalities, absolute for endpoint
#: equalities, and the finite-difference matching tolerance.
REL_TOL = 1e-13
ENDPOINT_TOL = 1e-10
FD_TOL = 1e-6

#: kappa - 1 below this uses a multiplicative grid around 1/sqrt(kappa-1);
#: fixed global grids miss the interval [x1, x2] entirely in that regime.
DEGENERATE_EPS = 1e-9


@dataclass(frozen=True)
class EvaluationGrid:
    """A rectangular sweep over x and kappa."""

    x_min: float = -10.0
    x_max: float = 10.0
    x_count: int = 2001
    spacing: str = "linear"
    kappas: tuple = DEFAULT_KAPPAS

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise UsageError("grid endpoints must be finite")
        if self.x_min >= self.x_max:
            raise UsageError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.x_count < 2:
            raise UsageError("x_count must be >= 2")
        if self.spacing not in ("linear", "log"):
            raise UsageError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and self.x_min <= 0.0:
            raise UsageError("log spacing requires x_min > 0")
        object.__setattr__(self, "kappas", tuple(as_kappa(k) for k in self.kappas))

    def xs(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.x_min, self.x_max, self.x_count)
        return np.linspace(self.x_min, self.x_max, self.x_count)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one property suite.

    worst_violation is signed: negative values are margin, positive values
    are violations; passed iff worst_violation <= tolerance.  The worst
    point is reported with both sides of the inequality for diagnosability.
    """

    suite: str
    points_checked: int
    worst_violation: float
    worst_point: tuple
    tolerance: float
    passed: bool
    worst_lhs: float = math.nan
    worst_rhs: float = math.nan


def _merge(suite: str, parts, tolerance: float) -> VerificationReport:
    """One report over parts (xs, kappa, violations, lhs, rhs), all arrays
    but kappa.  A part's worst point is the argmax of its violations; across
    parts the first strictly greater violation wins, so a nan in a later
    part does not displace an earlier worst."""
    points, worst = 0, None
    for xs, kappa, viol, lhs, rhs in parts:
        i = int(np.argmax(viol))
        points += xs.size
        if worst is None or viol[i] > worst[0]:
            worst = (float(viol[i]), (float(xs[i]), float(kappa)), float(lhs[i]), float(rhs[i]))
    if worst is None:
        raise UsageError(f"the {suite} suite has no point to check on this grid")
    v, point, lhs_i, rhs_i = worst
    return VerificationReport(
        suite, points, v, point, tolerance, bool(v <= tolerance), lhs_i, rhs_i
    )


def _kappa_xs(grid: EvaluationGrid, k: KappaParam) -> np.ndarray:
    """The grid's x values, or for kappa - 1 <= DEGENERATE_EPS a multiplicative
    grid of the same size around the pivot 1/sqrt(kappa-1)."""
    if 0.0 < k.kappa_minus_1 <= DEGENERATE_EPS:
        return (1.0 / math.sqrt(k.kappa_minus_1)) * np.geomspace(1e-3, 1e3, grid.x_count)
    return grid.xs()


def verify_theorem(
    grid: EvaluationGrid | None = None,
    tolerance: float = REL_TOL,
    weight_inflation: float = 1.0,
) -> VerificationReport:
    """Check g(x, kappa) <= Q(x) * (1 + tolerance) over the whole grid.

    weight_inflation is a test hook that multiplies the bound's weight; the
    suite must detect a corrupted bound, not merely avoid crashing.
    """
    grid = grid or EvaluationGrid()
    parts = []
    for k in grid.kappas:
        xs = _kappa_xs(grid, k)
        qs = q(xs)
        gs = weight_inflation * g_lower(xs, k)
        # deep-tail points where Q underflows to 0: the bound must have
        # underflowed too (g <= Q); count them as full margin, not 0/0
        safe = np.where(qs > 0.0, qs, 1.0)
        viol = np.where(
            qs > 0.0, (gs - qs) / safe, np.where(gs > 0.0, math.inf, -1.0)
        )
        parts.append((xs, k.kappa, viol, gs, qs))
    return _merge("theorem", parts, tolerance)


def verify_lemma1(
    k, points_per_region: int = 400, tolerance: float = ENDPOINT_TOL
) -> VerificationReport:
    """Check the sign pattern of kappa*x*r(x) - 1 on the three regions split
    by the critical points, the endpoint equalities, and the ordering
    x1 < 1/sqrt(kappa-1) < x2."""
    k = as_kappa(k)
    if k.kappa <= 1.0:
        raise DomainError("verify_lemma1 requires kappa > 1")
    n = int(points_per_region)
    if n < 2:
        raise UsageError("points_per_region must be >= 2")
    cp = critical_points(k)

    if not (cp.x1 < cp.pivot < cp.x2):
        return VerificationReport(
            suite="lemma1",
            points_checked=0,
            worst_violation=math.inf,
            worst_point=(cp.pivot, k.kappa),
            tolerance=tolerance,
            passed=False,
        )

    # Region interiors; endpoints are tested separately for equality.
    regions = [
        # expected sign: negative below x1, nonnegative inside, negative above
        (np.linspace(0.0, cp.x1, n, endpoint=False), +1.0),
        (np.linspace(cp.x1, cp.x2, n + 2)[1:-1], -1.0),
        (np.geomspace(cp.x2, 10.0 * cp.x2, n + 1)[1:], +1.0),
    ]
    parts = []
    for xs, orient in regions:
        rel = lemma1_relation(xs, k)
        # positive where the expected sign is violated
        parts.append((xs, k.kappa, orient * rel, rel, np.zeros_like(rel)))
    for x_end in (cp.x1, cp.x2):
        resid = np.array([abs(lemma1_relation(x_end, k))])
        parts.append((np.array([x_end]), k.kappa, resid, resid, np.zeros(1)))
    return _merge("lemma1", parts, tolerance)


def verify_lemma2(
    k, x_hi: float = 1000.0, count: int = 10000, tolerance: float = 1e-12
) -> VerificationReport:
    """Check kappa*x*R(x) >= 1 on [x1, x_hi], plus the sufficient condition
    pi*kappa*x / ((pi-1)*x + sqrt(x**2 + 2*pi)) >= 1 on the same range."""
    k = as_kappa(k)
    if k.kappa <= 1.0:
        raise DomainError("verify_lemma2 requires kappa > 1")
    x1 = x1_point(k)
    if not x_hi > x1:
        raise UsageError(f"x_hi must exceed x1 = {x1}")
    xs = np.geomspace(x1, x_hi, int(count))
    lhs_mills = k.kappa * xs * mills_ratio(xs)
    lhs_boyd = k.kappa * xs * boyd_lower(xs)
    viol = np.maximum(1.0 - lhs_mills, 1.0 - lhs_boyd)
    lhs = np.minimum(lhs_mills, lhs_boyd)
    return _merge("lemma2", [(xs, k.kappa, viol, lhs, np.ones_like(lhs))], tolerance)


def verify_derivative(
    grid: EvaluationGrid | None = None,
    h_step: float = 1e-5,
    tolerance: float = FD_TOL,
) -> VerificationReport:
    """Check the closed form of df/dx against central finite differences."""
    grid = grid or EvaluationGrid()
    if not (1e-7 <= h_step <= 1e-3):
        raise UsageError("h_step must lie in [1e-7, 1e-3]")
    for k in grid.kappas:
        if k.kappa <= 1.0:
            raise UsageError("verify_derivative requires kappa entries > 1")
    parts = []
    for k in grid.kappas:
        xs = _kappa_xs(grid, k)
        xs = xs[xs >= h_step]  # f is defined for x >= 0 only
        if xs.size == 0:
            continue
        ident = df_dx_identity(xs, k)
        fd = (f_diff(xs + h_step, k) - f_diff(xs - h_step, k)) / (2.0 * h_step)
        err = np.abs(ident - fd) / np.maximum(1.0, np.abs(ident))
        parts.append((xs, k.kappa, err, ident, fd))
    return _merge("derivative", parts, tolerance)


def verify_chernoff(
    grid: EvaluationGrid | None = None, tolerance: float = REL_TOL
) -> VerificationReport:
    """Check Q(x) <= 0.5*exp(-x**2/2)*(1 + tolerance) on the grid (x >= 0)."""
    grid = grid or EvaluationGrid(x_min=0.0, x_max=10.0, x_count=10001)
    if grid.x_min < 0.0:
        raise UsageError("the Chernoff upper bound requires x >= 0")
    xs = grid.xs()
    qs = q(xs)
    ch = chernoff_upper(xs)
    return _merge("chernoff", [(xs, math.nan, (qs - ch) / ch, qs, ch)], tolerance)


#: Every suite, in the order run_all and `qbound verify all` report them.
SUITE_NAMES = ("theorem", "lemma1", "lemma2", "derivative", "chernoff")


def run_suites(
    names,
    grid: EvaluationGrid,
    explicit: bool = False,
    tolerance: float = REL_TOL,
    weight_inflation: float = 1.0,
) -> list[VerificationReport]:
    """The suite registry: reports of the named suites, in SUITE_NAMES order.

    lemma1 and lemma2 run once per kappa, derivative once over all kappas.
    These three are undefined at kappa = 1: unless the kappas were given
    explicitly they skip it, otherwise it is a domain or usage error.
    lemma2 checks 2000 points per kappa.  tolerance and weight_inflation
    reach the theorem suite only.  chernoff runs on the grid only when it
    is the one suite named, else on its own default grid.
    """
    kappas = grid.kappas if explicit else tuple(k for k in grid.kappas if k.kappa > 1.0)
    reports = []
    if "theorem" in names:
        reports.append(verify_theorem(grid, tolerance, weight_inflation))
    if "lemma1" in names:
        reports += [verify_lemma1(k) for k in kappas]
    if "lemma2" in names:
        reports += [verify_lemma2(k, count=2000) for k in kappas]
    if "derivative" in names and kappas:
        reports.append(verify_derivative(dataclasses.replace(grid, kappas=kappas)))
    if "chernoff" in names:
        reports.append(verify_chernoff(grid if len(names) == 1 else None))
    return reports


def run_all(
    grid: EvaluationGrid | None = None, weight_inflation: float = 1.0
) -> list[VerificationReport]:
    """Run every suite through run_suites, skipping kappa = 1 where a suite
    needs kappa > 1; the reports come in `qbound verify all` order."""
    return run_suites(
        SUITE_NAMES, grid or EvaluationGrid(), weight_inflation=weight_inflation
    )
