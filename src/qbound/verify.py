"""Property-suite engine: certifies the bound inequality, the critical-point
sign structure, the Mills-ratio relation, the derivative identity, and the
Chernoff upper bound on configurable grids, emitting structured reports.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _kxr,
    as_kappa,
    boyd_lower,
    chernoff_upper,
    critical_points,
    df_dx_identity,
    g_lower,
    lemma1_relation,
    r_scaled,
    x1_point,
)
from .errors import UsageError
from .special import SQRT_HALF_PI, mills_ratio, q

#: Default kappa sweep: trivial, near-degenerate, moderate, and asymptotic.
DEFAULT_KAPPAS = (1.0, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)

#: Default tolerances: relative for inequalities, absolute for endpoint
#: equalities, lemma 2's, and the finite-difference matching tolerance;
#: FD_STEP is the derivative suite's finite-difference step.
REL_TOL = 1e-13
ENDPOINT_TOL = 1e-10
LEMMA2_TOL = 1e-12
FD_TOL = 1e-6
FD_STEP = 1e-5

#: Interior points in each of lemma 1's three regions.
LEMMA1_POINTS = 400

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
        if self.x_max - self.x_min == math.inf:
            raise UsageError(
                f"the grid span x_max - x_min overflows for [{self.x_min}, {self.x_max}]"
            )
        if not isinstance(self.x_count, (int, np.integer)) or self.x_count < 2:
            raise UsageError(f"x_count must be an integer >= 2, got {self.x_count!r}")
        if self.spacing not in ("linear", "log"):
            raise UsageError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and self.x_min <= 0.0:
            raise UsageError("log spacing requires x_min > 0")
        object.__setattr__(self, "kappas", tuple(as_kappa(k) for k in self.kappas))

    def xs(self) -> np.ndarray:
        if self.spacing == "log":
            # near the largest double geomspace's power overflows at the end
            # point, which it then sets to x_max
            with np.errstate(over="ignore"):
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
    """One report over parts (xs, kappa, viol, sides): points, their kappa,
    their violations, and sides(i), the (lhs, rhs) at index i.  A part's
    worst point is the argmax of its violations, which is its first nan if
    it has one; across parts a nan is worse than any number, and otherwise
    the first strictly greater violation wins.  Only there is sides called."""
    points, worst = 0, None
    for xs, kappa, viol, sides in parts:
        i = int(viol.argmax())
        points += xs.size
        v = float(viol[i])
        if worst is None or v > worst[0] or (math.isnan(v) and not math.isnan(worst[0])):
            worst = (v, i, xs, kappa, sides)
    if worst is None:
        raise UsageError(f"the {suite} suite has no point to check on this grid")
    v, i, xs, kappa, sides = worst
    lhs, rhs = sides(i)
    return VerificationReport(suite, points, v, (float(xs[i]), float(kappa)), tolerance,
                              bool(v <= tolerance), float(lhs), float(rhs))


def _pair(lhs: np.ndarray, rhs: np.ndarray):
    """sides of a part whose lhs and rhs are arrays."""
    return lambda i: (lhs[i], rhs[i])


def _per_kappa(grid: EvaluationGrid, term):
    """(k, term(xs)) for each of the grid's kappas, in order.  xs is the
    grid's x values, or for 0 < kappa - 1 <= DEGENERATE_EPS a multiplicative
    grid of the same size around the pivot 1/sqrt(kappa-1).  term runs once
    on the grid's x values, shared by every kappa that keeps them, and not
    at all if none does."""
    xs, shared = grid.xs(), None
    for k in grid.kappas:
        if 0.0 < k.kappa_minus_1 <= DEGENERATE_EPS:
            yield k, term((1.0 / math.sqrt(k.kappa_minus_1)) * np.geomspace(1e-3, 1e3, xs.size))
        else:
            if shared is None:
                shared = term(xs)
            yield k, shared


def verify_theorem(
    grid: EvaluationGrid | None = None,
    tolerance: float = REL_TOL,
    weight_inflation: float = 1.0,
) -> VerificationReport:
    """Check g(x, kappa) <= Q(x) * (1 + tolerance) over the whole grid: one
    part per kappa, with lhs g and rhs Q.  Q is evaluated once per x grid.
    Where Q is subnormal or 0, the check is g <= Q + 2**-1073 instead.

    weight_inflation is a test hook that multiplies the bound's weight; the
    suite must detect a corrupted bound, not merely avoid crashing.
    """
    if math.isnan(tolerance):
        raise UsageError("the tolerance must not be nan")

    def q_terms(xs):
        # Q, what the check divides by (Q with its subnormals and zeros
        # replaced by 1), and the mask of those, or None if there is none
        qs = q(xs)
        tiny = qs < sys.float_info.min
        return (xs, qs, np.where(tiny, 1.0, qs), tiny) if tiny.any() else (xs, qs, qs, None)

    parts = []
    for k, (xs, qs, safe, tiny) in _per_kappa(grid or EvaluationGrid(), q_terms):
        gs = weight_inflation * g_lower(xs, k)
        viol = (gs - qs) / safe
        if tiny is not None:
            # where Q is subnormal or 0 (x > ~37.52), q and g each carry up to
            # one unit of 2**-1074, not a relative error: g may exceed Q by two
            # units where the theorem holds; more is a violation (inf)
            viol[tiny] = np.where(gs[tiny] - qs[tiny] > 2.0**-1073, math.inf, -1.0)
        parts.append((xs, k.kappa, viol, _pair(gs, qs)))
    return _merge("theorem", parts, tolerance)


def verify_lemma1(k) -> VerificationReport:
    """Check the sign pattern of kappa*x*r(x) - 1 on the three regions split
    by the critical points (LEMMA1_POINTS interior points each), the endpoint
    equalities to ENDPOINT_TOL, and the ordering x1 < 1/sqrt(kappa-1) < x2.
    One part: lhs is the relation, absolute at the endpoints, rhs 0."""
    k = as_kappa(k, "verify_lemma1")
    cp = critical_points(k)
    if not (cp.x1 < cp.pivot < cp.x2):
        return VerificationReport(
            "lemma1", 0, math.inf, (cp.pivot, k.kappa), ENDPOINT_TOL, False
        )

    # Region interiors, then the two endpoints, which are tested for
    # equality: one kernel call and one part for all of them.
    n = LEMMA1_POINTS
    xs = np.concatenate([
        # expected sign: negative below x1, nonnegative inside, negative above
        np.linspace(0.0, cp.x1, n, endpoint=False),
        np.linspace(cp.x1, cp.x2, n + 2)[1:-1],
        np.geomspace(cp.x2, 10.0 * cp.x2, n + 1)[1:],
        [cp.x1, cp.x2],
    ])
    rel = lemma1_relation(xs, k)
    # positive where the expected sign is violated; at the endpoints, the
    # residual itself
    viol = np.concatenate([rel[:n], -rel[n:2 * n], rel[2 * n:3 * n], np.abs(rel[3 * n:])])
    sides = lambda i: (abs(rel[i]) if i >= 3 * n else rel[i], 0.0)  # noqa: E731
    return _merge("lemma1", [(xs, k.kappa, viol, sides)], ENDPOINT_TOL)


def verify_lemma2(k, x_hi: float | None = None, count: int = 10000) -> VerificationReport:
    """Check kappa*x*R(x) >= 1 on [x1, x_hi], plus the sufficient condition
    pi*kappa*x / ((pi-1)*x + sqrt(x**2 + 2*pi)) >= 1 on the same range, to
    LEMMA2_TOL.  x_hi defaults to max(1000, 10*x1): 1000 unless x1 > 100,
    where kappa - 1 is below ~1e-4.  One part: lhs is the smaller of the
    two left sides, rhs 1."""
    k = as_kappa(k, "verify_lemma2")
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise UsageError(f"count must be >= 1 and an integer, got {count!r}")
    x1 = x1_point(k)
    if x_hi is None:
        x_hi = max(1000.0, 10.0 * x1)
    if not x1 < x_hi < math.inf:
        raise UsageError(f"x_hi must be finite and exceed x1 = {x1}, got {x_hi}")
    with np.errstate(over="ignore"):  # as in EvaluationGrid.xs
        xs = np.geomspace(x1, x_hi, count)
    lhs = np.minimum(_kxr(xs, k, mills_ratio(xs)), _kxr(xs, k, boyd_lower(xs)))
    return _merge("lemma2", [(xs, k.kappa, 1.0 - lhs, lambda i: (lhs[i], 1.0))], LEMMA2_TOL)


def verify_derivative(grid: EvaluationGrid | None = None) -> VerificationReport:
    """Check the closed form of df/dx against central finite differences, to
    FD_TOL: one part per kappa, with lhs the closed form and rhs the
    differences.

    f = r - R, and each term is differenced on its own scale: R varies on
    the scale 1 and takes the step FD_STEP; r varies on the scale
    1/sqrt(kappa - 1) and takes FD_STEP*min(1, 1/sqrt(kappa - 1)).  One
    step for both fails either way at large kappa: FD_STEP leaves r's
    truncation error, ~FD_STEP**2*(kappa - 1) relative, and the smaller
    step leaves R's rounding, ~eps/h.  Each kappa makes one r_scaled call on
    both sides' points; R's quotient is one mills_ratio call per x grid."""
    grid = grid or EvaluationGrid()
    for k in grid.kappas:
        if k.kappa <= 1.0:
            raise UsageError("verify_derivative requires kappa entries > 1")

    def mills_terms(xs):
        xs = xs[xs >= FD_STEP]  # f is defined for x >= 0 only
        return xs, _quotient(mills_ratio, xs, FD_STEP)

    parts = []
    for k, (xs, mills_fd) in _per_kappa(grid, mills_terms):
        if xs.size == 0:
            continue
        ident = df_dx_identity(xs, k)
        h = FD_STEP * min(1.0, 1.0 / math.sqrt(k.kappa_minus_1))
        fd = _quotient(r_scaled, xs, h, k) - mills_fd
        err = np.abs(ident - fd) / np.maximum(1.0, np.abs(ident))
        parts.append((xs, k.kappa, err, _pair(ident, fd)))
    return _merge("derivative", parts, FD_TOL)


def _quotient(fn, xs: np.ndarray, h: float, *args) -> np.ndarray:
    """(fn(xs + h) - fn(xs - h))/(2*h) from one call of the kernel fn on
    both sides' points: each point gets the operations of two calls."""
    both = fn(np.concatenate([xs + h, xs - h]), *args)
    return (both[:xs.size] - both[xs.size:]) / (2.0 * h)


def verify_chernoff(grid: EvaluationGrid | None = None) -> VerificationReport:
    """Check Q(x) <= 0.5*exp(-x**2/2)*(1 + REL_TOL) on the grid (x >= 0).

    The violation is Q/ch - 1 = R(x)/sqrt(pi/2) - 1, which stays finite
    past x ~38.6, where Q and ch both underflow to 0.  One part, whose lhs
    Q and rhs ch are evaluated at the worst point only."""
    grid = grid or EvaluationGrid(x_min=0.0, x_max=10.0, x_count=10001)
    if grid.x_min < 0.0:
        raise UsageError("the Chernoff upper bound requires x >= 0")
    xs = grid.xs()
    viol = mills_ratio(xs) / SQRT_HALF_PI - 1.0
    # a 1-point array gives the same bits as that point in the whole grid,
    # on every array path (small, masked exp, blocked)
    sides = lambda i: (q(xs[i:i + 1])[0], chernoff_upper(xs[i:i + 1])[0])  # noqa: E731
    return _merge("chernoff", [(xs, math.nan, viol, sides)], REL_TOL)


#: Every suite, in the order run_all and `qbound verify all` report them.
SUITE_NAMES = ("theorem", "lemma1", "lemma2", "derivative", "chernoff")


def run_all(
    grid: EvaluationGrid | None = None,
    *,
    names=SUITE_NAMES,
    explicit: bool = False,
    tolerance: float = REL_TOL,
) -> list[VerificationReport]:
    """The suite registry: reports of the named suites, in SUITE_NAMES order.

    lemma1 and lemma2 run once per kappa, derivative once over all kappas.
    These three are undefined at kappa = 1: unless the kappas were given
    explicitly they skip it, otherwise it is a domain or usage error.
    lemma2 checks 2000 points per kappa on [x1, max(1000, 10*x1)].
    tolerance reaches the theorem suite only.  chernoff runs on the grid
    only when it is the one suite named, else on its own default grid.
    names must name each suite at most once, and at least one; a name not
    in SUITE_NAMES, or a bare string, is a UsageError.
    """
    if isinstance(names, str):
        raise UsageError(f"names must be a sequence of suite names, got the string {names!r}")
    names = tuple(names)
    if not names:
        raise UsageError("names must name at least one suite")
    for name in names:
        if name not in SUITE_NAMES:
            raise UsageError(f"unknown suite {name!r}; the suites are {', '.join(SUITE_NAMES)}")
        if names.count(name) > 1:
            raise UsageError(f"suite {name!r} is named twice")
    grid = grid or EvaluationGrid()
    kappas = grid.kappas if explicit else tuple(k for k in grid.kappas if k.kappa > 1.0)
    reports = []
    if "theorem" in names:
        reports.append(verify_theorem(grid, tolerance))
    if "lemma1" in names:
        reports += [verify_lemma1(k) for k in kappas]
    if "lemma2" in names:
        reports += [verify_lemma2(k, count=2000) for k in kappas]
    if "derivative" in names and kappas:
        reports.append(verify_derivative(dataclasses.replace(grid, kappas=kappas)))
    if "chernoff" in names:
        reports.append(verify_chernoff(grid if len(names) == 1 else None))
    return reports


__all__ = [
    "DEFAULT_KAPPAS",
    "EvaluationGrid",
    "VerificationReport",
    "verify_theorem",
    "verify_lemma1",
    "verify_lemma2",
    "verify_derivative",
    "verify_chernoff",
    "run_all",
]
