"""Property suites, each emitting a structured report.  SUITES, the suite
registry, maps each of the paper's claims to its runner: the bound
inequality on configurable grids, lemma 1's sign pattern and lemma 2's
Mills-ratio relation at the points that decide them.  run_all runs them
all; verify_derivative and verify_chernoff are kernel checks outside it."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _kxr,
    _q_and_g,
    as_kappa,
    boyd_lower,
    chernoff_upper,
    critical_points,
    df_dx_identity,
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
#: FD_STEP is verify_derivative's finite-difference step.
REL_TOL = 1e-13
ENDPOINT_TOL = 1e-10
LEMMA2_TOL = 1e-12
FD_TOL = 1e-6
FD_STEP = 1e-5

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
        if isinstance(self.kappas, (str, bytes)) or not np.iterable(self.kappas):
            raise UsageError(f"kappas must be a sequence of kappas, got {self.kappas!r}")
        object.__setattr__(self, "kappas", tuple(as_kappa(k) for k in self.kappas))
        if not self.kappas:
            raise UsageError("kappas must hold at least one kappa")

    def xs(self) -> np.ndarray:
        """The x_count points from x_min to x_max: np.linspace's, or for log
        spacing np.geomspace's, bit for bit (_spaced), without a warning up
        to the largest double."""
        return _spaced(self.x_min, self.x_max, self.x_count, self.spacing == "log")


def _spaced(a: float, b: float, n: int, log: bool = False) -> np.ndarray:
    """np.linspace(a, b, n) for n >= 2, or with log np.geomspace(a, b, n)
    for a, b > 0 and n >= 1, bit for bit, without their per-call set-up,
    except where geomspace gives an inner point of inf.

    linspace's operations in its order: arange(n) times step = (b - a)/(n -
    1), or divided by n - 1 and times b - a where step is 0 (subnormal
    ends), plus a, then the last point set to b.  geomspace's: the same on
    the np.log10 of the ends, then np.power(10.0, .), then both ends set.
    The last point is zeroed before the products, as it is set afterwards,
    so a span up to the largest double does not overflow there.  Where an
    inner log point is the rounded log10 of the largest double (both ends
    within ~1e-13, relative, of it), its power rounds past it, to inf, as
    geomspace's does; the powers are clipped to the ends' range, so that
    point is the upper end, and every grid of finite ends has finite
    points.  An n that arange does not lay out is a UsageError.
    """
    if log:
        if n == 1:
            return np.array([float(a)])
        ends = (a, b)
        a, b = float(np.log10(a)), float(np.log10(b))
    xs = np.arange(n, dtype=float)
    if xs.size != n:  # empty for n from 2**63 - 512 to 2**63 + 1024
        raise UsageError(f"cannot lay out {n} points in an array")
    xs[-1] = 0.0
    step = (b - a) / (n - 1)
    if step == 0.0:
        xs /= n - 1
        xs *= b - a
    else:
        xs *= step
    xs += a
    xs[-1] = b
    if log:
        with np.errstate(over="ignore"):
            np.power(10.0, xs, out=xs)
        xs.clip(min(ends), max(ends), out=xs)
        xs[0], xs[-1] = ends
    return xs


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


def _merge(suite: str, xs, kappas, viol: np.ndarray, sides, tolerance: float) -> VerificationReport:
    """One report over the (len(kappas), len(xs)) violations viol (a 1-D viol
    is its one-row case): row r is kappa kappas[r], column i is point xs[i],
    and sides(r, i) gives that point's (lhs, rhs).  The worst point is
    viol's flat argmax: in row-major order, the first nan, else the first
    greatest value.  Only there is sides called.  A grid suite's viol has
    one row per kappa of its grid, and named points (lemma 1's) are one
    row.  The report's numbers are Python floats, bools and ints."""
    if not viol.size:
        raise UsageError(f"the {suite} suite has no point to check on this grid")
    j = int(viol.argmax())
    r, i = divmod(j, len(xs))
    v = float(viol.flat[j])
    lhs, rhs = sides(r, i)
    return VerificationReport(suite, viol.size, v, (float(xs[i]), float(kappas[r])), tolerance,
                              bool(v <= tolerance), float(lhs), float(rhs))


def verify_theorem(grid: EvaluationGrid | None = None, *,
                   weight_inflation: float = 1.0) -> VerificationReport:
    """Check g(x, kappa) <= Q(x) * (1 + REL_TOL) over the whole grid: one
    row per kappa, in the grid's order, with lhs g and rhs Q, every kappa
    on the grid's x values.  One _q_and_g call gives Q, from q, and the g
    rows; the violation (g - Q)/Q is computed in place, with no other
    temporary of g's size but a boolean mask.  Where Q is subnormal or 0,
    the check is g <= Q + 2**-1073 instead.

    weight_inflation is a test hook that multiplies the bound's weight; the
    suite must detect a corrupted bound, not merely avoid crashing.
    """
    grid = grid or EvaluationGrid()
    xs = grid.xs()
    qs, gs = _q_and_g(xs, grid.kappas)
    if weight_inflation != 1.0:  # g*1.0 is g, bit for bit
        gs *= weight_inflation
    viol = gs - qs
    if qs.min() < sys.float_info.min:  # no mask is built where none is needed
        # where Q is subnormal or 0 (x > ~37.52), q and g each carry up to
        # one unit of 2**-1074, not a relative error: g may exceed Q by two
        # units where the theorem holds; more is a violation (inf), else -1
        tiny = qs < sys.float_info.min
        np.divide(viol, qs, out=viol, where=~tiny)
        over = viol > 2.0**-1073
        over &= tiny
        np.copyto(viol, -1.0, where=tiny)
        np.copyto(viol, math.inf, where=over)
    else:
        viol /= qs
    return _merge("theorem", xs, [k.kappa for k in grid.kappas], viol,
                  lambda r, i: (gs[r, i], qs[i]), REL_TOL)


def verify_lemma1(k) -> VerificationReport:
    """Check lemma 1 at the three points that decide it, after the ordering
    x1 < p < x2 of the pivot p = 1/sqrt(kappa-1): kappa*x*r(x) - 1 is 0 at
    x1 and x2, by its size to ENDPOINT_TOL, and >= 0 at p, to the same
    tolerance.  x*r(x) rises up to p and falls after it, so that is the sign
    pattern on all of [0, inf).  Three scalar lemma1_relation calls, on x1,
    p and x2 in turn: lhs is the relation, absolute at the endpoints, rhs 0.
    The three named points are one row of _merge, with one kappa."""
    k = as_kappa(k, "verify_lemma1")
    cp = critical_points(k)
    if not (cp.x1 < cp.pivot < cp.x2):  # no point checked: _merge has no such report
        return VerificationReport("lemma1", 0, math.inf, (cp.pivot, k.kappa), ENDPOINT_TOL, False)
    xs = (cp.x1, cp.pivot, cp.x2)
    lhs = [lemma1_relation(x, k) for x in xs]
    lhs[0], lhs[2] = abs(lhs[0]), abs(lhs[2])
    viol = np.array([lhs[0], -lhs[1], lhs[2]])
    return _merge("lemma1", xs, (k.kappa,), viol, lambda r, i: (lhs[i], 0.0), ENDPOINT_TOL)


def verify_lemma2(k, x_hi: float | None = None, count: int = 1) -> VerificationReport:
    """Check kappa*x*R(x) >= 1 on [x1, x_hi], plus the sufficient condition
    pi*kappa*x / ((pi-1)*x + sqrt(x**2 + 2*pi)) >= 1 on the same range, to
    LEMMA2_TOL, at count log-spaced points.  Both left sides increase in x,
    x*R(x) by Gordon's R(x) > x/(1 + x**2) and Boyd's form by its
    derivative, so x1 decides [x1, inf): the default count of 1 checks x1
    alone.  x_hi is checked in every call, finite and above x1, and sampled
    only where count > 1.  x_hi defaults to max(1000, 10*x1): 1000 unless
    x1 > 100, where kappa - 1 is below ~1e-4.  One row: lhs is the smaller
    of the two left sides, rhs 1."""
    k = as_kappa(k, "verify_lemma2")
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise UsageError(f"count must be >= 1 and an integer, got {count!r}")
    x1 = x1_point(k)
    if x_hi is None:
        x_hi = max(1000.0, 10.0 * x1)
    if not x1 < x_hi < math.inf:
        raise UsageError(f"x_hi must be finite and exceed x1 = {x1}, got {x_hi}")
    xs = _spaced(x1, x_hi, count, log=True)
    lhs = np.minimum(_kxr(xs, k, mills_ratio(xs)), _kxr(xs, k, boyd_lower(xs)))
    return _merge("lemma2", xs, (k.kappa,), 1.0 - lhs, lambda r, i: (lhs[i], 1.0), LEMMA2_TOL)


def verify_derivative(grid: EvaluationGrid | None = None) -> VerificationReport:
    """Check the closed form of df/dx against central finite differences, to
    FD_TOL: one row per kappa, in the grid's order, with lhs the closed form
    and rhs the differences, every kappa at the grid's x >= FD_STEP.

    f = r - R, and each term is differenced on its own scale: R varies on
    the scale 1 and takes the step FD_STEP; r varies on the scale
    1/sqrt(kappa - 1) and takes FD_STEP*min(1, 1/sqrt(kappa - 1)).  One
    step for both fails either way at large kappa: FD_STEP leaves r's
    truncation error, ~FD_STEP**2*(kappa - 1) relative, and the smaller
    step leaves R's rounding, ~eps/h.  Each kappa makes one r_scaled call on
    both sides' points; R's quotient is one mills_ratio call.  A grid with
    no x >= FD_STEP is a UsageError."""
    grid = grid or EvaluationGrid()
    ks = [as_kappa(k, "verify_derivative") for k in grid.kappas]
    xs = grid.xs()
    xs = xs[xs >= FD_STEP]  # f is defined for x >= 0 only
    ident = np.empty((len(ks), xs.size))
    fd = np.empty_like(ident)
    for r, k in enumerate(ks):
        ident[r] = df_dx_identity(xs, k)
        fd[r] = _quotient(r_scaled, xs, FD_STEP * min(1.0, 1.0 / math.sqrt(k.kappa_minus_1)), k)
    fd -= _quotient(mills_ratio, xs, FD_STEP)
    err = np.abs(ident - fd) / np.maximum(1.0, np.abs(ident))
    return _merge("derivative", xs, [k.kappa for k in ks], err,
                  lambda r, i: (ident[r, i], fd[r, i]), FD_TOL)


def _quotient(fn, xs: np.ndarray, h: float, *args) -> np.ndarray:
    """(fn(xs + h) - fn(xs - h))/(2*h) from one call of the kernel fn on
    both sides' points: each point gets the operations of two calls."""
    both = fn(np.concatenate([xs + h, xs - h]), *args)
    return (both[:xs.size] - both[xs.size:]) / (2.0 * h)


def verify_chernoff() -> VerificationReport:
    """Check Q(x) <= 0.5*exp(-x**2/2)*(1 + REL_TOL) at x = 0, which decides
    it on [0, inf): the violation Q/ch - 1 = R(x)/sqrt(pi/2) - 1 is exactly
    0 there, and R decreases (R' = x*R - 1 < 0, by Gordon's R(x) < 1/x).
    R, lhs Q and rhs ch are scalar calls at x = 0, one point of _merge."""
    viol = mills_ratio(0.0) / SQRT_HALF_PI - 1.0
    return _merge("chernoff", (0.0,), (math.nan,), np.array([viol]),
                  lambda r, i: (q(0.0), chernoff_upper(0.0)), REL_TOL)


def _per_kappa(suite, grid: EvaluationGrid) -> list[VerificationReport]:
    """suite's report at each kappa of grid but 1, where lemma 1 and lemma 2
    are undefined; where every kappa is 1, suite raises its own DomainError
    on it."""
    return [suite(k) for k in tuple(k for k in grid.kappas if k.kappa > 1.0) or grid.kappas]


#: The suite registry, in report order: the paper's theorem and its two
#: lemmas, each a function from a grid to its reports.  Each looks its
#: verify_* function up here when called, so a wrapper set on this module
#: counts its calls.  KAPPA_SUITES read only the grid's kappas, at the
#: points that decide them.
SUITES = {
    "theorem": lambda grid: [verify_theorem(grid)],
    "lemma1": lambda grid: _per_kappa(verify_lemma1, grid),
    "lemma2": lambda grid: _per_kappa(verify_lemma2, grid),
}
KAPPA_SUITES = ("lemma1", "lemma2")


def run_all(grid: EvaluationGrid | None = None) -> list[VerificationReport]:
    """The reports of every suite of SUITES, in its order: the theorem on the
    grid, then lemma1 and lemma2 per kappa, each against its own module
    constant, its report's tolerance.  lemma1 checks x1, the pivot and x2;
    lemma2 checks x1 alone, which decides it (verify_lemma2).  One suite
    runs as SUITES[name](grid).  verify_derivative and verify_chernoff
    check the kernels, not a claim, and are not in it."""
    grid = grid or EvaluationGrid()
    return [r for suite in SUITES.values() for r in suite(grid)]


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
