"""Parameter selection for the bound family: best kappa at a point, the
empirical maximal weight for a fixed order, and the best single kappa over
an interval.  Each is an exact one-dimensional solve on an analytic slope:
Newton on ln F for the best kappa, on the slope kappa*x*R(x) - 1 for
the weight; all are deterministic.

Both solves run through one loop, _bracketed_newton: Newton steps inside a
bracket that every step narrows, with bisection where a step would leave
it.  It stops on a step of a few ulps (which it takes), on a step at least
half the last one taken, or on a bracket a few ulps wide; never on a step
count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import KappaParam, alpha_coeff, as_kappa, g_lower, rel_gap, x1_point
from .errors import DomainError, QBoundError
from .special import SQRT_2PI, mills_ratio

#: Search ceiling for kappa; the optimum drifts toward 1 for large x and
#: toward infinity as x -> 0.
KAPPA_MAX = 1e6

#: Search floor for kappa; the weight vanishes at kappa = 1.
_KAPPA_MIN = 1.0 + 1e-9

#: One ulp of 1.0.
_EPS = 2.0**-52


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a one-dimensional search.

    argument is the optimal kappa or x depending on the operation; gap is
    the relative looseness (Q - g)/Q at the optimum where that is
    meaningful, else None.  iterations counts the slope evaluations of the
    solve behind each optimizer: Newton steps for kappa_star and
    interval_kappa (of both endpoint solves) and max_weight.
    """

    argument: float
    objective: float
    gap: float | None
    iterations: int
    converged: bool
    message: str = ""


#: The kappa-slope of ln g is F(kappa-1) - x**2/2, with c = pi*m + 2 and
#: F(m) = N(m) / (2m(1+m)c**2), N(m) = _N2*m**2 + _N1*m + 4.
_N2 = 2.0 * math.pi * (math.pi - 2.0)
_N1 = 4.0 * (math.pi - 1.0)


def _f(m: float):
    """(F(m), d ln F / d ln m).  Every term of either is positive, so
    neither cancels; the log-derivative lies in (-2, -1)."""
    c = math.pi * m + 2.0
    n = (_N2 * m + _N1) * m + 4.0
    f = n / (2.0 * m * (1.0 + m) * c * c)
    return f, m * (2.0 * _N2 * m + _N1) / n - 1.0 - m / (1.0 + m) - 2.0 * math.pi * m / c


#: F at the search range's ends, and the range in t = ln(kappa-1): the
#: bracket of every _kappa_root solve, set once.
_F_AT_MIN, _F_AT_MAX = _f(_KAPPA_MIN - 1.0)[0], _f(KAPPA_MAX - 1.0)[0]
_T_MIN, _T_MAX = math.log(_KAPPA_MIN - 1.0), math.log(KAPPA_MAX - 1.0)


def _bracketed_newton(step, x: float, lo: float, hi: float, scale: float):
    """(root, evaluations): the one safeguarded Newton loop, which
    _kappa_root and max_weight share (Numerical Recipes, 9.4, rtsafe).

    step(x) is the Newton step, whose sign is that of x - root; a positive
    step sets hi = x, a negative one lo = x, and 0 or nan stops the loop.
    A step no larger than 4*eps*max(scale, |x|) is taken and returned, even
    if it leaves the bracket.  Otherwise the loop stops when the step is at
    least half the last one taken (Newton's steps shrink quadratically, so
    that step is the slope's rounding) or when the bracket is that narrow,
    never on a step count.  Otherwise it takes the step if it stays strictly
    inside the bracket, bisects if the midpoint does, and stops if neither
    does.  evaluations counts the calls of step.
    """
    last, evals = math.inf, 0
    while True:
        dx = step(x)
        evals += 1
        if dx > 0.0:
            hi = x
        elif dx < 0.0:
            lo = x
        else:
            return x, evals
        x_new = x - dx
        size, tol = abs(x_new - x), 4.0 * _EPS * max(scale, abs(x))
        if size <= tol:
            return x_new, evals
        if size >= 0.5 * last or hi - lo <= tol:
            return x, evals
        if lo < x_new < hi:
            x, last = x_new, size
        elif lo < 0.5 * (lo + hi) < hi:
            x = 0.5 * (lo + hi)
        else:
            return x, evals


def _kappa_root(x: float):
    """(kappa, iterations, converged): the maximizer of g(x, kappa) over
    [_KAPPA_MIN, KAPPA_MAX] for x >= 0.

    It is the root of the slope d/dkappa ln g = F(kappa-1) - x**2/2.  F
    falls from inf to 0, so the slope changes sign once, from + to -.
    _bracketed_newton solves ln F(e**t) = ln(x**2/2) in t = ln(kappa-1),
    from the asymptotes F ~ 1/(2m) for small m and F ~ (pi-2)/(pi*m**2)
    for large m, with its tolerance in units of max(1, |t|); iterations
    counts the Newton steps.  When the slope has one sign on the whole
    range, the maximizer is the endpoint it points to and is reported as
    not converged.
    """
    y = 0.5 * x * x
    if _F_AT_MIN <= y:
        return _KAPPA_MIN, 0, False
    if _F_AT_MAX >= y:
        return KAPPA_MAX, 0, False
    ln_y = math.log(y)
    guess = min(-math.log(2.0 * y), 0.5 * math.log((math.pi - 2.0) / (math.pi * y)))

    def step(t):
        f, dlnf = _f(math.exp(t))
        return (math.log(f) - ln_y) / dlnf

    t, evals = _bracketed_newton(step, min(max(guess, _T_MIN), _T_MAX), _T_MIN, _T_MAX, 1.0)
    return 1.0 + math.exp(t), evals, True


def kappa_star(x: float) -> OptimizationResult:
    """The kappa maximizing g(x, kappa) at a fixed point x >= 0.

    At x = 0 the supremum 1/2 is approached only as kappa -> inf; that case
    is reported as non-converged with the search ceiling as argument.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"kappa_star requires a finite x >= 0, got {x}")
    kappa, iters, converged = _kappa_root(x)
    k = KappaParam(kappa)  # one for both kernels, each of which would make its own
    return OptimizationResult(
        argument=kappa,
        objective=g_lower(x, k),
        gap=rel_gap(x, k),
        iterations=iters,
        converged=converged,
        message="supremum at x=0 is approached only as kappa -> inf" if x == 0.0 else "",
    )


def max_weight(k) -> OptimizationResult:
    """Empirical maximal admissible weight for order kappa/2:
    alpha_max(kappa) = inf over x of Q(x) * exp(kappa * x**2 / 2).

    The infimum sits at the root of slope(x) = kappa*x*R(x) - 1 in (0, x1]:
    slope(0) = -1, slope(x1) >= 0 by the sign structure of the proof, and
    x*R(x) is increasing, so the root is unique.  _bracketed_newton solves
    it from x1, with slope' = kappa*R''(x) = kappa*(R*(1 + x*x) - x) from
    the Mills equation R' = x*R - 1, and its tolerance in units of x.  Its
    last step, of a few ulps, may cross the rounded x1 where the root is x1
    to rounding (kappa above ~1e14), so the root is capped at x1.  The
    objective is minimized through its logarithm
    log(R(x)/sqrt(2*pi)) + (kappa-1)*x**2/2, in which nothing underflows.
    alpha_max >= alpha(kappa) always; a violation would contradict the
    theorem and is raised as a QBoundError.
    """
    k = as_kappa(k, "max_weight")
    kappa, m = k.kappa, k.kappa_minus_1

    def step(x):
        if x < 512.0:
            r = mills_ratio(x)
            slope, d = kappa * x * r - 1.0, r * (1.0 + x * x) - x
        else:
            # Both forms above cancel here (relative error ~eps*x**4 in d).
            # Sum 1 - x*R(x) and R''(x) from their asymptotic series in
            # s = 1/x**2, whose next terms are below 1e-18 of the sum.
            s = 1.0 / (x * x)
            slope = m - kappa * s * (1.0 - s * (3.0 - s * (15.0 - 105.0 * s)))
            d = 2.0 * s / x * (1.0 - s * (6.0 - s * (45.0 - 420.0 * s)))
        return slope / kappa / d

    x1 = x1_point(k)
    x, evals = _bracketed_newton(step, x1, 0.0, x1, 0.0)
    x = min(x, x1)
    phi = math.log(mills_ratio(x) / SQRT_2PI) + 0.5 * m * x * x
    alpha_max = math.exp(phi)
    alpha = alpha_coeff(k)
    if alpha_max < alpha * (1.0 - 1e-12):
        raise QBoundError(
            f"fatal inconsistency: measured maximal weight {alpha_max} "
            f"falls below the proven coefficient {alpha} at kappa={k.kappa}"
        )
    return OptimizationResult(
        argument=x,
        objective=alpha_max,
        gap=None,
        iterations=evals,
        converged=True,
    )


def interval_kappa(x_lo: float, x_hi: float) -> OptimizationResult:
    """The single kappa minimizing the worst relative gap
    sup over [x_lo, x_hi] of (Q(x) - g(x, kappa))/Q(x).

    The sup is exact and attained at an endpoint: the gap grows with
    h(x) = (kappa-1)*x**2/2 + log R(x), and h'(x) = (kappa*x*R(x) - 1)/R(x)
    changes sign once, from - to +, so h has no interior maximum.  The two
    endpoint gaps cross at kc = 1 + 2*(log R(x_lo) - log R(x_hi)) /
    (x_hi**2 - x_lo**2); each is minimized at its own kappa_star, so the
    minimax kappa is kc clipped to [kappa_star(x_hi), kappa_star(x_lo)].
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise DomainError("interval endpoints must be finite")
    if x_lo <= 0.0 or x_hi < x_lo:
        raise DomainError(f"need 0 < x_lo <= x_hi, got [{x_lo}, {x_hi}]")
    kappa, iters, converged = _kappa_root(x_lo)  # the upper clip
    span = (x_hi - x_lo) * (x_hi + x_lo)
    # span underflows to 0 only below x_hi ~1.5e-154, where kappa_star is
    # KAPPA_MAX at both ends, so the upper clip is the answer
    if span > 0.0:
        k_hi, iters_hi, conv_hi = _kappa_root(x_hi)
        iters += iters_hi
        log_drop = math.log(mills_ratio(x_lo)) - math.log(mills_ratio(x_hi))
        kc = 1.0 + 2.0 * log_drop / span
        if kc <= k_hi:
            kappa, converged = k_hi, conv_hi
        elif kc < kappa:
            kappa, converged = kc, True
    k = KappaParam(kappa)
    worst = max(rel_gap(x_lo, k), rel_gap(x_hi, k))
    return OptimizationResult(
        argument=kappa,
        objective=worst,
        gap=worst,
        iterations=iters,
        converged=converged,
    )


__all__ = [
    "OptimizationResult",
    "kappa_star",
    "max_weight",
    "interval_kappa",
]
