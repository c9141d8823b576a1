"""Parameter selection for the bound family: best kappa at a point, the
empirical maximal weight for a fixed order, and the best single kappa over
an interval.  Each is an exact one-dimensional solve by bisection on an
analytic slope; all are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import alpha_coeff, as_kappa, g_lower, x1_point
from .errors import DomainError, QBoundError
from .special import SQRT_2PI, mills_ratio

#: Search ceiling for kappa; the optimum drifts toward 1 for large x and
#: toward infinity as x -> 0.
KAPPA_MAX = 1e6

#: Search floor for kappa; the weight vanishes at kappa = 1.
_KAPPA_MIN = 1.0 + 1e-9


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a one-dimensional search.

    argument is the optimal kappa or x depending on the operation; gap is
    the relative looseness (Q - g)/Q at the optimum where that is
    meaningful, else None.  iterations counts the steps of the bisection
    behind each optimizer (for interval_kappa, of both endpoint solves).
    """

    argument: float
    objective: float
    gap: float | None
    iterations: int
    converged: bool
    message: str = ""


def _bisect(below, lo: float, hi: float):
    """The point where the predicate below turns from true (at lo) to false
    (at hi), bisected until the midpoint equals an endpoint.  Returns the
    last midpoint and the number of predicate evaluations."""
    evals = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid, evals
        evals += 1
        if below(mid):
            lo = mid
        else:
            hi = mid


def _gap(x: float, k) -> float:
    """(Q - g)/Q at x > 0, as 1 - r/R with log(r/R) = log(sqrt(2*pi)*alpha)
    - (kappa-1)*x**2/2 - log R(x), so neither Q nor g underflows."""
    k = as_kappa(k)
    log_ratio = (
        math.log(SQRT_2PI * alpha_coeff(k))
        - 0.5 * k.kappa_minus_1 * x * x
        - math.log(mills_ratio(x))
    )
    return -math.expm1(log_ratio)


def _kappa_root(x: float):
    """(kappa, iterations, converged): the maximizer of g(x, kappa) over
    [_KAPPA_MIN, KAPPA_MAX] for x > 0.

    It is the root of the slope d/dkappa ln g = -pi/c**2 - 1/kappa +
    1/(2(kappa-1)) + pi/(2c) - x**2/2, which changes sign once, from + to
    -; bisection runs on log(kappa-1).  When the slope has one sign on the
    whole range, the maximizer is the endpoint it points to and is reported
    as not converged.
    """

    def slope(km1: float) -> float:
        c = math.pi * km1 + 2.0
        return (
            -math.pi / (c * c) - 1.0 / (1.0 + km1) + 0.5 / km1 + 0.5 * math.pi / c
            - 0.5 * x * x
        )

    lo, hi = _KAPPA_MIN - 1.0, KAPPA_MAX - 1.0
    if slope(lo) <= 0.0:
        return _KAPPA_MIN, 0, False
    if slope(hi) >= 0.0:
        return KAPPA_MAX, 0, False
    t, evals = _bisect(lambda t: slope(math.exp(t)) > 0.0, math.log(lo), math.log(hi))
    return 1.0 + math.exp(t), evals, True


def kappa_star(x: float) -> OptimizationResult:
    """The kappa maximizing g(x, kappa) at a fixed point x > 0.

    At x = 0 the supremum 1/2 is approached only as kappa -> inf; that case
    is reported as non-converged with the search ceiling as argument.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"kappa_star requires x > 0, got {x}")
    if x == 0.0:
        return OptimizationResult(
            argument=KAPPA_MAX,
            objective=g_lower(0.0, KAPPA_MAX),
            gap=(0.5 - g_lower(0.0, KAPPA_MAX)) / 0.5,
            iterations=0,
            converged=False,
            message="supremum at x=0 is approached only as kappa -> inf",
        )
    kappa, iters, converged = _kappa_root(x)
    return OptimizationResult(
        argument=kappa,
        objective=g_lower(x, kappa),
        gap=_gap(x, kappa),
        iterations=iters,
        converged=converged,
    )


def max_weight(k) -> OptimizationResult:
    """Empirical maximal admissible weight for order kappa/2:
    alpha_max(kappa) = inf over x of Q(x) * exp(kappa * x**2 / 2).

    The infimum sits at the root of slope(x) = kappa*x*R(x) - 1 in (0, x1]:
    slope(0) = -1, slope(x1) >= 0 by the sign structure of the proof, and
    x*R(x) is increasing, so the root is unique and bisection finds it to
    adjacent doubles.  The objective is minimized through its logarithm
    log(R(x)/sqrt(2*pi)) + (kappa-1)*x**2/2, in which nothing underflows.
    alpha_max >= alpha(kappa) always; a violation would contradict the
    theorem and is raised as a QBoundError.
    """
    k = as_kappa(k)
    if k.kappa <= 1.0:
        raise DomainError("max_weight requires kappa > 1")
    mid, evals = _bisect(
        lambda x: k.kappa * x * mills_ratio(x) < 1.0, 0.0, x1_point(k)
    )
    phi = math.log(mills_ratio(mid) / SQRT_2PI) + 0.5 * k.kappa_minus_1 * mid * mid
    alpha_max = math.exp(phi)
    alpha = alpha_coeff(k)
    if alpha_max < alpha * (1.0 - 1e-12):
        raise QBoundError(
            f"fatal inconsistency: measured maximal weight {alpha_max} "
            f"falls below the proven coefficient {alpha} at kappa={k.kappa}"
        )
    return OptimizationResult(
        argument=mid,
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
    if x_hi > x_lo:
        k_hi, iters_hi, conv_hi = _kappa_root(x_hi)
        iters += iters_hi
        log_drop = math.log(mills_ratio(x_lo)) - math.log(mills_ratio(x_hi))
        kc = 1.0 + 2.0 * log_drop / ((x_hi - x_lo) * (x_hi + x_lo))
        if kc <= k_hi:
            kappa, converged = k_hi, conv_hi
        elif kc < kappa:
            kappa, converged = kc, True
    worst = max(_gap(x_lo, kappa), _gap(x_hi, kappa))
    return OptimizationResult(
        argument=kappa,
        objective=worst,
        gap=worst,
        iterations=iters,
        converged=converged,
    )
