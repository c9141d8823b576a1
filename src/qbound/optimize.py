"""Parameter selection for the bound family: best kappa at a point, the
empirical maximal weight for a fixed order, and the best single kappa over
an interval.  All searches are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import alpha_coeff, as_kappa, g_lower, x1_point
from .errors import DomainError
from .special import SQRT_2PI, mills_ratio, q

#: Search ceiling for kappa; the optimum drifts toward 1 for large x and
#: toward infinity as x -> 0.
KAPPA_MAX = 1e6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a one-dimensional search.

    argument is the optimal kappa or x depending on the operation; gap is
    the relative looseness (Q - g)/Q at the optimum where that is
    meaningful, else None.  iterations counts golden-section steps for
    kappa_star and interval_kappa, and slope evaluations of the bisection
    for max_weight.
    """

    argument: float
    objective: float
    gap: float | None
    iterations: int
    converged: bool
    message: str = ""


def _golden_max(fn, a: float, b: float, tol: float):
    """Golden-section maximization of fn on [a, b] to bracket width tol."""
    h_w = b - a
    if h_w <= tol:
        m = 0.5 * (a + b)
        return m, fn(m), 0
    n = int(math.ceil(math.log(tol / h_w) / math.log(_INV_PHI)))
    c = b - _INV_PHI * h_w
    d = a + _INV_PHI * h_w
    fc, fd = fn(c), fn(d)
    for _ in range(n):
        if fc > fd:
            b, d, fd = d, c, fc
            h_w *= _INV_PHI
            c = b - _INV_PHI * h_w
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h_w *= _INV_PHI
            d = a + _INV_PHI * h_w
            fd = fn(d)
    if fc > fd:
        return c, fc, n
    return d, fd, n


def _coarse_then_golden(fn, lo: float, hi: float, n_coarse: int, tol: float):
    """Log-spaced coarse scan over [lo, hi], then golden refinement of every
    bracket where the discrete slope changes sign (the objective is only
    assumed unimodal after the scan confirms it)."""
    grid = np.geomspace(lo, hi, n_coarse)
    vals = np.array([fn(g) for g in grid])
    i_best = int(np.argmax(vals))
    slope = np.sign(np.diff(vals))
    brackets = [
        i
        for i in range(1, n_coarse - 1)
        if slope[i - 1] > 0 and slope[i] < 0
    ]
    if i_best not in brackets:
        brackets.append(i_best)
    best = (grid[i_best], vals[i_best], 0)
    iters = 0
    for i in brackets:
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, n_coarse - 1)]
        arg, val, it = _golden_max(fn, a, b, tol)
        iters += it
        if val > best[1]:
            best = (arg, val, iters)
    at_edge = i_best in (0, n_coarse - 1)
    return best[0], best[1], iters, at_edge


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

    def objective(kap: float) -> float:
        return g_lower(x, kap)

    arg, val, iters, at_edge = _coarse_then_golden(
        objective, 1.0 + 1e-9, KAPPA_MAX, 600, 1e-8
    )
    qx = q(x)
    return OptimizationResult(
        argument=arg,
        objective=val,
        gap=(qx - val) / qx,
        iterations=iters,
        converged=not at_edge,
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
    theorem and is raised as fatal.
    """
    k = as_kappa(k)
    if k.kappa <= 1.0:
        raise DomainError("max_weight requires kappa > 1")
    lo, hi = 0.0, x1_point(k)
    evals = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        evals += 1
        if k.kappa * mid * mills_ratio(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    phi = math.log(mills_ratio(mid) / SQRT_2PI) + 0.5 * k.kappa_minus_1 * mid * mid
    alpha_max = math.exp(phi)
    alpha = alpha_coeff(k)
    if alpha_max < alpha * (1.0 - 1e-12):
        raise RuntimeError(
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


def interval_kappa(x_lo: float, x_hi: float, n_grid: int = 512) -> OptimizationResult:
    """The single kappa minimizing the worst relative gap
    sup over [x_lo, x_hi] of (Q(x) - g(x, kappa))/Q(x).

    The inner sup runs over a log-spaced grid of at least 512 points; the
    outer minimization is a coarse scan plus golden-section refinement.
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise DomainError("interval endpoints must be finite")
    if x_lo <= 0.0 or x_hi < x_lo:
        raise DomainError(f"need 0 < x_lo <= x_hi, got [{x_lo}, {x_hi}]")
    n_grid = max(int(n_grid), 512)
    xs = np.geomspace(x_lo, x_hi, n_grid)
    qs = q(xs)

    def worst_gap(kap: float) -> float:
        return float(np.max((qs - g_lower(xs, kap)) / qs))

    def objective(kap: float) -> float:
        return -worst_gap(kap)

    arg, neg_val, iters, at_edge = _coarse_then_golden(
        objective, 1.0 + 1e-9, KAPPA_MAX, 400, 1e-8
    )
    return OptimizationResult(
        argument=arg,
        objective=-neg_val,
        gap=-neg_val,
        iterations=iters,
        converged=not at_edge,
    )
