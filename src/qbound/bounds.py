"""The parametric exponential bound family for the Gaussian tail and the
functions behind its proof: the coefficient alpha(kappa), the scaled bound
r, the difference f = r - R, the critical points x1/x2 of the relation
kappa*x*r(x) = 1, Boyd's Mills-ratio lower bound, and the Chernoff upper
bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import SQRT_2PI, LambertBranch, elementwise, lambert_w, mills_ratio

_PI = math.pi


@dataclass(frozen=True)
class KappaParam:
    """The bound parameter kappa >= 1 with its derived quantities."""

    kappa: float

    def __post_init__(self):
        k = float(self.kappa)
        if not math.isfinite(k):
            raise DomainError(f"kappa must be finite, got {self.kappa!r}")
        if k < 1.0:
            raise DomainError(f"kappa must be >= 1, got {k}")
        object.__setattr__(self, "kappa", k)

    @property
    def kappa_minus_1(self) -> float:
        return self.kappa - 1.0

    @property
    def c(self) -> float:
        """c = pi*(kappa - 1) + 2, always >= 2."""
        return _PI * self.kappa_minus_1 + 2.0


def as_kappa(k) -> KappaParam:
    """Coerce a float or KappaParam to KappaParam, validating kappa >= 1."""
    if isinstance(k, KappaParam):
        return k
    return KappaParam(float(k))


def _require_strict(k: KappaParam, op: str) -> KappaParam:
    if k.kappa <= 1.0:
        raise DomainError(f"{op} requires kappa > 1, got {k.kappa}")
    return k


@dataclass(frozen=True)
class CriticalPoints:
    """The pair (x1, x2) where kappa*x*r(x,kappa) = 1, with Lambert data.

    Satisfies 0 < x1 < pivot < x2 with pivot = 1/sqrt(kappa-1), and
    w2 < -1 < w1 < 0 where wi = xi**2 * (1 - kappa).
    """

    x1: float
    x2: float
    w1: float
    w2: float
    pivot: float


def alpha_coeff(k) -> float:
    """Weight alpha(kappa) of the lower bound; 0 at kappa = 1, < 1/2 always."""
    k = as_kappa(k)
    c = k.c
    return math.exp(1.0 / c) / (2.0 * k.kappa) * math.sqrt(k.kappa_minus_1 * c / _PI)


@elementwise()
def g_lower(x, k):
    """The lower bound g(x, kappa) = alpha(kappa) * exp(-kappa * x**2 / 2).

    Even in x; g <= Q everywhere for every kappa >= 1.
    """
    k = as_kappa(k)
    return alpha_coeff(k) * np.exp(-0.5 * k.kappa * x * x)


@elementwise(sign=1)
def r_scaled(x, k):
    """r(x, kappa) = sqrt(2*pi) * g(x, kappa) * exp(x**2 / 2), x >= 0.

    Evaluated in the collapsed form sqrt(2*pi)*alpha(kappa)*exp(-(kappa-1)*x**2/2);
    the literal product overflows for x beyond ~38.
    """
    k = _require_strict(as_kappa(k), "r_scaled")
    return SQRT_2PI * alpha_coeff(k) * np.exp(-0.5 * k.kappa_minus_1 * x * x)


@elementwise(sign=1)
def f_diff(x, k):
    """f(x, kappa) = r(x, kappa) - R(x); the bound holds iff f <= 0."""
    k = _require_strict(as_kappa(k), "f_diff")
    return r_scaled(x, k) - mills_ratio(x)


def x1_point(k) -> float:
    """Closed-form smaller critical point x1 = sqrt(2) / sqrt((kappa-1)*c)."""
    k = _require_strict(as_kappa(k), "x1_point")
    return math.sqrt(2.0 / (k.kappa_minus_1 * k.c))


def _t_param(k: KappaParam) -> float:
    """t = pi*(kappa-1)/c = 1 + w1, the distance of w1 from the branch point."""
    return _PI * k.kappa_minus_1 / k.c


def _rhs_z(k: KappaParam) -> float:
    """z = (-2/c) * exp(-2/c) = h(w1), the right-hand side of the crossing
    relation.  Computed as -(1-t)*exp(t-1), which has no cancellation."""
    t = _t_param(k)
    return -(1.0 - t) * math.exp(t - 1.0)


def _conjugate_s(t: float, s0: float) -> float:
    """Solve psi(s) = psi(t) for s < 0, where psi(u) = u + log1p(-u).

    This is the well-conditioned form of h(-1+s) = h(-1+t); it recovers the
    negative-branch preimage w2 = -1 + s without the catastrophic
    cancellation that h's branch-point flatness causes in z-space.
    """
    target = t + math.log1p(-t)
    s = s0
    for _ in range(60):
        g = s + math.log1p(-s) - target
        # psi'(s) = -s / (1 - s)
        step = g * (1.0 - s) / s
        s += step
        if abs(step) <= 4e-16 * abs(s):
            break
    return s


def x2_point(k) -> float:
    """Larger critical point x2 = sqrt(w2 / (1 - kappa)), w2 on the negative
    Lambert branch, polished so the crossing relation holds to ~1e-15."""
    k = _require_strict(as_kappa(k), "x2_point")
    t = _t_param(k)
    if t < 0.05:
        # Near kappa = 1 the Lambert argument sits too close to -1/e for
        # z-space inversion to retain any accuracy; solve in s-space instead.
        s0 = -t * (1.0 + 2.0 * t / 3.0)
    else:
        s0 = lambert_w(_rhs_z(k), LambertBranch.NEGATIVE) + 1.0
    s = _conjugate_s(t, s0)
    # w2 = -1 + s, x2**2 = w2/(1-kappa) = (1 - s)/(kappa - 1)
    return math.sqrt((1.0 - s) / k.kappa_minus_1)


def critical_points(k) -> CriticalPoints:
    """Both critical points together with their Lambert preimages."""
    k = _require_strict(as_kappa(k), "critical_points")
    x1 = x1_point(k)
    x2 = x2_point(k)
    return CriticalPoints(
        x1=x1,
        x2=x2,
        w1=x1 * x1 * (1.0 - k.kappa),
        w2=x2 * x2 * (1.0 - k.kappa),
        pivot=1.0 / math.sqrt(k.kappa_minus_1),
    )


@elementwise(sign=1)
def crossing_condition(x, k):
    """Signed residual of the crossing relation: h(x**2*(1-kappa)) - h(w1).

    Nonpositive exactly on [x1, x2], zero exactly at x1 and x2.
    """
    k = _require_strict(as_kappa(k), "crossing_condition")
    u = x * x * (1.0 - k.kappa)
    return u * np.exp(u) - _rhs_z(k)


@elementwise(sign=1)
def lemma1_relation(x, k):
    """kappa * x * r(x, kappa) - 1: >= 0 exactly on [x1, x2], 0 at the ends."""
    k = _require_strict(as_kappa(k), "lemma1_relation")
    return k.kappa * x * r_scaled(x, k) - 1.0


@elementwise(sign=1)
def df_dx_identity(x, k):
    """Closed form of df/dx: x*f(x,kappa) + 1 - kappa*x*r(x,kappa)."""
    k = _require_strict(as_kappa(k), "df_dx_identity")
    return x * f_diff(x, k) + 1.0 - k.kappa * x * r_scaled(x, k)


@elementwise(sign=1)
def boyd_lower(x):
    """Boyd's lower bound for the scaled Mills ratio:
    R(x) >= pi / ((pi-1)*x + sqrt(x**2 + 2*pi)), exact at x = 0."""
    return _PI / ((_PI - 1.0) * x + np.sqrt(x * x + 2.0 * _PI))


@elementwise(sign=1)
def chernoff_upper(x):
    """The tightest Chernoff-type upper bound Q(x) <= 0.5*exp(-x**2/2), x >= 0."""
    return 0.5 * np.exp(-0.5 * x * x)


@elementwise(sign=1)
def boyd_lower_q(x):
    """Boyd's bound mapped to Q-scale: boyd_lower(x) * exp(-x**2/2) / sqrt(2*pi)."""
    return boyd_lower(x) * np.exp(-0.5 * x * x) / SQRT_2PI


__all__ = [
    "KappaParam",
    "CriticalPoints",
    "as_kappa",
    "alpha_coeff",
    "g_lower",
    "r_scaled",
    "f_diff",
    "x1_point",
    "x2_point",
    "critical_points",
    "crossing_condition",
    "lemma1_relation",
    "df_dx_identity",
    "boyd_lower",
    "chernoff_upper",
    "boyd_lower_q",
]
