"""The parametric exponential bound family for the Gaussian tail and the
functions behind its proof: the coefficient alpha(kappa), the scaled bound
r, the difference f = r - R, the critical points x1/x2 of the relation
kappa*x*r(x) = 1, Boyd's Mills-ratio lower bound, and the Chernoff upper
bound.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import SQRT_2PI, SQRT_HALF_PI, _exp, elementwise, gauss, mills_ratio, newton, q

_PI = math.pi
_ROUNDING = -(2.0**-50)  # 4 ulps of 1: rel_gap is at most 3 ulps below 0 where tight

# The unguarded body for checked x, bound once: a tracer may swap the globals.
_mills = mills_ratio.__wrapped__


@dataclass(frozen=True)
class KappaParam:
    """The bound parameter kappa >= 1 with its derived quantities: kappa_minus_1
    and c = pi*(kappa - 1) + 2 >= 2, set once, and alpha and x1.

    (kappa-1)*c overflows past kappa ~ 7.5e153; only there are alpha and x1
    taken in scaled forms, in which nothing overflows up to the largest double.
    """

    kappa: float

    def __post_init__(self):
        k = float(self.kappa)
        if not math.isfinite(k):
            raise DomainError(f"kappa must be finite, got {self.kappa!r}")
        if k < 1.0:
            raise DomainError(f"kappa must be >= 1, got {k}")
        object.__setattr__(self, "kappa", k)
        object.__setattr__(self, "kappa_minus_1", k - 1.0)
        object.__setattr__(self, "c", _PI * (k - 1.0) + 2.0)

    @property
    def alpha(self) -> float:
        """Weight alpha(kappa) of the lower bound; 0 at kappa = 1, < 1/2 always.
        Scaled: exp(1/c)/2 * sqrt(s*(s + 2/(pi*kappa))), s = (kappa-1)/kappa."""
        m, c = self.kappa_minus_1, self.c
        prod = m * c
        if prod < math.inf:
            return math.exp(1.0 / c) / (2.0 * self.kappa) * math.sqrt(prod / _PI)
        s = m / self.kappa
        return 0.5 * math.exp(1.0 / c) * math.sqrt(s * (s + 2.0 / (_PI * self.kappa)))

    @property
    def x1(self) -> float:
        """Closed-form smaller critical point x1 = sqrt(2) / sqrt((kappa-1)*c),
        kappa > 1.  Scaled: sqrt(2/(pi + 2/(kappa-1))) / (kappa-1)."""
        m = self.kappa_minus_1
        if m <= 0.0:
            raise DomainError(f"x1 requires kappa > 1, got {self.kappa}")
        prod = m * self.c
        if prod < math.inf:
            return math.sqrt(2.0 / prod)
        return math.sqrt(2.0 / (_PI + 2.0 / m)) / m


def as_kappa(k, op: str | None = None) -> KappaParam:
    """Coerce a float or KappaParam to KappaParam, validating kappa >= 1,
    and kappa > 1 as well where op, which needs it, is named."""
    k = k if isinstance(k, KappaParam) else KappaParam(float(k))
    if op is not None and k.kappa <= 1.0:
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
    """Weight alpha(kappa) of the lower bound: KappaParam.alpha."""
    return as_kappa(k).alpha


@elementwise()
def g_lower(x, k):
    """The lower bound g(x, kappa) = alpha(kappa) * exp(-kappa * x**2 / 2).

    Even in x; g <= Q everywhere for every kappa >= 1, and 0 without a
    warning where kappa*x*x overflows.
    """
    k = as_kappa(k)
    return k.alpha * gauss(x, k.kappa)


def _q_and_g(x, ks):
    """The pair (q(x), g) of a 1-D x and a sequence of kappas, g's row per
    kappa bit for bit g_lower(x, kappa): one Gaussian pass over x against
    the kappa column, times the alpha column in place, each alpha and kappa
    a Python float from KappaParam, as in a g_lower call.  q checks x and
    runs it in blocks.  The theorem suite and the CLI table call it once.
    """
    ks = [as_kappa(v) for v in ks]
    qx = q(x)
    g = gauss(x, np.array([v.kappa for v in ks])[:, None])
    g *= np.array([v.alpha for v in ks])[:, None]
    return qx, g


def _r(x, k: KappaParam):
    """r(x, kappa) of a checked x >= 0 and kappa > 1, in the collapsed form
    sqrt(2*pi)*alpha(kappa)*exp(-(kappa-1)*x**2/2); the literal product
    overflows for x beyond ~38."""
    return SQRT_2PI * k.alpha * gauss(x, k.kappa_minus_1)


@elementwise(sign=1)
def r_scaled(x, k):
    """r(x, kappa) = sqrt(2*pi) * g(x, kappa) * exp(x**2 / 2), x >= 0."""
    return _r(x, as_kappa(k, "r_scaled"))


@elementwise(sign=1)
def f_diff(x, k):
    """f(x, kappa) = r(x, kappa) - R(x); the bound holds iff f <= 0.  R is
    taken first, so no temporary of r's is alive while _erfcx runs."""
    k = as_kappa(k, "f_diff")
    R = _mills(x)
    return _r(x, k) - R


@elementwise(sign=1)
def rel_gap(x, k):
    """The bound's relative looseness (Q - g)/Q = 1 - r/R, x >= 0, as
    1 - alpha*exp(-(kappa-1)*x**2/2)/(R/sqrt(2*pi)).  Neither Q nor g is
    formed, so it stays finite where they underflow (Q is subnormal past
    x ~37.5 and 0 from ~38.49).  Like every kernel, it is checked and an
    array is blocked by elementwise alone.  A gap in [_ROUNDING, 0) is the
    rounding of a tight bound (x ~1e4 at kappa_star's kappa) and reads 0.
    R is taken first, so no temporary of the Gaussian factor's is alive
    while _erfcx runs."""
    k = as_kappa(k)
    R = _mills(x)
    gap = 1.0 - k.alpha * gauss(x, k.kappa_minus_1) / (R / SQRT_2PI)
    # gap - gap is +0.0 and gap - (+-0.0) is gap, as gap is finite (R > 0 at
    # every finite x >= 0); np.where would cost ~1 us a scalar call
    return gap - gap * ((gap < 0.0) & (gap >= _ROUNDING))


def x1_point(k) -> float:
    """Smaller critical point x1 of kappa > 1: KappaParam.x1."""
    return as_kappa(k, "x1_point").x1


def x2_point(k) -> float:
    """Larger critical point x2 = sqrt((1 - s)/(kappa - 1)), where
    w2 = -1 + s on the negative Lambert branch meets w1 = -1 + t,
    t = pi*(kappa-1)/c, in h(w2) = h(w1).

    s < 0 solves psi(s) = psi(t), psi(u) = u + log1p(-u), the form of that
    relation that h's flatness at the branch point does not spoil, by
    Newton's method from a closed-form start.  Where 1 - t rounds to 0
    (at some kappa past ~5.7e15, at all past ~1.15e16), psi(t) is -inf and
    x2 is a DomainError.
    """
    k = as_kappa(k, "x2_point")
    c = k.c
    t = _PI * k.kappa_minus_1 / c
    if not t < 1.0:
        cause = "c = pi*(kappa-1) + 2 overflows" if c == math.inf else "1 - t rounds to 0"
        raise DomainError(
            f"x2_point: at kappa = {k.kappa}, {cause}, where t = pi*(kappa-1)/c; "
            f"this happens at some kappa past ~5.7e15 and at every one past ~1.15e16"
        )
    target = t + math.log1p(-t)
    # the series of s about the branch point, or one fixed-point step of
    # s = target - log1p(-s) from s = target; on a log sweep of kappa - 1
    # over [1e-12, 1e16], at most 6 Newton steps follow
    s = -t * (1.0 + 2.0 * t / 3.0) if t < 0.7 else target - math.log1p(-target)
    # Newton on psi(s) - target, psi'(s) = -s/(1 - s)
    s = newton(lambda s: (s + math.log1p(-s) - target) * (s - 1.0) / s, s)
    return math.sqrt((1.0 - s) / k.kappa_minus_1)


def critical_points(k) -> CriticalPoints:
    """Both critical points together with their Lambert preimages."""
    k = as_kappa(k, "critical_points")
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
    """Signed residual of the crossing relation: h(x**2*(1-kappa)) - h(w1),
    h(w) = w*exp(w), the relation whose two preimages lambert_w returns.

    Nonpositive exactly on [x1, x2], zero exactly at x1 and x2.
    """
    k = as_kappa(k, "crossing_condition")
    # x*x alone goes subnormal before w does.  h(w) is -0 for every w below
    # -745, -inf aside, where it is -inf*0 = nan: an overflowed w is taken
    # as the most negative double instead
    with np.errstate(over="ignore"):
        w = np.maximum((1.0 - k.kappa) * x * x, -sys.float_info.max)
    # h(w1) = -a*exp(-a) with a = -w1 = 2/c, in a form finite at every kappa
    a = (2.0 / _PI) / (k.kappa_minus_1 + 2.0 / _PI)
    return w * _exp(w) + a * math.exp(-a)


#: The double below the largest: kappa*(_KX_MAX/kappa) rounds to a finite value.
_KX_MAX = math.nextafter(sys.float_info.max, 0.0)


def _kxr(x, k: KappaParam, r):
    """kappa*x*r for r = r(x, kappa) or R(x), with x capped where kappa*x
    would overflow.  Past the cap, r is exactly 0 (its exponent
    (kappa-1)*x**2/2 is past 1e300), so the product is 0, not inf*0; and
    R(x) ~ 1/x, so the product is ~_KX_MAX/x >= 1 - 2**-52, not inf."""
    return k.kappa * np.minimum(x, _KX_MAX / k.kappa) * r


@elementwise(sign=1)
def lemma1_relation(x, k):
    """kappa * x * r(x, kappa) - 1: >= 0 exactly on [x1, x2], 0 at the ends."""
    k = as_kappa(k, "lemma1_relation")
    return _kxr(x, k, _r(x, k)) - 1.0


@elementwise(sign=1)
def df_dx_identity(x, k):
    """Closed form of df/dx: x*f(x,kappa) + 1 - kappa*x*r(x,kappa).  R is
    taken first, so no temporary of r's is alive while _erfcx runs."""
    k = as_kappa(k, "df_dx_identity")
    R = _mills(x)
    r = _r(x, k)
    return x * (r - R) + 1.0 - _kxr(x, k, r)


_SQUARE_OVER = 2.0**512  # the least double whose square overflows


@elementwise(sign=1)
def boyd_lower(x):
    """Boyd's lower bound for the scaled Mills ratio:
    R(x) >= pi / ((pi-1)*x + sqrt(x**2 + 2*pi)), exact at x = 0.

    It is taken as sqrt(pi/2) * (sqrt(2*pi) / ((pi-1)*x + sqrt(x**2 + 2*pi))),
    whose value at x = 0 is exactly sqrt(pi/2) = R(0), where the quotient
    pi/sqrt(2*pi) rounds one ulp above R(0).  The product of the two
    rounded roots is ~1.7e-16 below pi, so the bound leans low, as a lower
    bound may.

    Where x*x overflows (x >= 2**512, ~1.3e154), 2*pi is far below its
    rounding and the bound, divided through by x, is 1/x to rounding.  The
    maximum of x is tested first, so only an x that holds such a point
    builds a mask.
    """
    if np.maximum.reduce(x, axis=None, initial=0.0) >= _SQUARE_OVER:
        over = x >= _SQUARE_OVER
        return np.where(over, 1.0 / np.where(over, x, 1.0), _boyd(np.where(over, 0.0, x)))
    return SQRT_HALF_PI * (SQRT_2PI / ((_PI - 1.0) * x + np.sqrt(x * x + 2.0 * _PI)))


_boyd = boyd_lower.__wrapped__


@elementwise(sign=1)
def chernoff_upper(x):
    """The tightest Chernoff-type upper bound Q(x) <= 0.5*exp(-x**2/2), x >= 0."""
    return 0.5 * gauss(x, 1.0)


@elementwise(sign=1)
def boyd_lower_q(x):
    """Boyd's bound mapped to Q-scale: boyd_lower(x) * exp(-x**2/2) / sqrt(2*pi)."""
    return _boyd(x) * gauss(x, 1.0) / SQRT_2PI


__all__ = [
    "KappaParam",
    "CriticalPoints",
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
