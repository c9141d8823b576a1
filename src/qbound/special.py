"""Special-function kernels: Gaussian tail probability, scaled Mills ratio,
the helper h(w) = w*exp(w), and both real branches of the Lambert W function.

Everything here is pure and deterministic; array arguments are supported
elementwise wherever the operation is naturally vectorizable.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT2 = math.sqrt(2.0)

#: z = -1/e, where the two real Lambert branches meet (W = -1).
BRANCH_POINT = -math.exp(-1.0)


class LambertBranch(enum.Enum):
    """Real branch selector for the Lambert W function.

    PRINCIPAL is W0 on [-1/e, inf) with values >= -1; NEGATIVE is W-1 on
    [-1/e, 0) with values <= -1.  The two branches are the inverses of the
    two monotone pieces of h(w) = w*exp(w) on either side of w = -1.
    """

    PRINCIPAL = "principal"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class QValue:
    """A Gaussian tail probability together with a relative-accuracy bound."""

    value: float
    accuracy: float


def elementwise(sign=0, name="x"):
    """Decorator for a kernel fn(x, *args) that is evaluated elementwise in x.

    x is checked to be finite and, for sign = +1 or -1, to satisfy
    sign*x >= 0.  A float or a 0-d x reaches the kernel as a NumPy float64
    scalar and its result comes back as a Python float.  The scalar runs
    through the same ufunc loops as a 0-d array, so the bits are the same,
    and it is checked with plain comparisons instead of array reductions,
    which cost microseconds per call.  Any other x reaches the kernel as a
    float array, and the array result is returned.
    """
    outside = {1: np.less, -1: np.greater}.get(sign)

    def decorate(fn):
        bound = f"{fn.__name__} requires {name} {'>=' if sign > 0 else '<='} 0"

        @functools.wraps(fn)
        def kernel(x, *args):
            if isinstance(x, float):  # a Python float or a float64 scalar
                x = np.float64(x)
            else:
                x = np.asarray(x, dtype=float)
                if x.ndim:
                    finite = np.isfinite(x)
                    if not finite.all():
                        bad = float(x[~finite].flat[0])
                        raise DomainError(f"{name} must be finite, got {bad!r}")
                    if outside is not None and outside(x, 0.0).any():
                        raise DomainError(bound)
                    return fn(x, *args)
                x = x[()]
            if not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {float(x)!r}")
            if sign and sign * x < 0.0:
                raise DomainError(bound)
            return float(fn(x, *args))

        return kernel

    return decorate


def gauss(x, a):
    """exp(-a*x*x/2) of a checked x, a Python float, NumPy scalar or array:
    the Gaussian factor of every bound kernel, 0 without a warning where
    a*x*x overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * a * x * x)


@elementwise()
def q(x):
    """Gaussian tail probability Q(x) = P(Z > x), elementwise.

    Evaluated through the scaled complementary error function so the result
    keeps full relative accuracy far into the tail (down to the underflow
    threshold near x ~ 38.6).
    """
    ax = np.abs(x)
    tail = 0.5 * _sp.erfcx(ax / _SQRT2) * gauss(ax, 1.0)
    return np.where(x >= 0.0, tail, 1.0 - tail)


def q_ref(x: float) -> QValue:
    """Reference evaluation of Q(x) with an explicit accuracy tag.

    The accuracy field is a bound on the relative error: 1e-14 while the
    value is a normal double, degrading to the representable precision once
    the result falls into the subnormal range.
    """
    value = q(float(x))
    if value <= 0.0:
        acc = math.inf
    else:
        acc = max(1e-14, math.ulp(value) / value)
    return QValue(value=value, accuracy=acc)


@elementwise(sign=1)
def mills_ratio(x):
    """Scaled Mills ratio R(x) = sqrt(2*pi) * Q(x) * exp(x**2 / 2), x >= 0.

    Computed as sqrt(pi/2) * erfcx(x / sqrt(2)); the naive product overflows
    for x beyond ~38 while this form is stable on [0, 1e8] and beyond.
    """
    return SQRT_HALF_PI * _sp.erfcx(x / _SQRT2)


@elementwise(sign=-1, name="w")
def h(w):
    """h(w) = w * exp(w) for w <= 0.

    Strictly decreasing on (-inf, -1), strictly increasing on (-1, 0), with
    unique minimum h(-1) = -1/e and h -> 0 at both ends.
    """
    return w * np.exp(w)


def _halley(z: float, w: float, tol: float) -> float:
    """Polish a Lambert W estimate by Halley iteration on w*exp(w) - z.

    Keeps the best-residual iterate seen, so a dithering final step near
    the branch point cannot make the answer worse than the starting guess.
    """
    best_w, best_r = w, math.inf
    for _ in range(80):
        ew = math.exp(w)
        f = w * ew - z
        af = abs(f)
        if af < best_r:
            best_w, best_r = w, af
        if af <= 0.01 * tol:
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 2e-16 * (1.0 + abs(w)):
            ew = math.exp(w)
            f = w * ew - z
            if abs(f) < best_r:
                best_w, best_r = w, abs(f)
            break
    return best_w


def lambert_w(z: float, branch: LambertBranch = LambertBranch.PRINCIPAL) -> float:
    """Real Lambert W: the solution w of w * exp(w) = z on the given branch.

    PRINCIPAL requires z >= -1/e and returns w >= -1; NEGATIVE requires
    -1/e <= z < 0 and returns w <= -1.  Residual |w*exp(w) - z| is driven
    below 1e-14 * max(|z|, 1e-300) wherever double precision permits.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    principal = branch is LambertBranch.PRINCIPAL
    if z < BRANCH_POINT:
        raise DomainError(f"no real Lambert W for z = {z!r} < -1/e")
    if not principal and z >= 0.0:
        raise DomainError("negative branch requires -1/e <= z < 0")
    if z == BRANCH_POINT:
        return -1.0
    if z == 0.0:
        return 0.0

    # Square-root expansion around the branch point; d = p**2 = 2*(e*z + 1).
    d = 2.0 * (math.e * z + 1.0)
    if d < 0.0:
        d = 0.0
    if d < 0.04:
        p = math.sqrt(d) if principal else -math.sqrt(d)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif principal:
        if z < 3.0:
            w = math.log1p(z)
        else:
            l1 = math.log(z)
            l2 = math.log(l1)
            w = l1 - l2 + l2 / l1
        if w < -1.0:
            w = -1.0
    else:
        l1 = math.log(-z)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
        if w > -1.0:
            w = -1.0

    tol = 1e-14 * max(abs(z), 1e-300)
    w = _halley(z, w, tol)
    # Rounding may push the result a hair across the branch boundary.
    if principal and w < -1.0:
        w = -1.0
    if not principal and w > -1.0:
        w = -1.0
    return w


__all__ = [
    "BRANCH_POINT",
    "LambertBranch",
    "QValue",
    "q",
    "q_ref",
    "mills_ratio",
    "h",
    "lambert_w",
]
