"""Independent oracles used only by the test suite.

These deliberately avoid the production code paths: Q comes from adaptive
quadrature of the Gaussian density, Lambert W values come from bisection,
and optimizer answers come from dense scans.  A kernel's blocked array path
is checked against the same kernel on chunks of at most one block, which
take the direct path and start no thread.
"""
import contextlib
import itertools
import math
import sys

import numpy as np
from scipy.integrate import quad

SQRT_2PI = math.sqrt(2.0 * math.pi)


def q_quad(x: float) -> float:
    """Q(x) by adaptive quadrature, x >= 0.

    The Gaussian factor at the left endpoint is pulled out so the integrand
    stays O(1); this keeps the estimate relatively accurate arbitrarily far
    into the tail instead of drowning in absolute-error underflow.
    """
    val, _ = quad(
        lambda s: math.exp(-0.5 * s * s - x * s),
        0.0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-13,
        limit=300,
    )
    return val * math.exp(-0.5 * x * x) / SQRT_2PI


def mills_quad(x: float) -> float:
    """Scaled Mills ratio by quadrature: sqrt(2*pi)*Q(x)*exp(x**2/2)."""
    val, _ = quad(
        lambda s: math.exp(-0.5 * s * s - x * s),
        0.0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-13,
        limit=300,
    )
    return val


def lambert_bisect(z: float, lo: float, hi: float, iters: int = 200) -> float:
    """Bisection solve of w * exp(w) = z on a bracketing interval [lo, hi]."""

    def f(w):
        return w * math.exp(w) - z

    flo = f(lo)
    assert flo * f(hi) <= 0.0, "bracket does not straddle the root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) * flo <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def alpha_direct(kappa: float) -> float:
    """The bound coefficient straight from its defining expression."""
    c = math.pi * (kappa - 1.0) + 2.0
    return (
        math.exp(1.0 / c)
        / (2.0 * kappa)
        * math.sqrt((kappa - 1.0) * c / math.pi)
    )


def g_direct(x: float, kappa: float) -> float:
    return alpha_direct(kappa) * math.exp(-0.5 * kappa * x * x)


def kappa_scan(x: float, lo: float = 1.01, hi: float = 10.0, step: float = 1e-4):
    """Dense-scan maximizer of g(x, kappa) over kappa; returns (kappa, g)."""
    kappas = np.arange(lo, hi, step)
    vals = alpha_scan_values(x, kappas)
    i = int(np.argmax(vals))
    return float(kappas[i]), float(vals[i])


def alpha_scan_values(x: float, kappas: np.ndarray) -> np.ndarray:
    c = math.pi * (kappas - 1.0) + 2.0
    alphas = np.exp(1.0 / c) / (2.0 * kappas) * np.sqrt((kappas - 1.0) * c / math.pi)
    return alphas * np.exp(-0.5 * kappas * x * x)


def weight_scan(kappa: float, x_hi: float = 3.0, n: int = 200001):
    """Dense-scan infimum of Q(x)*exp(kappa*x**2/2); Q from quadrature on a
    coarse pass, refined around the minimum."""
    xs = np.linspace(1e-6, x_hi, 2001)
    vals = np.array([q_quad(x) * math.exp(0.5 * kappa * x * x) for x in xs])
    i = int(np.argmin(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    xs2 = np.linspace(lo, hi, 2001)
    vals2 = np.array([q_quad(x) * math.exp(0.5 * kappa * x * x) for x in xs2])
    j = int(np.argmin(vals2))
    return float(xs2[j]), float(vals2[j])


def blocked_xs(sign: int, seed: int = 11) -> np.ndarray:
    """3 blocks and at least 7 points of the array kernels' block size,
    rounded up to a multiple of 11 so that it reshapes to 11 rows, shuffled:
    -0.0 and 0, bulk values, x where Q is subnormal ([37.5, 38.6]), x in
    [700, 760], where h(-x) crosses exp's underflow, the tail past it, and
    x past 2**512, where x*x overflows.  sign = 0 gives random signs, -1
    all values <= 0, +1 all values >= 0."""
    from qbound import special

    rng = np.random.default_rng(seed)
    n = -(-(3 * special._BLOCK + 7) // 11) * 11
    fixed = np.array([-0.0, 0.0, 2.0**512, 1e300, sys.float_info.max])
    pools = [
        rng.uniform(0.0, 10.0, n),
        rng.uniform(37.5, 38.6, n),
        rng.uniform(700.0, 760.0, n),  # h's w = -x across exp's underflow
        10.0 ** rng.uniform(1.0, 8.0, n),
        10.0 ** rng.uniform(154.0, 300.0, n),
    ]
    draw = np.stack(pools)[rng.integers(0, len(pools), n), np.arange(n)]
    x = np.concatenate([fixed, draw[fixed.size:]])
    rng.shuffle(x)
    if sign < 0:
        return -np.abs(x)
    if sign == 0:
        x *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return x


def chunked(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn on x in chunks of 1, 1000, 5000 and one block less one point, in
    turn: each at most one block, below and above the size at which the
    kernels switch to their masked forms."""
    from qbound import special

    flat, out, start = x.reshape(-1), [], 0
    for size in itertools.cycle((1, 1000, 5000, special._BLOCK - 1)):
        if start >= flat.size:
            break
        out.append(fn(flat[start:start + size], *args))
        start += size
    return np.concatenate(out).reshape(x.shape)


#: Thread counts the blocked path is checked with: the calling thread alone,
#: as on one CPU, and with one and with two threads beside it.
WORKER_COUNTS = (1, 2, 3)


@contextlib.contextmanager
def block_workers(monkeypatch, n: int):
    """special's blocks run on n threads; monkeypatch restores the
    process's own count."""
    from qbound import special

    monkeypatch.setattr(special, "_WORKERS", n)
    yield


def inflate_alpha(monkeypatch, factor: float):
    """The bound's weight KappaParam.alpha times factor, until monkeypatch
    undoes it: a corrupted bound that the theorem suite must report."""
    from qbound.bounds import KappaParam

    alpha = KappaParam.alpha.fget
    monkeypatch.setattr(KappaParam, "alpha", property(lambda k: alpha(k) * factor))
