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


def q_budget(x: float, v: float) -> float:
    """The relative error q's docstring allows its value v > 0 at x:
    max(1e-14, (t*t/2 + 16)*2**-53, ulp(v)/v), t = max(x, 0); the last
    term is a subnormal v's own spacing."""
    t = max(x, 0.0)
    return max(1e-14, (0.5 * t * t + 16.0) * 2.0**-53, math.ulp(v) / v)


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


def lemma1_scan(kappa: float, n: int = 2000) -> bool:
    """Lemma 1's verdict from a dense sign scan of lemma1_relation, each
    sign to the lemma 1 suite's ENDPOINT_TOL: the relation is 0 at x1 and
    x2, negative on n points of [0, x1] and of [x2, 100*x2], and
    nonnegative on n points of [x1, x2]."""
    from qbound import critical_points, lemma1_relation
    from qbound.verify import ENDPOINT_TOL

    cp = critical_points(kappa)
    below = lemma1_relation(np.linspace(0.0, cp.x1, n), kappa)
    inside = lemma1_relation(np.linspace(cp.x1, cp.x2, n), kappa)
    above = lemma1_relation(np.geomspace(cp.x2, 100.0 * cp.x2, n), kappa)
    ends = np.abs([below[-1], above[0]])
    return bool(below.max() <= ENDPOINT_TOL and -inside.min() <= ENDPOINT_TOL
                and above.max() <= ENDPOINT_TOL and ends.max() <= ENDPOINT_TOL)


def blocked_xs(sign: int, seed: int = 11) -> np.ndarray:
    """3 blocks and at least 7 points of the array kernels' block size,
    rounded up to a multiple of 11 so that it reshapes to 11 rows, shuffled:
    -0.0 and 0, bulk values, x where Q is subnormal ([37.5, 38.6]), x in
    [700, 760], where exp(-x) crosses its underflow, the tail past it, and
    x past 2**512, where x*x overflows.  sign = 0 gives random signs, +1
    all values >= 0."""
    from qbound import special

    rng = np.random.default_rng(seed)
    n = -(-(3 * special._BLOCK + 7) // 11) * 11
    fixed = np.array([-0.0, 0.0, 2.0**512, 1e300, sys.float_info.max])
    pools = [
        rng.uniform(0.0, 10.0, n),
        rng.uniform(37.5, 38.6, n),
        rng.uniform(700.0, 760.0, n),  # exp(-x) across its underflow
        10.0 ** rng.uniform(1.0, 8.0, n),
        10.0 ** rng.uniform(154.0, 300.0, n),
    ]
    draw = np.stack(pools)[rng.integers(0, len(pools), n), np.arange(n)]
    x = np.concatenate([fixed, draw[fixed.size:]])
    rng.shuffle(x)
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


def merge_by_hand(suite, xs, kappas, rows, sides, tolerance):
    """The report verify._merge gives, from a plain Python loop over each
    violation of rows, one row per kappa, each of len(xs) values, in turn:
    the worst point is the first nan, else the first strictly greater
    value, rows in order, and sides(r, i) gives its (lhs, rhs).  No point
    at all is the suites' UsageError."""
    from qbound import UsageError, VerificationReport

    points, worst = 0, None
    for r, row in enumerate(rows):
        for i, v in enumerate(row):
            v = float(v)
            points += 1
            if worst is None or v > worst[0] or (math.isnan(v) and not math.isnan(worst[0])):
                worst = (v, r, i)
    if worst is None:
        raise UsageError(f"the {suite} suite has no point to check on this grid")
    v, r, i = worst
    lhs, rhs = sides(r, i)
    return VerificationReport(suite, points, v, (float(xs[i]), float(kappas[r])), tolerance,
                              v <= tolerance, float(lhs), float(rhs))


def theorem_per_kappa(grid, weight_inflation=1.0):
    """The theorem suite's report from one loop over the grid's kappas: one
    q, one single-kappa g_lower call and one violation array per kappa, on
    the grid's x values.  Where Q is subnormal or 0 the violation is inf if
    g - Q > 2**-1073, else -1; elsewhere (g - Q)/Q."""
    from qbound import g_lower, q

    xs, rows, gss = grid.xs(), [], []
    for k in grid.kappas:
        qs = q(xs)
        gs = weight_inflation * g_lower(xs, k.kappa)
        tiny = qs < sys.float_info.min
        viol = (gs - qs) / np.where(tiny, 1.0, qs)
        viol[tiny] = np.where(gs[tiny] - qs[tiny] > 2.0**-1073, math.inf, -1.0)
        rows.append(viol)
        gss.append(gs)
    return merge_by_hand("theorem", xs, [k.kappa for k in grid.kappas], rows,
                         lambda r, i: (gss[r][i], qs[i]), 1e-13)


def derivative_per_kappa(grid):
    """The derivative suite's report from one loop over the grid's kappas:
    at the grid's x >= FD_STEP, one df_dx_identity call and the central
    differences of r_scaled, at the step FD_STEP*min(1, 1/sqrt(kappa - 1)),
    less those of mills_ratio, at FD_STEP, each side its own kernel call.
    The error is |ident - fd|/max(1, |ident|)."""
    from qbound import df_dx_identity, mills_ratio, r_scaled
    from qbound.verify import FD_STEP, FD_TOL

    xs = grid.xs()
    xs, rows, pairs = xs[xs >= FD_STEP], [], []
    for k in grid.kappas:
        h = FD_STEP * min(1.0, 1.0 / math.sqrt(k.kappa_minus_1))
        ident = df_dx_identity(xs, k)
        fd = ((r_scaled(xs + h, k) - r_scaled(xs - h, k)) / (2.0 * h)
              - (mills_ratio(xs + FD_STEP) - mills_ratio(xs - FD_STEP)) / (2.0 * FD_STEP))
        rows.append(np.abs(ident - fd) / np.maximum(1.0, np.abs(ident)))
        pairs.append((ident, fd))
    return merge_by_hand("derivative", xs, [k.kappa for k in grid.kappas], rows,
                         lambda r, i: (pairs[r][0][i], pairs[r][1][i]), FD_TOL)


def chernoff_one_point(grid=None):
    """The Chernoff suite's report with its worst point's sides from
    1-point arrays: Q and the bound on xs[i:i + 1], the grid's (or x = 0
    alone's) slice at the worst index."""
    from qbound import chernoff_upper, mills_ratio, q
    from qbound.special import SQRT_HALF_PI
    from qbound.verify import REL_TOL

    xs = grid.xs() if grid is not None else np.zeros(1)
    viol = mills_ratio(xs) / SQRT_HALF_PI - 1.0

    def sides(r, i):
        return q(xs[i:i + 1])[0], chernoff_upper(xs[i:i + 1])[0]

    return merge_by_hand("chernoff", xs, (math.nan,), [viol], sides, REL_TOL)


def lemma1_by_hand(k):
    """Lemma 1's report built by hand from three floats: lemma1_relation at
    x1, the pivot and x2, absolute at the two endpoints and negated at the
    pivot, rhs 0, merged by merge_by_hand as one row.  Misordered critical
    points check none.  critical_points and lemma1_relation are looked up
    on qbound.verify, so a monkeypatch there reaches this report too."""
    from qbound import verify

    k = verify.as_kappa(k, "verify_lemma1")
    cp = verify.critical_points(k)
    tol = verify.ENDPOINT_TOL
    if not (cp.x1 < cp.pivot < cp.x2):
        return verify.VerificationReport("lemma1", 0, math.inf, (cp.pivot, k.kappa), tol, False)
    xs = (cp.x1, cp.pivot, cp.x2)
    lhs = [verify.lemma1_relation(x, k) for x in xs]
    lhs[0], lhs[2] = abs(lhs[0]), abs(lhs[2])
    return merge_by_hand("lemma1", xs, (k.kappa,), [(lhs[0], -lhs[1], lhs[2])],
                         lambda r, i: (lhs[i], 0.0), tol)


def inflate_alpha(monkeypatch, factor: float):
    """The bound's weight KappaParam.alpha times factor, until monkeypatch
    undoes it: a corrupted bound that the theorem suite must report."""
    from qbound.bounds import KappaParam

    alpha = KappaParam.alpha.fget
    monkeypatch.setattr(KappaParam, "alpha", property(lambda k: alpha(k) * factor))
