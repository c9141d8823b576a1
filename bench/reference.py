"""Independent high-precision references (mpmath) and the checks against them.

Nothing here calls qbound.  Each check returns a list of problem strings;
an empty list means the answer matches.

Accuracy model.  An array kernel's answer y for exact double inputs must
satisfy |y - ref| <= sum over the terms t_i of the formula of

    |t_i| * (REL_TOL + EXP_EPS * |a_i|) + FLOOR * |m_i|

where a_i is the exponent inside t_i (any implementation that forms the
exponent in double precision makes a relative error of about EXP_EPS*|a_i|)
and m_i is the factor multiplying a quantity that may have underflowed to a
subnormal, where only absolute accuracy near the smallest normal double is
possible.  Summing over terms makes differences such as f = r - R accurate
relative to their terms, not to their (possibly cancelled) result.
"""
from __future__ import annotations

import math

import mpmath as mp

# The tolerances qbound's own tests use (qbound.verify.REL_TOL and
# ENDPOINT_TOL; tests/test_optimize.py compares optimizer objectives at 1e-9).
REL_TOL = 1e-13
ENDPOINT_TOL = 1e-10
OPT_TOL = 1e-9
EXP_EPS = 2.0 ** -51
FLOOR = 2.0 ** -1022
KAPPA_LO = 1.0 + 1e-9  # the optimizers' search floor, as a double
KAPPA_HI = 1e6  # qbound.optimize.KAPPA_MAX
INTERVAL_GRID = 512

mp.mp.dps = 40
PI = mp.pi
SQRT2 = mp.sqrt(2)
SQRT2PI = mp.sqrt(2 * mp.pi)


def Q(x):
    return mp.erfc(x / SQRT2) / 2


def R(x):
    """Scaled Mills ratio sqrt(2*pi) * Q(x) * exp(x**2/2)."""
    return SQRT2PI * Q(x) * mp.exp(x * x / 2)


def alpha(k):
    c = PI * (k - 1) + 2
    return mp.exp(1 / c) / (2 * k) * mp.sqrt((k - 1) * c / PI)


def _allowed(terms):
    return sum(abs(t) * (REL_TOL + EXP_EPS * abs(a)) + FLOOR * abs(m) for t, a, m in terms)


def array_ref(name, x, kappa=None):
    """(reference value, allowed absolute error) of a kernel at (x, kappa)."""
    x = mp.mpf(x)
    if name == "q":
        ax = abs(x)
        t = Q(ax)
        if x >= 0:
            return t, _allowed([(t, ax * ax / 2, 0.5)])
        return 1 - t, _allowed([(1, 0, 0), (t, ax * ax / 2, 0.5)])
    if name == "mills_ratio":
        v = R(x)
        return v, _allowed([(v, 0, 0)])
    if name == "boyd_lower_q":
        b = PI / ((PI - 1) * x + mp.sqrt(x * x + 2 * PI))
        v = b * mp.exp(-x * x / 2) / SQRT2PI
        return v, _allowed([(v, x * x / 2, b / SQRT2PI)])
    if name == "chernoff_upper":
        v = mp.exp(-x * x / 2) / 2
        return v, _allowed([(v, x * x / 2, 0.5)])
    k = mp.mpf(kappa)
    al = alpha(k)
    if name == "g_lower":
        a = k * x * x / 2
        v = al * mp.exp(-a)
        return v, _allowed([(v, a, al)])
    if name == "crossing_condition":
        u = x * x * (1 - k)
        c = PI * (k - 1) + 2
        z = -(2 / c) * mp.exp(-2 / c)
        v = u * mp.exp(u) - z
        return v, _allowed([(u * mp.exp(u), u, u), (z, 2 / c, 2 / c)])
    a_r = (k - 1) * x * x / 2
    m_r = SQRT2PI * al
    r = m_r * mp.exp(-a_r)
    if name == "r_scaled":
        return r, _allowed([(r, a_r, m_r)])
    if name == "lemma1_relation":
        return k * x * r - 1, _allowed([(k * x * r, a_r, k * x * m_r), (1, 0, 0)])
    big_r = R(x)
    if name == "f_diff":
        return r - big_r, _allowed([(r, a_r, m_r), (big_r, 0, 0)])
    if name == "df_dx_identity":
        v = x * (r - big_r) + 1 - k * x * r
        return v, _allowed([(x * r, a_r, x * m_r), (x * big_r, 0, 0), (1, 0, 0),
                            (k * x * r, a_r, k * x * m_r)])
    raise ValueError(f"no reference for {name!r}")


def _close(label, got, ref, allowed):
    if got is None or not math.isfinite(got):
        return [f"{label} = {got!r} is not finite (reference {float(ref)!r})"]
    err = abs(mp.mpf(got) - ref)
    if err > allowed:
        return [f"{label} = {got!r} differs from reference {float(ref)!r} "
                f"by {float(err):.3g} > allowed {float(allowed):.3g}"]
    return []


def check_array(name, x, kappa, got):
    ref, allowed = array_ref(name, x, kappa)
    where = f"{name}(x={x!r}" + (f", kappa={kappa!r})" if kappa is not None else ")")
    return _close(where, got, ref, allowed)


# --- optimizers and proof machinery ----------------------------------------

def _bisect(f, lo, hi, iters=110):
    """Root of f on [lo, hi] with f(lo) < 0 < f(hi)."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def kappa_star_ref(x):
    """(kappa*, g(x, kappa*)) maximizing g over [KAPPA_LO, KAPPA_HI] through
    the root of d/dkappa ln g = -pi/c^2 - 1/k + 1/(2(k-1)) + pi/(2c) - x^2/2,
    which changes sign once."""
    x = mp.mpf(x)

    def slope(k):
        c = PI * (k - 1) + 2
        return -PI / c ** 2 - 1 / k + 1 / (2 * (k - 1)) + PI / (2 * c) - x * x / 2

    lo, hi = mp.mpf(KAPPA_LO), mp.mpf(KAPPA_HI)
    if slope(lo) <= 0:
        k = lo
    elif slope(hi) >= 0:
        k = hi
    else:
        t = _bisect(lambda t: -slope(1 + mp.exp(t)), mp.log(lo - 1), mp.log(hi - 1))
        k = 1 + mp.exp(t)
    return k, alpha(k) * mp.exp(-k * x * x / 2)


def check_kappa_star(x, res):
    k, g = kappa_star_ref(x)
    q = Q(mp.mpf(x))
    problems = _close(f"kappa_star({x!r}).objective", res["objective"], g,
                      OPT_TOL * g + FLOOR)
    problems += _close(f"kappa_star({x!r}).gap", res["gap"], (q - g) / q, OPT_TOL)
    return problems


def max_weight_ref(kappa):
    """inf over x of Q(x)*exp(kappa*x^2/2), at the root of kappa*x*R(x) = 1."""
    k = mp.mpf(kappa)
    c = PI * (k - 1) + 2
    hi = mp.sqrt(2 / ((k - 1) * c)) * 2
    while k * hi * R(hi) - 1 <= 0:
        hi *= 2
    x0 = _bisect(lambda x: k * x * R(x) - 1, mp.mpf(0), hi)
    return x0, Q(x0) * mp.exp(k * x0 * x0 / 2)


def check_max_weight(kappa, res):
    _, w = max_weight_ref(kappa)
    return _close(f"max_weight({kappa!r}).objective", res["objective"], w, OPT_TOL * w)


def worst_gap(xs_q, k):
    """max over the grid of (Q - g)/Q at kappa k; xs_q holds (x, Q(x))."""
    k = mp.mpf(k)
    al = alpha(k)
    return max(1 - al * mp.exp(-k * x * x / 2) / q for x, q in xs_q)


def check_interval(x_lo, x_hi, res):
    import numpy as np

    xs = np.geomspace(x_lo, x_hi, INTERVAL_GRID)
    xs_q = [(mp.mpf(float(x)), Q(mp.mpf(float(x)))) for x in xs]
    arg = res["argument"]
    label = f"interval_kappa({x_lo!r}, {x_hi!r})"
    w = worst_gap(xs_q, arg)
    problems = _close(label + ".objective", res["objective"], w, OPT_TOL)
    delta = 1e-3 * (arg - 1.0)
    if not problems and delta > 1e-7:
        for k in (max(arg - delta, KAPPA_LO), arg + delta):
            wk = worst_gap(xs_q, k)
            if wk < w - OPT_TOL:
                problems.append(f"{label}: kappa={k!r} gives worst gap "
                                f"{float(wk)!r} below the returned {float(w)!r}")
    return problems


def lemma1_residual(x, kappa):
    """kappa*x*r(x, kappa) - 1 at a double x."""
    k, x = mp.mpf(kappa), mp.mpf(x)
    return k * x * SQRT2PI * alpha(k) * mp.exp(-(k - 1) * x * x / 2) - 1


def check_roots(kappa, x1, x2):
    problems = []
    for name, x in (("x1", x1), ("x2", x2)):
        if x is None or not math.isfinite(x):
            problems.append(f"critical_points({kappa!r}).{name} = {x!r}")
            continue
        res = lemma1_residual(x, kappa)
        if abs(res) > ENDPOINT_TOL:
            problems.append(f"critical_points({kappa!r}).{name} = {x!r}: "
                            f"|kappa*x*r - 1| = {float(abs(res)):.3g} > {ENDPOINT_TOL}")
    return problems


CHECKED_SUITES = ("theorem", "lemma1", "lemma2")


def check_report(rep):
    """Re-evaluate the worst point of a verification report (of the suites
    in CHECKED_SUITES; the others pass unchecked)."""
    x, kappa = rep["worst_point"]
    suite = rep["suite"]
    if suite == "theorem":
        return (_close(f"theorem worst lhs g({x!r}, {kappa!r})", rep["worst_lhs"],
                       *array_ref("g_lower", x, kappa))
                + _close(f"theorem worst rhs Q({x!r})", rep["worst_rhs"], *array_ref("q", x)))
    if suite == "lemma1":
        ref, allowed = array_ref("lemma1_relation", x, kappa)
        got = rep["worst_lhs"]
        if got is not None and math.isfinite(got) and got >= 0 and ref < 0:
            ref = -ref  # endpoint rows report |kappa*x*r - 1|
        return _close(f"lemma1 worst lhs at (x={x!r}, kappa={kappa!r})", got, ref,
                      allowed + ENDPOINT_TOL)
    if suite == "lemma2":
        xm, k = mp.mpf(x), mp.mpf(kappa)
        b = PI / ((PI - 1) * xm + mp.sqrt(xm * xm + 2 * PI))
        ref = min(k * xm * R(xm), k * xm * b)
        return _close(f"lemma2 worst lhs at (x={x!r}, kappa={kappa!r})", rep["worst_lhs"],
                      ref, REL_TOL * abs(ref))
    return []


# --- corrupted answers, for the check of the check ----------------------------

def bump(v, rel=1e-6):
    """v moved by rel relative, and by at least rel absolute."""
    return v + rel * max(abs(v), 1.0)


def corrupt_array(name, x, kappa, got):
    """got moved by ten times the allowed error, or None where the reference
    is too ill-conditioned for that to be a relative 1e-9."""
    ref, allowed = array_ref(name, x, kappa)
    if not allowed <= 1e-10 * abs(ref):
        return None
    return got * (1 + 1e-9)


def corrupt_task(kind, out):
    """A task result (plain data) with its answer corrupted."""
    if kind == "critical_points":
        # Near kappa = 1 the lemma 1 residual is flat at x1 to first order.
        return dict(out, x1=out["x1"] * 1.01)
    if kind in ("kappa_star", "max_weight", "interval_kappa"):
        return dict(out, objective=bump(out["objective"]))
    reports = [dict(r, worst_lhs=bump(r["worst_lhs"])) if r["suite"] in CHECKED_SUITES else r
               for r in (out if isinstance(out, list) else [out])]
    return reports if isinstance(out, list) else reports[0]


def check_task(kind, params, out):
    """Reference check of one select_certify task result (as plain data)."""
    if kind == "kappa_star":
        return check_kappa_star(params["x"], out)
    if kind == "max_weight":
        return check_max_weight(params["kappa"], out)
    if kind == "interval_kappa":
        return check_interval(params["x_lo"], params["x_hi"], out)
    if kind == "critical_points":
        return check_roots(params["kappa"], out["x1"], out["x2"])
    reports = out if isinstance(out, list) else [out]
    problems = []
    for rep in reports:
        problems += check_report(rep)
    return problems
