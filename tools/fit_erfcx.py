"""Fit, check and gate the frozen erfcx table in qbound.special.

qbound evaluates erfcx(z) = exp(z*z)*erfc(z), z >= 0, as y * P_j(t) with

    y = 1/(1+z),  j = min(floor(128*y), 127),  t = 2*(128*y - j) - 1,

and P_j the degree-6 polynomial in t that interpolates erfcx(z)/y at the
seven Chebyshev extrema of piece j, t = cos(pi*i/6), ends included, so the
pieces meet at their boundaries.  (It computes y * P_j(t) as P_j(t)/(1+z),
one rounding fewer.)  The values come from mpmath at 50 digits; the
coefficients are then rounded once to doubles.  The last piece holds z = 0
(t = 1); its constant term is moved to the nearest double for which the
double Horner sum at t = 1 is exactly 1, so erfcx(0) = 1 exactly.

Needs mpmath (and the numpy that qbound needs).  The frozen table was
fitted with mpmath 1.3.0, and CI runs --check under mpmath 1.3: another
release may round a value differently and move a coefficient's last bit.
From the root of a checkout:

    python tools/fit_erfcx.py          # refit; print the table as it sits in special.py
    python tools/fit_erfcx.py --check  # the frozen table equals the refit, bit for bit
    python tools/fit_erfcx.py --gate   # accuracy and speed against mpmath, and scipy if present

The gate draws 100,000 seeded points in each of [0, 0.5], [0.5, 4],
[4, 50] and [50, 1e300] (log-uniform in the last) and reports the largest
relative error in units of 2**-53, for the table and for scipy.special.erfcx.
It fails if the table's error exceeds ERROR_BOUND units in any range, if
its scalar and array paths differ, or, where scipy is installed, if the
table is worse than scipy in any range or a 1e6-point call on a
tail_arrays-like batch (|x|/sqrt(2), x half uniform in [0, 10] and half
log-uniform in [10, 1e8]) is slower than scipy's; without scipy the
table's time is only printed.  _erfcx reads z as w = 1 + z, so every call
here passes 1.0 + z.  The table is timed as the kernels run it, through
special.elementwise, which checks the batch and hands it on one block at
a time.  The two calls alternate for 7 rounds and each keeps its best, so
a change in host load falls on both alike.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbound import special  # noqa: E402

PIECES = 128
DEGREE = 6
DIGITS = 50
RANGES = [(0.0, 0.5), (0.5, 4.0), (4.0, 50.0), (50.0, 1e300)]
GATE_POINTS = 100_000
GATE_SEED = 20261018
#: The table's largest relative error, in units of 2**-53, that the gate
#: accepts: the error that q_ref's accuracy budget allows for _erfcx.
ERROR_BOUND = 4.0


def erfcx_mp(z):
    """erfcx at the working precision.  Past z = 100 it is summed from its
    asymptotic series, whose terms there keep shrinking until the n-th,
    n ~ z**2, is ~exp(-z**2); mpmath's erfc cannot take z past ~1e154."""
    z = mp.mpf(z)
    if z <= 100:
        return mp.erfc(z) * mp.exp(z * z)
    total, term, n, tiny = mp.mpf(0), mp.mpf(1), 0, mp.mpf(10) ** -mp.mp.dps
    while abs(term) > tiny:
        total += term
        n += 1
        term *= -(2 * n - 1) / (2 * z * z)
    return total / (z * mp.sqrt(mp.pi))


def _horner(c, t: float) -> float:
    p = c[DEGREE]
    for ck in c[DEGREE - 1::-1]:
        p = p * t + ck
    return p


def fit_piece(j: int) -> tuple:
    """Coefficients c0..c6 of P_j in t, rounded to doubles."""
    with mp.workdps(DIGITS):
        nodes = [mp.cos(mp.pi * i / DEGREE) for i in range(DEGREE + 1)]
        values = []
        for t in nodes:
            y = (j + (t + 1) / 2) / PIECES
            values.append(1 / mp.sqrt(mp.pi) if y == 0 else erfcx_mp(1 / y - 1) / y)
        # Newton divided differences, then expand to monomials in t
        coef = list(values)
        for level in range(1, DEGREE + 1):
            for i in range(DEGREE, level - 1, -1):
                coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - level])
        mono = [mp.mpf(0)] * (DEGREE + 1)
        for i in range(DEGREE, -1, -1):
            # mono <- mono*(t - nodes[i]) + coef[i]
            shifted = [mp.mpf(0)] + mono[:-1]
            mono = [s - nodes[i] * m for s, m in zip(shifted, mono)]
            mono[0] += coef[i]
        c = [float(m) for m in mono]
    if j == PIECES - 1:  # z = 0 sits at t = 1: make erfcx(0) exactly 1
        while _horner(c, 1.0) != 1.0:
            c[0] = math.nextafter(c[0], math.inf if _horner(c, 1.0) < 1.0 else -math.inf)
    return tuple(c)


def fit() -> tuple:
    return tuple(fit_piece(j) for j in range(PIECES))


def render(table) -> str:
    """The table as Python source, two lines per piece."""
    lines = ["_ERFCX_PIECES = ("]
    for c in table:
        lines.append(f"    ({c[0]!r}, {c[1]!r}, {c[2]!r}, {c[3]!r},")
        lines.append(f"     {c[4]!r}, {c[5]!r}, {c[6]!r}),")
    lines.append(")")
    return "\n".join(lines)


def check() -> int:
    t0 = time.perf_counter()
    refit = fit()
    frozen = special._ERFCX_PIECES
    bad = [
        j for j, (a, b) in enumerate(zip(frozen, refit))
        if [x.hex() for x in a] != [x.hex() for x in b]
    ]
    if len(frozen) != len(refit):
        bad.append(len(frozen))
    took = time.perf_counter() - t0
    if bad:
        print(f"FAIL: frozen table differs from the refit in pieces {bad} ({took:.2f} s)")
        return 1
    print(f"ok: frozen table equals the refit, {PIECES} x {DEGREE + 1} doubles ({took:.2f} s)")
    return 0


def _draw(lo: float, hi: float, n: int, rng) -> np.ndarray:
    if lo > 0.0 and hi / lo > 1e3:  # log-uniform over many decades
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    return rng.uniform(lo, hi, n)


def _reference(z: np.ndarray):
    """erfcx at z from mpmath, as a double-double (hi, lo)."""
    hi, lo = np.empty_like(z), np.empty_like(z)
    with mp.workdps(30):
        for i, v in enumerate(z):
            want = erfcx_mp(float(v))
            hi[i] = float(want)
            lo[i] = float(want - mp.mpf(hi[i]))
    return hi, lo


def _ulps(got: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> float:
    """Largest relative error in units of 2**-53; got - hi is exact, as the
    two are within a few ulps of each other."""
    return float(np.max(np.abs(((got - hi) - lo) / hi)) * 2.0**53)


def _batch(n: int, rng) -> np.ndarray:
    x = np.concatenate([rng.uniform(0.0, 10.0, n // 2), _draw(10.0, 1e8, n - n // 2, rng)])
    rng.shuffle(x)
    return np.abs(x) / math.sqrt(2.0)


def _table(z):
    """erfcx of a checked block z, as the kernels take it."""
    return special._erfcx(1.0 + z)


def _best(fns, z, rounds: int = 7) -> list:
    """The best time of each of fns on z, over rounds in which each runs once."""
    best = [math.inf] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn(z)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def gate() -> int:
    try:
        from scipy.special import erfcx as scipy_erfcx
    except ImportError:
        scipy_erfcx = None
    rng = np.random.default_rng(GATE_SEED)
    failed = False
    print(f"max relative error in units of 2**-53, {GATE_POINTS} points per range")
    for lo, hi in RANGES:
        z = _draw(lo, hi, GATE_POINTS, rng)
        want = _reference(z)
        native = _ulps(special._erfcx(1.0 + z), *want)
        line = f"  [{lo:g}, {hi:g}]: table {native:.2f}"
        if native > ERROR_BOUND:
            line += f"  (FAIL: table error above {ERROR_BOUND:g})"
            failed = True
        scalar = np.array([special._erfcx(1.0 + float(v)) for v in z[:2000]])
        if not np.array_equal(scalar, special._erfcx(1.0 + z[:2000])):
            line += "  (FAIL: scalar and array paths differ)"
            failed = True
        if scipy_erfcx is not None:
            ref = _ulps(scipy_erfcx(z), *want)
            line += f", scipy {ref:.2f}"
            if native > ref:
                line += "  (FAIL: table less accurate than scipy)"
                failed = True
        print(line)
    z = _batch(1_000_000, rng)
    table = special.elementwise(sign=1)(_table)
    times = _best([table] if scipy_erfcx is None else [table, scipy_erfcx], z)
    line = f"1e6-point batch: table {1e3 * times[0]:.1f} ms"
    if scipy_erfcx is not None:
        line += f", scipy {1e3 * times[1]:.1f} ms"
        if times[0] > times[1]:
            line += "  (FAIL: table slower than scipy)"
            failed = True
    print(line)
    print("FAIL" if failed else "ok")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare the frozen table with a refit")
    mode.add_argument("--gate", action="store_true", help="accuracy and speed gate")
    args = ap.parse_args(argv)
    if args.check:
        return check()
    if args.gate:
        return gate()
    print(render(fit()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
