"""Print sha256 digests of qbound's outputs, to compare two source trees
bit for bit.

    python tools/bit_digest.py SRC

SRC is the directory that holds the qbound package (`src` in a checkout).
Run it from the root of a checkout on two trees, on one machine, and
compare the lines.  Nine kinds of output are digested:

- arrays: the ten array kernels of the tail_arrays benchmark workload on
  its first BATCHES seeded batches (bench/workloads.py, imported from this
  checkout, so both trees see the same inputs), and bounds.rel_gap on |x|
  of the same batches, for each seed in SEEDS;
- small: the same ten kernels on the two grid sizes of the select_certify
  workload's suites, for SMALL_DRAWS seeded draws of kappa and x_max per
  seed: the SMALL_GRID_COUNT points of [-x_max, x_max] and the
  LEMMA2_COUNT log-spaced points of [x1, max(1000, 10*x1)].  These arrays
  take the kernels' one-shot path, below one block and below the size at
  which exp's underflowing lanes are masked;
- sizes: the same ten kernels on the first SWITCH_DRAWS batches of the
  arrays kind, cut to each of SWITCH_SIZES points, for each seed: arrays
  on both sides of the kernels' size switches;
- scalars: the 12 kernels behind special.elementwise (SCALAR_KERNELS) on
  SCALAR_DRAWS seeded signed x over the whole double range, plus +-0,
  5e-324, 2**512 and the largest double, per seed; each x given as a
  Python float, a NumPy float64 and a 0-d array, and each kernel that takes
  a kappa run at SWITCH_KAPPAS and SCALAR_KAPPAS log-spaced kappa - 1 in
  [1e-12, 1e300].  Each value as its float.hex(float(v)) or an exception as
  its type and message; the line also counts the values that are not a
  Python float, which every scalar call should return;
- errors: the DomainError message, or its absence, of the ten array
  kernels and of bounds._q_and_g with ERROR_KAPPAS beside the batch's
  kappa, on the first arrays batch of the first seed cut to each of
  ERROR_SIZES points (|x| where a kernel needs x >= 0), with one nan, one
  inf or one -1.0 (a sign violation where the kernel needs x >= 0) at the
  first, the middle or the last point: in the first, a middle or the last
  block where the array runs in three blocks or more; and a -1.0 at the
  first point with a nan at the last, where the nan names the error.  An
  array's error is the whole array's, whichever block fails first, so the
  line is the same on any number of CPUs;
- kappa: x1_point, x2_point and alpha_coeff at KAPPA_POINTS log-spaced
  kappa - 1 in [1e-12, 1.7976931348623157e308] and at SWITCH_KAPPAS, the
  two kappas on either side of the overflow of (kappa-1)*c, where alpha
  and x1 change form; each value as its float.hex() or an exception as its
  type and message;
- optimize: kappa_star at OPT_POINTS log-spaced x in [1e-8, 1e8] and at
  the STAR_GRID_POINTS x of a grid on [0, 40], max_weight at OPT_POINTS
  log-spaced kappa - 1 in [1e-12, 1e300], and interval_kappa on every pair
  x_lo <= x_hi of INTERVAL_ENDS log-spaced ends in [1e-300, 1e300], plus
  each end with its next 2**-40 relative neighbour; every field of each
  result as its float.hex(), int or string, or an exception as its type
  and message;
- reports: the repr of each verify suite's report, or an exception as its
  type and message: lemma1 and lemma2 at REPORT_KAPPAS log-spaced
  kappa - 1 in [1e-12, 1e300], lemma2 sampled at 10,000 points of its
  default range (its default checks x1 alone, as run_all's lemma2
  reports do), verify_chernoff once (it checks x = 0 alone), and theorem,
  run_all of the registry's three suites and verify_derivative on
  REPORT_GRIDS, whose kappas include 1, near-degenerate ones (kappa - 1
  <= 1e-9) and 1e200, a duplicated kappa, a grid with no point x >=
  verify.FD_STEP, with a near-degenerate kappa among others (a usage
  error of verify_derivative), and two grids shaped like the
  select_certify workload's;
- cli: stdout and exit code of CLI_COMMANDS, run in-process through
  qbound.cli.main (stderr is discarded).  The tables run in CSV and in
  JSON, whose NaN, Infinity and float spellings the table renderer writes
  itself: the JSON copies cover the NaN Boyd and Chernoff columns of
  negative x, rel_gap's tail form past x = 20, a Q of 0 and kappa 1e8.
  eval writes one record of the table, in text and in JSON: its JSON
  copies cover the NaN columns, the tail form and a Q of 0 too.
  roots' residuals at x1 and x2, scalar calls, run at kappa 2 and at the
  near-degenerate kappa 1.0000000001.

The digests depend on the platform's exp and log, so they compare trees
on one machine; they are no fixed reference.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
from pathlib import Path

SEEDS = (1, 2)
BATCHES = 16
SMALL_DRAWS = 64
SWITCH_DRAWS = 4
# one point either side of special._MASK_MIN (4,096), from which exp's
# underflowing lanes are masked, and of special._BLOCK (65,536), past which
# an array runs in blocks; fixed here, so two trees see the same inputs
SWITCH_SIZES = (4095, 4096, 65536, 65537)
KAPPA_POINTS = 20001
# one point past one block, and three blocks
ERROR_SIZES = (65537, 3 * 65536)
ERROR_KAPPAS = (2.0, 1e8)
# the last kappa whose (kappa-1)*c is finite, and the next double
SWITCH_KAPPAS = (7.564545572282618e153, 7.56454557228262e153)
OPT_POINTS = 20001
SCALAR_DRAWS = 400
SCALAR_KAPPAS = 11
# every kernel behind special.elementwise, by module, and whether it takes a kappa
SCALAR_KERNELS = (
    ("special", "q", False), ("special", "mills_ratio", False),
    ("bounds", "g_lower", True), ("bounds", "r_scaled", True), ("bounds", "f_diff", True),
    ("bounds", "rel_gap", True), ("bounds", "crossing_condition", True),
    ("bounds", "lemma1_relation", True), ("bounds", "df_dx_identity", True),
    ("bounds", "boyd_lower", False), ("bounds", "chernoff_upper", False),
    ("bounds", "boyd_lower_q", False),
)
STAR_GRID_POINTS = 4001
INTERVAL_ENDS = 121
REPORT_KAPPAS = 101

# EvaluationGrid keywords.  Kappa 1 makes verify_derivative a domain
# error, so each grid also runs it without kappa 1.
_KAPPAS = (1.0, 1.0 + 1e-10, 1.5, 2.0, 1e200)
_DEGENERATE = (1.0 + 1e-12, 1.0 + 1e-10, 1.0 + 1e-9)
_SELECT = (1.0 + 1e-3, 1e8, 1e250)
REPORT_GRIDS = (
    {"kappas": _KAPPAS},
    {"x_count": 201, "kappas": _DEGENERATE},
    {"x_count": 201, "kappas": _DEGENERATE + (3.0,)},
    # lemma1 raises past kappa ~5.7e15, and with it run_all: here it reports
    {"x_count": 401, "kappas": (1.0, 1.0 + 1e-10, 10.0, 1e15)},
    {"x_min": 0.0, "x_max": 40.0, "x_count": 4001, "kappas": _KAPPAS},
    {"x_min": 1e-3, "x_max": 1e8, "x_count": 2001, "spacing": "log", "kappas": _KAPPAS},
    {"x_min": 0.0, "x_max": 1e-6, "x_count": 101, "kappas": (2.0, 1e200)},
    # no grid point x >= verify.FD_STEP, a near-degenerate kappa between
    # two others: the derivative suite has no point to check
    {"x_min": 0.0, "x_max": 1e-6, "x_count": 101, "kappas": (2.0, 1.0 + 1e-10, 5.0)},
    {"x_min": 30.0, "x_max": 45.0, "x_count": 20001, "kappas": (1.0, 1.0 + 5e-10, 1e200)},
    # four kappas, a near-degenerate and a duplicated one among them, on a
    # 40,001-point grid
    {"x_count": 40001, "kappas": (2.0, 1.0 + 1e-10, 2.0, 5.0)},
    # the select_certify workload's theorem and run_all grids: 201 points
    # of [-x_max, x_max] and three kappas, Q and three g rows; at
    # x_max = 2.4e5, Q is subnormal or 0 on most of the grid
    {"x_min": -3.7, "x_max": 3.7, "x_count": 201, "kappas": _SELECT},
    {"x_min": -2.4e5, "x_max": 2.4e5, "x_count": 201, "kappas": _SELECT},
)

CLI_COMMANDS = (
    "table",
    "table --format json",
    "table --x-min -40 --x-max 40 --x-count 5001",
    "table --x-min -40 --x-max 40 --x-count 5001 --format json",
    "table --x-min 1e-3 --x-max 1e8 --x-count 20001 --spacing log",
    "table --x-min 1 --x-max 1e300 --x-count 2001 --spacing log --kappa 1.0001 --kappa 2 --kappa 1e8",
    "table --x-min 1 --x-max 1e300 --x-count 2001 --spacing log --kappa 1.0001 --kappa 2 --kappa 1e8"
    " --format json",
    "table --x-min 0 --x-max 40 --x-count 40001 --kappa 1.5",
    "verify all",
    "verify all --format json",
    "verify all --x-count 20001",
    "verify lemma1 --kappa 1e8",
    "verify lemma1 --kappa 1.000000000001 --kappa 3 --kappa 1e15 --format json",
    "verify theorem --x-count 40001",
    "eval --x 1 --kappa 2",
    "eval --x -3.5 --kappa 1.0001 --format json",
    "eval --x 37.9 --kappa 1.5",
    "eval --x 1e300 --kappa 1e200",
    "eval --x -1 --kappa 2 --format json",
    "eval --x 25 --kappa 2 --format json",
    "eval --x 40 --kappa 1.0001 --format json",
    "optimize pointwise --x 1.5",
    "optimize pointwise --x 25 --format json",
    "optimize weight --kappa 2",
    "optimize interval --x-lo 0.5 --x-hi 30",
    "optimize interval --x-lo 21 --x-hi 38 --format json",
    "roots --kappa 2",
    "roots --kappa 4.4e232",
    "roots --kappa 2 --format json",
    "roots --kappa 1.0000000001",
)


def _update(digest, x, kappa):
    """Feed the ten kernels' outputs on x (|x| where they need x >= 0)."""
    import numpy as np
    import workloads as wl

    import qbound

    for name, takes_kappa in wl.ARRAY_FUNCS:
        arg = x if name in wl.SIGNED_FUNCS else np.abs(x)
        out = getattr(qbound, name)(*((arg, kappa) if takes_kappa else (arg,)))
        digest.update(out.tobytes())


def arrays(seed: int):
    import numpy as np
    import workloads as wl

    from qbound import bounds

    kernels, gap = hashlib.sha256(), hashlib.sha256()
    for kappa, x in itertools.islice(wl.array_batches(seed), BATCHES):
        _update(kernels, x, kappa)
        gap.update(bounds.rel_gap(np.abs(x), kappa).tobytes())
    n = len(wl.ARRAY_FUNCS)
    print(f"arrays seed {seed}: {BATCHES} batches x {n} kernels  {kernels.hexdigest()}")
    print(f"arrays seed {seed}: {BATCHES} batches, rel_gap on |x|  {gap.hexdigest()}")


def small_arrays(seed: int):
    import random

    import numpy as np
    import workloads as wl

    from qbound import bounds

    draws, digest = wl.Draws(random.Random(seed)), hashlib.sha256()
    for _ in range(SMALL_DRAWS):
        kappa, x_max = draws.kappa(), draws.x_pos()
        x1 = bounds.x1_point(kappa)
        _update(digest, np.linspace(-x_max, x_max, wl.SMALL_GRID_COUNT), kappa)
        _update(digest, np.geomspace(x1, max(1000.0, 10.0 * x1), wl.LEMMA2_COUNT), kappa)
    sizes = f"{wl.SMALL_GRID_COUNT} and {wl.LEMMA2_COUNT} points"
    print(f"small seed {seed}: {SMALL_DRAWS} draws x {sizes} x {len(wl.ARRAY_FUNCS)} kernels"
          f"  {digest.hexdigest()}")


def switch_arrays(seed: int):
    import workloads as wl

    digest = hashlib.sha256()
    for kappa, x in itertools.islice(wl.array_batches(seed), SWITCH_DRAWS):
        for n in SWITCH_SIZES:
            _update(digest, x[:n], kappa)
    sizes = ", ".join(f"{n:,}" for n in SWITCH_SIZES)
    print(f"sizes seed {seed}: {SWITCH_DRAWS} batches cut to {sizes} points x "
          f"{len(wl.ARRAY_FUNCS)} kernels  {digest.hexdigest()}")


def scalars(seed: int):
    import math
    import random

    import numpy as np

    import qbound

    rng = random.Random(seed)
    xs = [rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.random(), rng.randint(-1075, 1023))
          for _ in range(SCALAR_DRAWS)]
    edges = [0.0, 5e-324, 2.0**512, sys.float_info.max]
    xs += edges + [-x for x in edges]
    kappas = [1.0 + m for m in np.geomspace(1e-12, 1e300, SCALAR_KAPPAS).tolist()]
    kappas += list(SWITCH_KAPPAS)
    digest, calls, errors, not_float = hashlib.sha256(), 0, 0, 0
    for module, name, takes_kappa in SCALAR_KERNELS:
        fn = getattr(getattr(qbound, module), name)
        for args in [(kappa,) for kappa in kappas] if takes_kappa else [()]:
            for x in xs:
                for form in (x, np.float64(x), np.array(x)):
                    calls += 1
                    try:
                        v = fn(form, *args)
                        line, not_float = float(v).hex(), not_float + (type(v) is not float)
                    except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
                        line, errors = f"{type(exc).__name__}: {exc}", errors + 1
                    digest.update(line.encode() + b"\n")
    print(f"scalars seed {seed}: {calls} calls, {errors} errors, {not_float} not float"
          f"  {digest.hexdigest()}")


def errors():
    import numpy as np
    import workloads as wl

    import qbound
    from qbound import bounds

    kappa, x = next(wl.array_batches(SEEDS[0]))
    kernels = [(getattr(qbound, name), (kappa,) if takes_kappa else (), name in wl.SIGNED_FUNCS)
               for name, takes_kappa in wl.ARRAY_FUNCS]
    kernels.append((bounds._q_and_g, ((kappa,) + ERROR_KAPPAS,), True))
    digest, calls, raised = hashlib.sha256(), 0, 0
    for fn, args, signed in kernels:
        for n in ERROR_SIZES:
            placements = [{at: bad} for bad in (np.nan, np.inf, -1.0) for at in (0, n // 2, n - 1)]
            placements.append({0: -1.0, n - 1: np.nan})  # the nan names the error
            for placement in placements:
                y = (x if signed else np.abs(x))[:n].copy()
                for at, bad in placement.items():
                    y[at] = bad
                calls += 1
                try:
                    fn(y, *args)
                    line = "none"
                except qbound.DomainError as exc:
                    line, raised = f"DomainError: {exc}", raised + 1
                digest.update(f"{fn.__name__} {n} {placement}: {line}\n".encode())
    print(f"errors: {calls} calls on {len(kernels)} kernels, {raised} DomainErrors"
          f"  {digest.hexdigest()}")


def kappa_functions():
    import numpy as np

    from qbound import bounds

    with np.errstate(over="ignore"):  # geomspace sets its overflowed end point
        ms = np.geomspace(1e-12, sys.float_info.max, KAPPA_POINTS)
    kappas = [1.0 + m for m in ms.tolist()] + list(SWITCH_KAPPAS)
    for fn in (bounds.x1_point, bounds.x2_point, bounds.alpha_coeff):
        digest, errors = hashlib.sha256(), 0
        for kappa in kappas:
            try:
                line = fn(kappa).hex()
            except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
                line, errors = f"{type(exc).__name__}: {exc}", errors + 1
            digest.update(line.encode() + b"\n")
        print(f"kappa {fn.__name__}: {len(kappas)} kappas, {errors} errors  {digest.hexdigest()}")


def _digest(label, fn, args):
    digest, errors = hashlib.sha256(), 0
    for arg in args:
        try:
            r = fn(*arg)
            gap = "None" if r.gap is None else r.gap.hex()
            line = (f"{r.argument.hex()} {r.objective.hex()} {gap} {r.iterations} "
                    f"{int(r.converged)} {r.message}")
        except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
            line, errors = f"{type(exc).__name__}: {exc}", errors + 1
        digest.update(line.encode() + b"\n")
    print(f"optimize {label}: {len(args)} calls, {errors} errors  {digest.hexdigest()}")


def optimizers():
    import numpy as np

    from qbound import optimize

    xs = np.geomspace(1e-8, 1e8, OPT_POINTS).tolist()
    xs += np.linspace(0.0, 40.0, STAR_GRID_POINTS).tolist()
    _digest("kappa_star", optimize.kappa_star, [(x,) for x in xs])
    kappas = [1.0 + m for m in np.geomspace(1e-12, 1e300, OPT_POINTS).tolist()]
    _digest("max_weight", optimize.max_weight, [(kappa,) for kappa in kappas])
    ends = np.geomspace(1e-300, 1e300, INTERVAL_ENDS).tolist()
    pairs = [(lo, hi) for i, lo in enumerate(ends) for hi in ends[i:]]
    pairs += [(x, x * (1.0 + 2.0**-40)) for x in ends]
    _digest("interval_kappa", optimize.interval_kappa, pairs)


def _report(fn, *args, **kwargs):
    """The repr of fn's report (a list of them for run_all), or of its
    exception's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except (ArithmeticError, ValueError) as exc:  # DomainError, UsageError
        return f"{type(exc).__name__}: {exc}"


def reports():
    import dataclasses

    import numpy as np

    from qbound import verify

    lines = []
    for m in np.geomspace(1e-12, 1e300, REPORT_KAPPAS).tolist():
        lines += [_report(verify.verify_lemma1, 1.0 + m),
                  _report(verify.verify_lemma2, 1.0 + m, count=10_000)]
    for keywords in REPORT_GRIDS:
        grid = verify.EvaluationGrid(**keywords)
        above_1 = tuple(k for k in grid.kappas if k.kappa > 1.0)
        lines += [
            _report(verify.verify_theorem, grid),
            _report(verify.run_all, grid),
            _report(verify.verify_derivative, grid),
            _report(verify.verify_derivative, dataclasses.replace(grid, kappas=above_1)),
        ]
    lines.append(_report(verify.verify_chernoff))
    errors = sum(not line.startswith(("VerificationReport(", "[")) for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode())
    print(f"reports: {len(lines)} reports or errors, {errors} errors  {digest.hexdigest()}")


def cli():
    from qbound.cli import main

    digest, codes = hashlib.sha256(), []
    for command in CLI_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(command.split(), out=out)
        codes.append(code)
        digest.update(f"{command}\n{code}\n{out.getvalue()}\n".encode())
    exits = ", ".join(f"{codes.count(c)} x {c}" for c in sorted(set(codes)))
    print(f"cli: {len(CLI_COMMANDS)} commands (exit {exits})  {digest.hexdigest()}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(Path(__file__).resolve().parents[1] / "bench")]
    for seed in SEEDS:
        arrays(seed)
        small_arrays(seed)
        switch_arrays(seed)
        scalars(seed)
    errors()
    kappa_functions()
    optimizers()
    reports()
    cli()
    return 0


if __name__ == "__main__":
    sys.exit(main())
