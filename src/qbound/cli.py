"""Command-line front end: evaluate bounds, emit comparison tables, run the
verification suites, and run the parameter-selection optimizers.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
120 stdout closed by its reader (`qbound table | head -n 1`), with no
traceback.  Output goes to stdout, diagnostics to stderr; identical
invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import atexit
import dataclasses
import math
import os
import re
import sys

import numpy as np

from . import bounds, optimize, verify
from .errors import QBoundError

CSV_FIELDS = ("x", "kappa", "q_ref", "g_lower", "boyd_lower_q", "chernoff_upper", "rel_gap")

#: json.dumps's spelling of the floats that repr spells nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: rel_gap is 1 - r/R past this x and (Q - g)/Q up to it.
_GAP_SPLIT = 20.0


_fmt = "%.17g".__mod__  # a float as CSV and text write it; map runs it faster than a def


def make_record(xs, kappas) -> dict:
    """The comparison table of an x array at each kappa, by CSV field: x,
    q_ref, boyd_lower_q and chernoff_upper of shape (n,), kappa of shape
    (K,), g_lower and rel_gap of shape (n, K), x-major.  The kappas are
    checked first; Q and g come from one bounds._q_and_g call, Boyd and
    Chernoff from one call each, and the tail's gap from one call per
    kappa.  Boyd and Chernoff are NaN for negative x.  For x > _GAP_SPLIT,
    rel_gap is bounds.rel_gap, 1 - r/R, in which nothing underflows; (Q-g)/Q
    carries the rounding of x*x in both exponentials there (~1.4e-13
    relative at x = 37.5), and Q is subnormal past ~37.5 and 0 from ~38.49.
    """
    ks = [bounds.as_kappa(k) for k in kappas]
    xs = np.array(xs, dtype=float, ndmin=1)
    qx, g = bounds._q_and_g(xs, ks)
    g = g.T
    pos = xs >= 0.0
    boyd, chernoff = np.full((2, xs.size), math.nan)
    boyd[pos] = bounds.boyd_lower_q(xs[pos])
    chernoff[pos] = bounds.chernoff_upper(xs[pos])
    tail = xs > _GAP_SPLIT
    gap = np.subtract(qx[:, None], g)
    np.divide(gap, qx[:, None], out=gap, where=~tail[:, None])
    if tail.any():
        for j, k in enumerate(ks):
            gap[tail, j] = bounds.rel_gap(xs[tail], k)
    return {"x": xs, "kappa": np.array([k.kappa for k in ks]), "q_ref": qx, "g_lower": g,
            "boyd_lower_q": boyd, "chernoff_upper": chernoff, "rel_gap": gap}


#: each output format's layout: a record with a %s per CSV field, the
#: separator between records, and the text before and after them
_LAYOUTS = {
    "csv": (",".join(["%s"] * len(CSV_FIELDS)) + "\n", "", ",".join(CSV_FIELDS) + "\n", ""),
    "json": ("  {\n" + ",\n".join(f'    "{f}": %s' for f in CSV_FIELDS) + "\n  }",
             ",\n", "[\n", "\n]\n"),
    "text": ("".join(f"{f} = %s\n" for f in CSV_FIELDS), "", "", ""),
}


def _spell(values, fmt: str) -> list:
    """A list of floats as the table writes them: %.17g in CSV and text,
    which CSV never needs to quote, and in JSON as json.dumps does, repr but
    NaN and +-Infinity."""
    if fmt == "json":
        return [_JSON_NONFINITE.get(s, s) for s in map(float.__repr__, values)]
    return list(map(_fmt, values))


def _emit_records(table, fmt: str, out) -> None:
    """Write make_record's table in fmt's layout, one record per (x, kappa),
    x-major; its JSON is json.dumps(records, indent=2)'s.  Each field is
    formatted once: an x's four fields into the head, middle and tail
    strings around its records' kappa and g_lower."""
    row, join, before, after = _LAYOUTS[fmt]
    s0, s1, s2, s3, s4, s5, s6, end = row.split("%s")
    x, q, boyd, chernoff, kappas, gs, gaps = (
        _spell(table[f].ravel().tolist(), fmt)
        for f in ("x", "q_ref", "boyd_lower_q", "chernoff_upper", "kappa", "g_lower", "rel_gap"))
    heads = [s0 + v + s1 for v in x]
    middles = [s2 + v + s3 for v in q]
    tails = [s4 + b + s5 + c + s6 for b, c in zip(boyd, chernoff)]
    # zip takes a kappa before a record, so each x's inner zip stops after
    # its last kappa with no record taken
    records = zip(gs, gaps)
    out.write(before)
    out.write(join.join([f"{h}{k}{m}{g}{t}{gap}{end}" for h, m, t in zip(heads, middles, tails)
                         for k, (g, gap) in zip(kappas, records)]))
    out.write(after)


def _grid_from_args(args) -> verify.EvaluationGrid:
    """The grid of the given --x-* and --kappa flags, with EvaluationGrid's
    defaults for the others, and for those a verify.KAPPA_SUITES parser lacks."""
    flags = {f: getattr(args, f, None) for f in ("x_min", "x_max", "x_count", "spacing")}
    flags["kappas"] = args.kappa
    return verify.EvaluationGrid(**{f: v for f, v in flags.items() if v is not None})


def _print_report(r: verify.VerificationReport, out) -> None:
    status = "PASS" if r.passed else "FAIL"
    x, kap = r.worst_point
    out.write(
        f"{status} {r.suite}: points={r.points_checked} "
        f"worst_violation={_fmt(r.worst_violation)} at (x={_fmt(x)}, kappa={_fmt(kap)}) "
        f"lhs={_fmt(r.worst_lhs)} rhs={_fmt(r.worst_rhs)} tol={_fmt(r.tolerance)}\n"
    )


def _print_fields(fields, fmt: str, out) -> None:
    """Write fields as json.dumps(fields, indent=2), whatever they are, or a
    dict as text lines `key = value` with floats as %.17g, bools in lower
    case, None as nan, and an empty string left out."""
    if fmt == "json":
        import json  # here alone: a text command never loads it

        out.write(json.dumps(fields, indent=2) + "\n")
        return
    for key, val in fields.items():
        if val is None:  # an optimizer's gap where it has no meaning
            val = math.nan
        if isinstance(val, bool):
            val = str(val).lower()
        elif isinstance(val, float):
            val = _fmt(val)
        elif val == "":
            continue
        out.write(f"{key} = {val}\n")


def cmd_eval(args, out) -> int:
    _emit_records(make_record([args.x], [args.kappa]), args.format, out)
    return 0


def cmd_table(args, out) -> int:
    grid = _grid_from_args(args)
    _emit_records(make_record(grid.xs(), grid.kappas), args.format, out)
    return 0


def cmd_verify(args, out) -> int:
    grid = _grid_from_args(args)
    reports = verify.run_all(grid) if args.suite == "all" else verify.SUITES[args.suite](grid)
    if args.format == "json":
        _print_fields([dataclasses.asdict(r) for r in reports], "json", out)
    else:
        for r in reports:
            _print_report(r, out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_optimize(args, out) -> int:
    """Run the optimizer of args.mode on its flags, each of which its mode's
    parser requires (build_parser), and print the result's fields."""
    if args.mode == "pointwise":
        res = optimize.kappa_star(args.x)
    elif args.mode == "weight":
        res = optimize.max_weight(args.kappa)
    else:  # interval
        res = optimize.interval_kappa(args.x_lo, args.x_hi)
    _print_fields(dataclasses.asdict(res), args.format, out)
    return 0


def cmd_roots(args, out) -> int:
    k = bounds.as_kappa(args.kappa)
    cp = bounds.critical_points(k)
    fields = {"kappa": k.kappa, "x1": cp.x1, "x2": cp.x2, "pivot": cp.pivot, "w1": cp.w1,
              "w2": cp.w2, "residual_x1": bounds.crossing_condition(cp.x1, k),
              "residual_x2": bounds.crossing_condition(cp.x2, k)}
    _print_fields(fields, args.format, out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative number for a value, so
    that `--x -1e300` or `--x -inf` parses like `--x=-1e300` or `--x=-inf`.
    argparse's own pattern (Python 3.11) knows only the forms -1 and -1.5,
    and reads -1e300, -1e1 or -inf as an option string.  The pattern is
    argparse's private attribute _negative_number_matcher;
    tests/test_cli.py::TestNegativeValues guards the override on every
    Python the CI matrix runs.  Help and usage wrap at 78 columns, what
    argparse gives an 80-column terminal, whatever COLUMNS says; subparsers
    are built by this class too."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", lambda prog: argparse.HelpFormatter(prog, width=78))
        super().__init__(*args, **kwargs)
        # -1, -1., -1.5 or -.5, each with an optional exponent, or what
        # float() reads as -inf or nan, in any case
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbound",
        description="Exponential lower bound for the Gaussian Q-function: "
        "evaluation, verification, and parameter selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p, x=True):
        # an omitted flag (None) takes the EvaluationGrid default; x=False: --kappa alone
        if x:
            p.add_argument("--x-min", type=float)
            p.add_argument("--x-max", type=float)
            p.add_argument("--x-count", type=int)
            p.add_argument("--spacing", choices=("linear", "log"))
        p.add_argument(
            "--kappa", type=float, action="append",
            help="kappa value (repeatable); defaults to the standard sweep",
        )

    p = sub.add_parser("eval", help="evaluate all bounds at one (x, kappa) point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("table", help="emit a comparison table over a grid")
    add_grid_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.set_defaults(func=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    helps = {"theorem": "the bound inequality on the --x-* grid",
             "lemma1": "lemma 1's signs at x1, the pivot and x2 per kappa",
             "lemma2": "lemma 2 at x1 per kappa", "all": "all three claims"}
    for suite in (*verify.SUITES, "all"):  # the registry's order
        s = suites.add_parser(suite, help=helps[suite])
        add_grid_flags(s, x=suite not in verify.KAPPA_SUITES)
        s.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("optimize", help="parameter-selection searches")
    p.set_defaults(func=cmd_optimize)
    modes = p.add_subparsers(dest="mode", required=True)
    for mode, flags, text in (
        ("pointwise", ("--x",), "tightest kappa at one x"),
        ("weight", ("--kappa",), "largest valid weight at one kappa"),
        ("interval", ("--x-lo", "--x-hi"), "kappa of least worst gap on [x_lo, x_hi]"),
    ):
        m = modes.add_parser(mode, help=text)
        for flag in flags:
            m.add_argument(flag, type=float, required=True)
        m.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("roots", help="critical points x1, x2 for a kappa")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_roots)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except (QBoundError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _stdout_closed() -> int:
    """Point stdout at os.devnull, so that no later flush raises again, and
    return 120, CPython's exit status when it cannot flush stdout."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    return 120


def run() -> None:
    """The process entry point of `python -m qbound.cli` and the `qbound`
    console script.  It runs main() on sys.argv, taking argparse's
    SystemExit (usage errors, --help) for a status too, then what of
    CPython's finalization anyone can observe, in its order: the atexit
    callbacks, then a flush of stdout and stderr.  It ends at os._exit,
    which skips the module teardown and GC, ~10 ms of a cold call, mostly
    numpy's; qbound opens no file, and special._run_blocks joins every
    thread it starts.  A reader that closes stdout early ends the process
    with status 120 and no traceback.  main() returns its status or raises
    argparse's SystemExit; call it for an in-process run.
    atexit._run_exitfuncs is private; tests/test_cli.py::TestRun guards it
    on every Python the CI matrix runs."""
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    except BrokenPipeError:
        status = _stdout_closed()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        status = _stdout_closed()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
