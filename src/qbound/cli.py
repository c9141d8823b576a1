"""Command-line front end: evaluate bounds, emit comparison tables, run the
verification suites, and run the parameter-selection optimizers.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Output goes to stdout, diagnostics to stderr; identical invocations produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

import numpy as np

from . import bounds, optimize, verify
from .errors import QBoundError
from .special import q

CSV_FIELDS = ("x", "kappa", "q_ref", "g_lower", "boyd_lower_q", "chernoff_upper", "rel_gap")

# One output row per template.  A formatted float never needs CSV quoting,
# and repr is how json spells a float.
_CSV_ROW = ",".join(["%.17g"] * len(CSV_FIELDS)) + "\n"
_JSON_ROW = "  {\n" + ",\n".join(f'    "{f}": %r' for f in CSV_FIELDS) + "\n  }"

#: rel_gap is 1 - r/R past this x and (Q - g)/Q up to it.
_GAP_SPLIT = 20.0


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def make_record(xs, kappas) -> np.ndarray:
    """Comparison rows of an x array at each kappa, x-major: rows[i, j] is
    xs[i] at kappas[j], one column per CSV field.  The kappas are checked
    first; Q, Boyd and Chernoff are evaluated once, g_lower and the gap once
    per kappa.  Boyd and Chernoff are NaN for negative x.  For x >
    _GAP_SPLIT, rel_gap is bounds.rel_gap, 1 - r/R, in which nothing
    underflows; (Q-g)/Q carries the rounding of x*x in both exponentials
    there (~1.4e-13 relative at x = 37.5), and Q is subnormal past ~37.5
    and 0 from ~38.49.
    """
    ks = [bounds.as_kappa(k) for k in kappas]
    xs = np.array(xs, dtype=float, ndmin=1)
    qx = q(xs)
    rows = np.full((xs.size, len(ks), len(CSV_FIELDS)), math.nan)
    rows[..., 0] = xs[:, None]
    rows[..., 2] = qx[:, None]
    pos = xs >= 0.0
    rows[pos, :, 4] = bounds.boyd_lower_q(xs[pos])[:, None]
    rows[pos, :, 5] = bounds.chernoff_upper(xs[pos])[:, None]
    tail = xs > _GAP_SPLIT
    for j, k in enumerate(ks):
        rows[:, j, 1] = k.kappa
        gx = rows[:, j, 3] = bounds.g_lower(xs, k)
        rows[~tail, j, 6] = (qx[~tail] - gx[~tail]) / qx[~tail]
        if tail.any():
            rows[tail, j, 6] = bounds.rel_gap(xs[tail], k)
    return rows


def _emit_records(rows, fmt: str, out) -> None:
    """Write make_record's rows as the table, one record per (x, kappa), in
    CSV_FIELDS order; its JSON is json.dumps's, faster from a row template."""
    rows = rows.reshape(-1, len(CSV_FIELDS)).tolist()
    if fmt == "json":
        body = ",\n".join([_JSON_ROW % tuple(r) for r in rows])
        # Field names and finite reprs hold neither "nan" nor "inf".
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
        out.write(f"[\n{body}\n]\n")
    else:  # csv
        out.write(",".join(CSV_FIELDS) + "\n")
        out.write("".join([_CSV_ROW % tuple(r) for r in rows]))


def _grid_from_args(args, **defaults) -> verify.EvaluationGrid:
    """The grid of the --x-* and --kappa flags that were given; the others
    take the values in defaults, else EvaluationGrid's."""
    flags = {"x_min": args.x_min, "x_max": args.x_max, "x_count": args.x_count,
             "spacing": args.spacing, "kappas": args.kappa}
    given = {f: v for f, v in flags.items() if v is not None}
    return verify.EvaluationGrid(**{**defaults, **given})


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
    row = dict(zip(CSV_FIELDS, make_record([args.x], [args.kappa])[0, 0].tolist()))
    _print_fields([row] if args.format == "json" else row, args.format, out)
    return 0


def cmd_table(args, out) -> int:
    grid = _grid_from_args(args)
    _emit_records(make_record(grid.xs(), grid.kappas), args.format, out)
    return 0


def cmd_verify(args, out) -> int:
    # an explicit --kappa 1 is a domain error in the lemma suites (exit 2);
    # chernoff alone is defined for x >= 0 only: its --x-min defaults to 0
    alone = {"x_min": 0.0} if args.suite == "chernoff" else {}
    reports = verify.run_all(
        _grid_from_args(args, **alone),
        names=verify.SUITE_NAMES if args.suite == "all" else (args.suite,),
        explicit=args.kappa is not None,
        tolerance=args.tolerance,
    )
    if args.format == "json":
        _print_fields([dataclasses.asdict(r) for r in reports], "json", out)
    else:
        for r in reports:
            _print_report(r, out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_optimize(args, out) -> int:
    if args.mode == "pointwise":
        if args.x is None:
            raise QBoundError("pointwise mode requires --x")
        res = optimize.kappa_star(args.x)
    elif args.mode == "weight":
        if args.kappa_single is None:
            raise QBoundError("weight mode requires --kappa")
        res = optimize.max_weight(args.kappa_single)
    else:  # interval
        if args.x_lo is None or args.x_hi is None:
            raise QBoundError("interval mode requires --x-lo and --x-hi")
        res = optimize.interval_kappa(args.x_lo, args.x_hi)
    _print_fields(dataclasses.asdict(res), args.format, out)
    return 0


def cmd_roots(args, out) -> int:
    k = bounds.as_kappa(args.kappa)
    cp = bounds.critical_points(k)
    res = bounds.crossing_condition(np.array([cp.x1, cp.x2]), k).tolist()
    fields = {"kappa": k.kappa, "x1": cp.x1, "x2": cp.x2, "pivot": cp.pivot,
              "w1": cp.w1, "w2": cp.w2, "residual_x1": res[0], "residual_x2": res[1]}
    _print_fields(fields, args.format, out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative number for a value, so
    that `--x -1e300` or `--x -inf` parses like `--x=-1e300` or `--x=-inf`.
    argparse's own pattern (Python 3.11) knows only the forms -1 and -1.5,
    and reads -1e300, -1e1 or -inf as an option string.  The pattern is
    argparse's private attribute _negative_number_matcher;
    tests/test_cli.py::TestNegativeValues guards the override on every
    Python the CI matrix runs."""

    def __init__(self, *args, **kwargs):
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

    def add_grid_flags(p):
        # an omitted flag (None) takes the EvaluationGrid default
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
    p.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    add_grid_flags(p)
    p.add_argument("--tolerance", type=float, default=verify.REL_TOL)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="parameter-selection searches")
    p.add_argument("mode", choices=("pointwise", "weight", "interval"))
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--kappa", dest="kappa_single", type=float, default=None)
    p.add_argument("--x-lo", type=float, default=None)
    p.add_argument("--x-hi", type=float, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_optimize)

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


if __name__ == "__main__":
    sys.exit(main())
