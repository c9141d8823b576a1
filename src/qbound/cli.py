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
import sys

import numpy as np

from . import bounds, optimize, verify
from .errors import QBoundError
from .special import SQRT_2PI, mills_ratio, q

CSV_FIELDS = ("x", "kappa", "q_ref", "g_lower", "boyd_lower_q", "chernoff_upper", "rel_gap")

# One output row per template.  A formatted float never needs CSV quoting,
# and repr is how json spells a float.
_CSV_ROW = ",".join(["%.17g"] * len(CSV_FIELDS)) + "\n"
_TEXT_ROW = "".join(f"{f} = %.17g\n" for f in CSV_FIELDS)
_JSON_ROW = "  {\n" + ",\n".join(f'    "{f}": %r' for f in CSV_FIELDS) + "\n  }"

_TINY = np.finfo(float).tiny  # the smallest normal double


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def make_record(xs, kappa) -> np.ndarray:
    """Comparison rows for an x array at one kappa, one column per CSV field.

    The columns that only exist for x >= 0 (Boyd on Q-scale, Chernoff upper)
    are NaN for negative x.  Where Q is subnormal or 0 (x > ~37.5), (Q-g)/Q
    has lost its significant bits, so rel_gap is evaluated as
    1 - r/R = 1 - alpha*exp(-(kappa-1)*x**2/2)/(R/sqrt(2*pi)), in which
    nothing underflows.
    """
    k = bounds.as_kappa(kappa)
    xs = np.array(xs, dtype=float, ndmin=1)
    qx = q(xs)
    gx = bounds.g_lower(xs, k)
    rows = np.full((xs.size, len(CSV_FIELDS)), math.nan)
    rows[:, 0] = xs
    rows[:, 1] = k.kappa
    rows[:, 2] = qx
    rows[:, 3] = gx
    pos = xs >= 0.0
    rows[pos, 4] = bounds.boyd_lower_q(xs[pos])
    rows[pos, 5] = bounds.chernoff_upper(xs[pos])
    ok = qx >= _TINY
    rows[ok, 6] = (qx[ok] - gx[ok]) / qx[ok]
    if not ok.all():
        xu = xs[~ok]
        r = bounds.alpha_coeff(k) * np.exp(-0.5 * k.kappa_minus_1 * xu * xu)
        rows[~ok, 6] = 1.0 - r / (mills_ratio(xu) / SQRT_2PI)
    return rows


def _emit_records(rows, fmt: str, out) -> None:
    """Write rows of floats, one per record, in the CSV_FIELDS order."""
    if fmt == "json":
        body = ",\n".join([_JSON_ROW % tuple(r) for r in rows])
        # Field names and finite reprs hold neither "nan" nor "inf".
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
        out.write(f"[\n{body}\n]\n")
    elif fmt == "csv":
        out.write(",".join(CSV_FIELDS) + "\n")
        out.write("".join([_CSV_ROW % tuple(r) for r in rows]))
    else:  # text
        out.write("".join([_TEXT_ROW % tuple(r) for r in rows]))


def _grid_from_args(args) -> verify.EvaluationGrid:
    kappas = tuple(args.kappa) if args.kappa else verify.DEFAULT_KAPPAS
    return verify.EvaluationGrid(
        x_min=args.x_min,
        x_max=args.x_max,
        x_count=args.x_count,
        spacing=args.spacing,
        kappas=kappas,
    )


def _report_dict(r: verify.VerificationReport) -> dict:
    d = dataclasses.asdict(r)
    d["worst_point"] = list(r.worst_point)
    return d


def _print_report(r: verify.VerificationReport, out) -> None:
    status = "PASS" if r.passed else "FAIL"
    x, kap = r.worst_point
    out.write(
        f"{status} {r.suite}: points={r.points_checked} "
        f"worst_violation={_fmt(r.worst_violation)} at (x={_fmt(x)}, kappa={_fmt(kap)}) "
        f"lhs={_fmt(r.worst_lhs)} rhs={_fmt(r.worst_rhs)} tol={_fmt(r.tolerance)}\n"
    )


def cmd_eval(args, out) -> int:
    _emit_records(make_record([args.x], args.kappa).tolist(), args.format, out)
    return 0


def cmd_table(args, out) -> int:
    grid = _grid_from_args(args)
    xs = grid.xs()
    # x-major, then kappa: stack the per-kappa blocks as (x, kappa, field).
    rows = np.stack([make_record(xs, k) for k in grid.kappas], axis=1)
    _emit_records(rows.reshape(-1, len(CSV_FIELDS)).tolist(), args.format, out)
    return 0


def cmd_verify(args, out) -> int:
    # an explicit --kappa 1 is a domain error in the lemma suites (exit 2)
    reports = verify.run_suites(
        verify.SUITE_NAMES if args.suite == "all" else (args.suite,),
        _grid_from_args(args),
        explicit=args.kappa is not None,
        tolerance=args.tolerance,
        weight_inflation=args.inflate_weight,
    )
    if args.format == "json":
        out.write(json.dumps([_report_dict(r) for r in reports], indent=2))
        out.write("\n")
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
    if args.format == "json":
        out.write(json.dumps(dataclasses.asdict(res), indent=2))
        out.write("\n")
    else:
        out.write(f"argument = {_fmt(res.argument)}\n")
        out.write(f"objective = {_fmt(res.objective)}\n")
        gap = math.nan if res.gap is None else res.gap
        out.write(f"gap = {_fmt(gap)}\n")
        out.write(f"iterations = {res.iterations}\n")
        out.write(f"converged = {str(res.converged).lower()}\n")
        if res.message:
            out.write(f"message = {res.message}\n")
    return 0


def cmd_roots(args, out) -> int:
    cp = bounds.critical_points(args.kappa)
    k = bounds.as_kappa(args.kappa)
    res1 = bounds.crossing_condition(cp.x1, k)
    res2 = bounds.crossing_condition(cp.x2, k)
    data = {
        "kappa": k.kappa,
        "x1": cp.x1,
        "x2": cp.x2,
        "pivot": cp.pivot,
        "w1": cp.w1,
        "w2": cp.w2,
        "residual_x1": res1,
        "residual_x2": res2,
    }
    if args.format == "json":
        out.write(json.dumps(data, indent=2))
        out.write("\n")
    else:
        for key, val in data.items():
            out.write(f"{key} = {_fmt(val)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbound",
        description="Exponential lower bound for the Gaussian Q-function: "
        "evaluation, verification, and parameter selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--x-min", type=float, default=-10.0)
        p.add_argument("--x-max", type=float, default=10.0)
        p.add_argument("--x-count", type=int, default=2001)
        p.add_argument("--spacing", choices=("linear", "log"), default="linear")
        p.add_argument(
            "--kappa", type=float, action="append", default=None,
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
    p.add_argument("--inflate-weight", type=float, default=1.0, help=argparse.SUPPRESS)
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
    except (QBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
