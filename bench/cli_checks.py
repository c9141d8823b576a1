"""Checks of cold CLI invocations: exit code, stderr, and stdout against the
mpmath references.  Also parses `-X importtime` output."""
from __future__ import annotations

import csv
import io
import json
import math
import re

import reference as ref

ROW_SAMPLES = 8
DEFAULT_TABLE_ROWS = 2001 * 10  # default x grid times the default kappa sweep
_REPORT_LINE = re.compile(
    r"^(PASS|FAIL) (\w+): .* at \(x=(\S+), kappa=(\S+)\) lhs=(\S+) rhs=(\S+) tol=")


def strip_importtime(stderr: str) -> str:
    return "".join(line for line in stderr.splitlines(keepends=True)
                   if not line.startswith("import time:"))


def check_invocation(kind, argv, expected, code, stdout, stderr, rng):
    """Problems with one invocation; stderr must already be stripped of
    `-X importtime` lines."""
    problems = []
    if code != expected:
        last = stderr.strip().splitlines()[-1:] or ["no stderr"]
        problems.append(f"exit code {code}, expected {expected}: {last[0]}")
    if "Traceback" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    for line in stderr.splitlines():
        if "Warning" in line:
            problems.append(line.strip())
    if code == expected == 0:
        try:
            problems += check_stdout(kind, argv, stdout, rng)
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return problems


# Text outputs: the start of the line whose number corrupt_invocation moves,
# and by how much.  Near kappa = 1 the lemma 1 residual is flat at x1 to
# first order, hence the larger move there.
_CORRUPT_LINE = {
    "eval": ("q_ref = ", 1e-6),
    "roots": ("x1 = ", 1e-2),
    "verify_all": ("PASS theorem: .* lhs=", 1e-6),
    "optimize_pointwise": ("objective = ", 1e-6),
    "optimize_weight": ("objective = ", 1e-6),
    "optimize_interval": ("objective = ", 1e-6),
}


def _bump_matches(pattern, text, rel=1e-6):
    """text with the number in group 2 of every match of pattern bumped."""
    return re.sub(pattern, lambda m: m.group(1) + repr(ref.bump(float(m.group(2)), rel)),
                  text, flags=re.M)


def corrupt_invocation(kind, code, stdout):
    """(exit code, stdout) of an invocation that passed check_invocation,
    with its answer corrupted: q_ref of every row, x1 of `roots`, the
    objective of `optimize`, the theorem's lhs of `verify all`, or the exit
    code of an invalid request."""
    if kind == "invalid":
        return 0, stdout
    if kind in _CORRUPT_LINE:
        prefix, rel = _CORRUPT_LINE[kind]
        return code, _bump_matches(rf"^({prefix})(\S+)", stdout, rel)
    if kind in ("eval_json", "table_default_json"):
        return code, _bump_matches(r'("q_ref": )([^,\s}]+)', stdout)
    lines = stdout.splitlines()
    col = lines[0].split(",").index("q_ref")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        row[col] = repr(ref.bump(float(row[col])))
    return code, "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _flag(argv, name):
    return float(argv[argv.index(name) + 1])


def _pairs(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


def _rows(text, fmt):
    if fmt == "json":
        return json.loads(text)
    reader = csv.DictReader(io.StringIO(text))
    return [{k: float(v) for k, v in row.items()} for row in reader]


def check_row(row):
    """One comparison record: every column against the references."""
    x, kappa = float(row["x"]), float(row["kappa"])
    problems = ref.check_array("q", x, None, float(row["q_ref"]))
    problems += ref.check_array("g_lower", x, kappa, float(row["g_lower"]))
    for col in ("boyd_lower_q", "chernoff_upper"):
        got = float(row[col])
        if x >= 0:
            problems += ref.check_array(col, x, None, got)
        elif not math.isnan(got):
            problems.append(f"{col} at x={x!r} is {got!r}, expected nan for x < 0")
    qv, q_tol = ref.array_ref("q", x)
    gv, g_tol = ref.array_ref("g_lower", x, kappa)
    if qv > 0:
        allowed = (g_tol + gv * q_tol / qv) / qv + ref.REL_TOL
        problems += ref._close(f"rel_gap(x={x!r}, kappa={kappa!r})",
                               float(row["rel_gap"]), 1 - gv / qv, allowed)
    return problems


def check_stdout(kind, argv, stdout, rng):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if kind in ("eval", "eval_json"):
        row = json.loads(stdout)[0] if fmt == "json" else \
            {k: float(v) for k, v in _pairs(stdout).items()}
        problems = []
        if row["x"] != _flag(argv, "--x") or row["kappa"] != _flag(argv, "--kappa"):
            problems.append(f"echoed inputs {row['x']!r}, {row['kappa']!r} differ")
        return problems + check_row(row)
    if kind.startswith("table"):
        rows = _rows(stdout, fmt)
        problems = []
        if kind != "table_small" and len(rows) != DEFAULT_TABLE_ROWS:
            problems.append(f"{len(rows)} rows, expected {DEFAULT_TABLE_ROWS}")
        for row in rng.sample(rows, min(ROW_SAMPLES, len(rows))):
            problems += check_row(row)
        return problems
    if kind == "verify_all":
        problems = []
        for line in stdout.splitlines():
            m = _REPORT_LINE.match(line)
            if m is None:
                problems.append(f"unexpected line {line!r}")
            elif m.group(2) == "theorem":
                problems += ref.check_report({
                    "suite": "theorem", "worst_point": [float(m.group(3)), float(m.group(4))],
                    "worst_lhs": float(m.group(5)), "worst_rhs": float(m.group(6))})
        return problems
    if kind == "roots":
        d = _pairs(stdout)
        return ref.check_roots(_flag(argv, "--kappa"), float(d["x1"]), float(d["x2"]))
    if kind.startswith("optimize"):
        d = {k: v for k, v in _pairs(stdout).items() if k in ("argument", "objective", "gap")}
        res = {k: float(v) for k, v in d.items()}
        if kind == "optimize_pointwise":
            return ref.check_kappa_star(_flag(argv, "--x"), res)
        if kind == "optimize_weight":
            return ref.check_max_weight(_flag(argv, "--kappa"), res)
        return ref.check_interval(_flag(argv, "--x-lo"), _flag(argv, "--x-hi"), res)
    return []


def parse_importtime(stderr: str) -> dict:
    """Import breakdown in seconds from `python -X importtime` output."""
    entries = []  # (name, depth, self_us, cumulative_us, children)
    pending = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, self_us, cum_us, name = (p for p in re.split(r"[:|]", line, maxsplit=3))
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), depth, int(self_us), int(cum_us), [])
        while pending and pending[-1][1] > depth:
            child = pending.pop()
            if child[1] == depth + 1:
                node[4].append(child)
        pending.append(node)
        entries.append(node)
    by_name = {e[0]: e for e in entries}
    special = by_name.get("qbound.special")
    scipy_special = sum(c[3] for c in special[4] if c[0].startswith("scipy")) if special else 0
    us = 1e-6
    return {
        "total_s": by_name["qbound"][3] * us if "qbound" in by_name else math.nan,
        "numpy_s": by_name["numpy"][3] * us if "numpy" in by_name else 0.0,
        "scipy_special_s": scipy_special * us,
        "scipy_optimize_s": by_name["scipy.optimize"][3] * us
        if "scipy.optimize" in by_name else 0.0,
        "qbound_self_s": sum(e[2] for e in entries if e[0].startswith("qbound")) * us,
    }

