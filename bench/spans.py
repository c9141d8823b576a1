"""Span tracing around qbound's public functions, installed from outside.

`Tracer.install()` replaces every reference to a traced function (the
tables below) in the package's module namespaces -- including the names
`optimize`, `verify` and `cli` imported from `bounds` and `special` --
with a wrapper that records a
span: name, start, end, parent span and the request it belongs to.  Spans
are aggregated as they close (calls, points, total time, self time, direct
child calls), so memory stays flat; the first `RAW_LIMIT` spans are kept
verbatim.  `uninstall()` restores the originals, so an untraced run executes
no wrapper at all.
"""
from __future__ import annotations

import importlib
import time

RAW_LIMIT = 20000

# The reported layers.  run.py derives every per-layer metric name from
# these tables; BENCHMARK.json lists the same names (selftest.py checks).
# Array kernels: one point per element of the first argument.
KERNELS = {
    "special": ("q", "mills_ratio"),
    "bounds": ("g_lower", "r_scaled", "f_diff", "df_dx_identity", "boyd_lower_q"),
}
# Scalar functions of kappa (or of z): one point per call.
SCALARS = {
    "special": ("lambert_w",),
    "bounds": ("x2_point", "critical_points"),
}
OPTIMIZERS = ("kappa_star", "max_weight", "interval_kappa")
# verify.verify_<suite> is reported as verify.<suite>.
SUITES = ("theorem", "lemma1", "lemma2", "derivative", "chernoff")
# Not reported: wrapped only so that optimize.<name>.evals_per_solve counts
# every call the optimizers make into bounds and special.
COUNTED = {"bounds": ("alpha_coeff", "x1_point")}
CLI_COMMANDS = ("cmd_eval", "cmd_table", "cmd_verify", "cmd_optimize", "cmd_roots")
CLI_RENDER = ("_emit_records", "_print_report")
NAMESPACES = ("qbound", "qbound.special", "qbound.bounds", "qbound.optimize",
              "qbound.verify", "qbound.cli")


def point_layers() -> list:
    """Layers reported with .calls, .points and .self_s."""
    return ([f"{mod}.{n}" for table in (KERNELS, SCALARS)
             for mod, names in table.items() for n in names]
            + [f"verify.{s}" for s in SUITES])


CALLS, POINTS, TOTAL_S, SELF_S, CHILD_CALLS = range(5)


def _array_points(args, kwargs, result):
    x = args[0] if args else kwargs.get("x")
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _one_point(args, kwargs, result):
    return 1


def _report_points(args, kwargs, result):
    return int(result.points_checked)


class Tracer:
    """Records spans around wrapped callables and aggregates them by name."""

    def __init__(self):
        self.stats = {}  # name -> [calls, points, total_s, self_s, child_calls]
        self.converged = {}  # name -> [results, converged results]
        self.raw = []  # (request, span, parent span, name, start, end)
        self.request = 0  # set by the caller before each request
        self.root_s = 0.0  # time covered by spans without a parent
        self._stack = []  # open spans: [span id, child time, stats of its name]
        self._next_span = 0
        self._installed = []  # (module, attribute, original)

    def wrap(self, name, fn, points=_one_point, converged=False):
        """Return `fn` wrapped so that each call records a span `name`."""
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0, 0])
        conv = self.converged.setdefault(name, [0, 0]) if converged else None
        stack = self._stack
        raw = self.raw
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1] if stack else None
            frame = [span, 0.0, stats]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[CALLS] += 1
                stats[TOTAL_S] += dur
                stats[SELF_S] += dur - frame[1]
                if result is not None:
                    stats[POINTS] += points(args, kwargs, result)
                if conv is not None:
                    conv[0] += 1
                    conv[1] += bool(result is not None and result.converged)
                if parent is None:
                    self.root_s += dur
                else:
                    parent[1] += dur
                    parent[2][CHILD_CALLS] += 1
                if len(raw) < RAW_LIMIT:
                    raw.append((self.request, span,
                                None if parent is None else parent[0], name, t0, t1))

        return traced

    def install(self):
        """Wrap every traced qbound function in every package namespace."""
        modules = {n: importlib.import_module(n) for n in NAMESPACES}
        targets = {}

        def add(module, attr, name, points=_one_point, converged=False):
            fn = getattr(modules[module], attr)
            targets[fn] = self.wrap(name, fn, points, converged)

        for mod, names in KERNELS.items():
            for n in names:
                add("qbound." + mod, n, f"{mod}.{n}", _array_points)
        for table in (SCALARS, COUNTED):
            for mod, names in table.items():
                for n in names:
                    add("qbound." + mod, n, f"{mod}.{n}")
        for n in OPTIMIZERS:
            add("qbound.optimize", n, "optimize." + n, converged=True)
        for n in SUITES:
            add("qbound.verify", "verify_" + n, "verify." + n, _report_points)
        for n in ("make_record",) + CLI_COMMANDS + CLI_RENDER:
            add("qbound.cli", n, "cli." + n.lstrip("_"))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(value) if callable(value) else None
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def summary(self) -> dict:
        return {"stats": self.stats, "converged": self.converged,
                "root_s": self.root_s, "spans": self._next_span}


def merge_summaries(summaries) -> dict:
    """Add up the aggregated stats of several `Tracer.summary()` results."""
    out = {"stats": {}, "converged": {}, "root_s": 0.0, "spans": 0}
    for s in summaries:
        for name, vals in s["stats"].items():
            mine = out["stats"].setdefault(name, [0, 0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                mine[i] += v
        for name, vals in s["converged"].items():
            mine = out["converged"].setdefault(name, [0, 0])
            mine[0] += vals[0]
            mine[1] += vals[1]
        out["root_s"] += s["root_s"]
        out["spans"] += s["spans"]
    return out
