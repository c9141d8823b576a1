"""qbound benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 20 --trace 0

Run from the root of a qbound checkout; qbound is imported from its src/.
Workloads:

  cli_cold        fresh `python -m qbound.cli` processes, one after another
  tail_arrays     array kernels on 1e6-point batches, in one child process
  select_certify  optimizer and certification tasks, in one child process

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  Lines before it
give every metric by name with its unit, the failure summary and the
provenance; the full record (every failed op with its input, the spans) is
written under .bench_out/.  Never more than one child process runs at a time.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import cli_checks
import reference
import spans
import workloads as wl
from spans import CALLS, CHILD_CALLS, POINTS, SELF_S, TOTAL_S, merge_summaries

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_cold", "tail_arrays", "select_certify")
SETUP_REPS = 9
CHILD_TIMEOUT_S = 150
OUT_DIR = ".bench_out"
IMPORT_SNIPPET = ("import time; t0 = time.perf_counter(); import qbound; "
                  "print(repr(time.perf_counter() - t0))")
CLI_TABLE_KINDS = ("table_default_csv", "table_default_json", "table_small")
# Wall time of one op on a 2-core Xeon at the commit that added this
# benchmark: a CLI_CYCLE of 12 cold invocations, a batch of array calls, a
# round of task decks.  A run makes round(--seconds / nominal) ops, so the
# work and the failures of a run depend on its seed alone, never on how fast
# the machine happened to be.
NOMINAL_OP_S = {"cli_cold": 14.0, "tail_arrays": 0.375, "select_certify": 0.37}
# Other tenants of the host slow this machine by up to 2x, in phases that
# last from seconds to minutes.  So next to every timed piece of work a
# fixed calibration of the same kind that runs no qbound code is timed: a
# cold interpreter (COLD_CALIBRATION) after each set-up import and each
# cli_cold invocation, slices of worker.calibrate interleaved with the
# requests of each in-process op.  The work is reported as its wall time
# times the calibration time that goes with the fastest wall times seen on
# the same machine (COLD_CAL_REF_S, CAL_REF_S) over the calibration time
# measured next to it: the seconds it would have taken at that speed.
COLD_CALIBRATION = ["-S", "-c", "pass"]
COLD_CAL_REF_S = 0.0158
CAL_REF_S = {"tail_arrays": 0.0040, "select_certify": 0.0075}

IMPORT_METRICS = ("total_s", "numpy_s", "scipy_special_s", "scipy_optimize_s", "qbound_self_s")


def _on_alarm(signum, frame):
    raise TimeoutError("child process did not finish in time")


class Bench:
    """One benchmark run in a checkout rooted at the working directory."""

    def __init__(self, root, seed, seconds, trace):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = os.path.join(root, OUT_DIR)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.py = sys.executable
        self.tag = f"seed{seed}-trace{trace}"
        self.unchecked = []  # samples the reference check could not evaluate
        self.passed = {}  # request kind -> the first answer that passed its check

    def path(self, name):
        return os.path.join(self.out_dir, f"{self.tag}-{name}")

    def child(self, argv, name="child", timeout=CHILD_TIMEOUT_S):
        """Run one child to completion; return (wall s, exit code, peak RSS MB,
        stdout path, stderr path)."""
        out_path, err_path = self.path(name + ".out"), self.path(name + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            signal.signal(signal.SIGALRM, _on_alarm)
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # timeout, SIGTERM or interrupt: stop the child
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path, err_path

    def clean(self):
        """Remove this run's scratch files, keeping the report."""
        for name in os.listdir(self.out_dir):
            if name.startswith(self.tag + "-") and not name.endswith("-report.json"):
                os.remove(os.path.join(self.out_dir, name))

    def read(self, path):
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Write bytecode caches, then time `import qbound` in fresh interpreters."""
        _, code, _, _, err = self.child([self.py, "-m", "compileall", "-q", "src"], "compile")
        if code != 0:
            raise SystemExit("compileall failed:\n" + self.read(err))
        times = []
        for _ in range(SETUP_REPS):
            _, code, _, out, err = self.child([self.py, "-c", IMPORT_SNIPPET], "setup")
            if code != 0:
                raise SystemExit("import qbound failed:\n" + self.read(err))
            times.append((float(self.read(out)), self.cold_calibration()))
        return times

    def cold_calibration(self):
        return self.child([self.py] + COLD_CALIBRATION, "calibration")[0]

    # -- cli_cold -----------------------------------------------------------

    def op_count(self, workload):
        """Ops per loop; a traced run makes two loops of half the time."""
        seconds = self.seconds / 2 if self.trace else self.seconds
        return max(1, round(seconds / NOMINAL_OP_S[workload]))

    def cli_loop(self, traced):
        """Cold invocations in CLI_CYCLE order, in whole cycles, so that every
        run does the same mix of requests."""
        rng = random.Random(self.seed * 7919 + 2)
        cycles = self.op_count("cli_cold")
        requests = itertools.islice(wl.cli_requests(self.seed), cycles * len(wl.CLI_CYCLE))
        return [self.cli_op(kind, argv, expected, traced, rng)
                for kind, argv, expected in requests]

    def cli_op(self, kind, argv, expected, traced, rng):
        if traced:
            trace_path = self.path("cli-trace.json")
            cmd = [self.py, "-X", "importtime", os.path.join(BENCH, "cli_traced.py"),
                   trace_path] + argv
        else:
            cmd = [self.py, "-m", "qbound.cli"] + argv
        wall, code, rss, out, err = self.child(cmd, "cli")
        stderr = self.read(err)
        stdout = self.read(out)
        cal = self.cold_calibration()
        op = {"kind": kind, "argv": argv, "expected": expected, "seconds": wall, "rss_mb": rss,
              "code": code, "cal": cal}
        if traced:
            op["imports"] = cli_checks.parse_importtime(stderr)
            with open(trace_path) as fh:
                op["trace"] = json.load(fh)
            stderr = cli_checks.strip_importtime(stderr)
        op["problems"] = cli_checks.check_invocation(
            kind, argv, expected, code, stdout, stderr, rng)
        if not op["problems"] and kind not in self.passed:
            self.passed[kind] = dict(op, stdout=stdout)
        return op

    def run_cli_cold(self):
        # Warm-up: page cache and bytecode of the children, outside timing.
        self.child([self.py, "-m", "qbound.cli", "eval", "--x", "1", "--kappa", "2"], "cli")
        ops = self.cli_loop(traced=False)
        untraced = len(ops)
        if self.trace:
            ops += self.cli_loop(traced=True)
        return {"untraced_ops": untraced, "ops": ops}

    # -- in-process workloads ------------------------------------------------

    def run_worker(self, workload):
        out = self.path(f"worker-{workload}.json")
        n_ops = self.op_count(workload) if workload in NOMINAL_OP_S else 0
        cmd = [self.py, os.path.join(BENCH, "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--ops", str(n_ops),
               "--trace", str(self.trace), "--out", out]
        _, code, rss, _, err = self.child(cmd, "worker")
        if code != 0:
            raise SystemExit(f"worker failed with exit code {code}:\n" + self.read(err))
        with open(out) as fh:
            result = json.load(fh)
        result["rss_mb"] = rss
        return result

    def check_samples(self, workload, samples):
        """Reference-check the sampled answers; return {request: (input, problems)}
        with the input of the first mismatching sample of each request."""
        found = {}
        for s in samples:
            try:
                if workload == "tail_arrays":
                    p = reference.check_array(s["kind"], s["input"]["x"],
                                              s["input"]["kappa"], s["output"])
                else:
                    p = reference.check_task(s["kind"], s["input"], s["output"])
            except Exception as exc:  # an answer the check cannot read: not verified
                self.unchecked.append(f"{s['kind']} {s['input']}: {type(exc).__name__}: {exc}")
                continue
            if p:
                found.setdefault(s["req"], (s["input"], []))[1].extend(p)
            elif s["kind"] not in self.passed and (
                    workload != "tail_arrays" or reference.corrupt_array(
                        s["kind"], s["input"]["x"], s["input"]["kappa"], s["output"]) is not None):
                self.passed[s["kind"]] = s
        return found

    def canary(self, workload):
        """The check of the check: the first answer of each request kind that
        passed its check is corrupted and sent through the same check again,
        which must reject it.  Returns (kinds tried, kinds whose corrupted
        answer was accepted); `correct` needs at least one kind and none
        accepted."""
        rng = random.Random(self.seed)
        accepted = []
        for kind, s in self.passed.items():
            if workload == "cli_cold":
                code, stdout = cli_checks.corrupt_invocation(kind, s["code"], s["stdout"])
                p = cli_checks.check_invocation(kind, s["argv"], s["expected"], code, stdout,
                                                "", rng)
            elif workload == "tail_arrays":
                x, kappa = s["input"]["x"], s["input"]["kappa"]
                bad = reference.corrupt_array(kind, x, kappa, s["output"])
                p = reference.check_array(kind, x, kappa, bad)
            else:
                p = reference.check_task(kind, s["input"],
                                         reference.corrupt_task(kind, s["output"]))
            if not p:
                accepted.append(kind)
        return sorted(self.passed), accepted

    # -- traced extras --------------------------------------------------------

    def probes(self):
        """The CLI part of the fixed probe of every traced run: one untraced
        and one traced cold default `table`."""
        wall, code, _, _, _ = self.child([self.py, "-m", "qbound.cli", "table"], "probe")
        table_s = wall if code == 0 else float("nan")
        traced = self.cli_op("table_default_csv", ["table"], 0, True, random.Random(0))
        return table_s, traced


def summarize_times(values):
    tail, pct, n = tail_of(values)
    return {"p50": statistics.median(values), "tail": tail, "tail_pct": pct, "n": n}


def tail_of(values):
    """The highest sample with at least ten samples above it, its percentile
    rank and the sample count.  With ten samples or fewer no sample has ten
    above it, and the smallest is returned (percentile 0)."""
    xs = sorted(values)
    n = len(xs)
    i = max(n - 11, 0)
    return xs[i], (100.0 * i / (n - 1) if n > 1 else 0.0), n


def provenance(root):
    sha = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(root):
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            if idx.startswith("index"):
                rd = lambda f: open(os.path.join(base, idx, f)).read().strip()  # noqa: E731
                caches[f"L{rd('level')}{rd('type')[0].lower()}"] = \
                    f"{rd('size')} shared by cpus {rd('shared_cpu_list')}"
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
    }


def layer_metrics(summary, imports, cli_traces, overhead, coverage, baseline):
    """The per-layer metric dict from merged span summaries."""
    stats, conv = summary["stats"], summary["converged"]
    zero = [0, 0, 0.0, 0.0, 0]
    m = {}
    for key in IMPORT_METRICS:
        vals = [i[key] for i in imports]
        m[f"import.{key}"] = (statistics.median(vals), "s")
    cli = merge_summaries(cli_traces)["stats"]
    get = lambda name: cli.get(name, zero)  # noqa: E731
    # Render: formatting inside the render helpers plus every stdout write.
    render = sum(get(n)[SELF_S] for n in ("cli.emit_records", "cli.print_report")) \
        + get("cli.write")[TOTAL_S]
    commands = sum(get("cli." + c)[TOTAL_S] for c in
                   ("cmd_eval", "cmd_table", "cmd_verify", "cmd_optimize", "cmd_roots"))
    m["cli.parse_s"] = (get("cli.parse")[TOTAL_S], "s")
    m["cli.compute_s"] = (commands - render, "s")
    m["cli.render_s"] = (render, "s")
    m["cli.make_record.calls"] = (get("cli.make_record")[CALLS], "count")
    for name in spans.point_layers():
        s = stats.get(name, zero)
        m[f"{name}.calls"] = (s[CALLS], "count")
        m[f"{name}.points"] = (s[POINTS], "count")
        m[f"{name}.self_s"] = (s[SELF_S], "s")
    for name in ("optimize." + n for n in spans.OPTIMIZERS):
        s = stats.get(name, zero)
        c = conv.get(name, [0, 0])
        m[f"{name}.calls"] = (s[CALLS], "count")
        m[f"{name}.self_s"] = (s[SELF_S], "s")
        m[f"{name}.evals_per_solve"] = (s[CHILD_CALLS] / s[CALLS] if s[CALLS] else 0.0, "count")
        m[f"{name}.converged_frac"] = (c[1] / c[0] if c[0] else 0.0, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.self_coverage_frac"] = (coverage, "ratio")
    for name in [b[0] for b in wl.BASELINE_CALLS] + ["table_default"]:
        m[f"baseline.{name}_s"] = (baseline[name], "s")
    return m


def overhead_of(untraced, traced):
    """Relative extra time of the traced ops over the same untraced ops."""
    n = min(len(untraced), len(traced))
    if n == 0:
        return float("nan")
    return sum(traced[:n]) / sum(untraced[:n]) - 1.0


def timing_lines(prefix, values):
    t = summarize_times(values)
    return {f"{prefix}.p50": (t["p50"], "s", f"n={t['n']}"),
            f"{prefix}.tail": (t["tail"], "s", f"p{t['tail_pct']:.1f}, n={t['n']}")}


def cycle_times(ops):
    """cli_cold op times.  The op is one request cycle: one invocation of each
    entry of wl.CLI_CYCLE.  Its time is the sum over the cycle of each kind's
    median wall time, and each invocation gives one estimate of it: that sum
    scaled by the invocation's wall time over its kind's median.  So every
    request kind weighs in by its share of the cycle."""
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op["seconds"])
    median = {k: statistics.median(v) for k, v in by_kind.items()}
    cycle = sum(median[k] for k in wl.CLI_CYCLE)
    return [cycle * op["seconds"] / median[op["kind"]] for op in ops]


def measure_cli(bench):
    """cli_cold: one request per cold invocation, timed as request cycles."""
    res = bench.run_cli_cold()
    ops, n_untraced = res["ops"], res["untraced_ops"]
    failures = [{"req": i, "kind": op["kind"], "input": op["argv"],
                 "reason": "; ".join(op["problems"])}
                for i, op in enumerate(ops) if op["problems"]]
    times = [op["seconds"] for op in ops]
    tables = [op["seconds"] for op in ops[:n_untraced] if op["kind"] in CLI_TABLE_KINDS]
    e2e = timing_lines("cli_wall_s", times[:n_untraced])
    e2e["table_wall_s.p50"] = (statistics.median(tables) if tables else float("nan"),
                               "s", f"n={len(tables)}")
    e2e["calibration_s.p50"] = (statistics.median(op["cal"] for op in ops[:n_untraced]), "s",
                                f"reference {COLD_CAL_REF_S} s")
    scaled = [dict(op, seconds=op["seconds"] * COLD_CAL_REF_S / op["cal"]) for op in ops]
    m = {"op_times": cycle_times(scaled[:n_untraced]), "attempted": len(ops),
         "failures": failures, "peak_rss": max(op["rss_mb"] for op in ops), "e2e": e2e,
         "canary": bench.canary("cli_cold")}
    if bench.trace:
        traced = ops[n_untraced:]
        probe = bench.run_worker("probe")
        m.update(worker_trace=probe["trace"], baseline=probe["baseline"],
                 spans=probe["spans"],
                 overhead=overhead_of([op["seconds"] for op in scaled[:n_untraced]],
                                      [op["seconds"] for op in scaled[n_untraced:]]),
                 cli_traces=[op["trace"] for op in traced],
                 imports=[op["imports"] for op in traced],
                 coverage=(sum(op["trace"]["import_s"] + op["trace"]["root_s"] for op in traced),
                           sum(op["trace"]["wall_s"] for op in traced)))
    return m


def measure_worker(bench, workload):
    """tail_arrays (op = batch, request = array call) and select_certify
    (op = round of task decks, request = task), run in one worker child."""
    res = bench.run_worker(workload)
    ops, n_untraced = res["ops"], res["untraced_ops"]
    failures = res["failures"]
    for req, (inputs, problems) in bench.check_samples(workload, res["samples"]).items():
        failures.append({"req": req, "kind": res["requests"][req][0], "input": inputs,
                         "reason": "reference mismatch: " + "; ".join(problems)})
    times = [op[1] for op in ops]
    untraced = ops[:n_untraced]
    scaled = [op[1] * CAL_REF_S[workload] / op[4] for op in ops]
    busy = sum(op[1] for op in untraced)
    if workload == "tail_arrays":
        points = sum(op[2] for op in untraced)
        e2e = {"eval_points_per_s": (points / busy, "points/s", f"points={points}"),
               "bytes_moved_computed": (
                   16 * points, "B", "computed from array sizes: one float64 read and one "
                   "written per point; temporaries not counted")}
    else:
        n_tasks = sum(op[3] for op in untraced)
        task_times = [r[1] for r in res["requests"][:n_tasks]]
        e2e = {"solves_per_s": (n_tasks / busy, "tasks/s", f"n={n_tasks}")}
        e2e.update(timing_lines("solve_s", task_times))
    e2e.update(timing_lines("op_wall_s", times[:n_untraced]))
    e2e["calibration_s.p50"] = (statistics.median(op[4] for op in untraced), "s",
                                f"reference {CAL_REF_S[workload]} s")
    m = {"op_times": scaled[:n_untraced], "attempted": len(res["requests"]),
         "failures": failures, "peak_rss": res["rss_mb"], "e2e": e2e,
         "canary": bench.canary(workload)}
    if bench.trace:
        m.update(worker_trace=res["trace"], baseline=res["baseline"], spans=res["spans"],
                 overhead=overhead_of(scaled[:n_untraced], scaled[n_untraced:]),
                 cli_traces=[], imports=[],
                 coverage=(res["traced_root_s"], sum(times[n_untraced:])))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qbound", "__init__.py")):
        print("error: run from the root of a qbound checkout (src/qbound not found)",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds through Bench.child, which then stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    bench = Bench(root, args.seed, args.seconds, args.trace)
    setup_runs = bench.setup()
    setup_times = [t * COLD_CAL_REF_S / cal for t, cal in setup_runs]
    m = measure_cli(bench) if args.workload == "cli_cold" else measure_worker(bench, args.workload)

    attempted, failures = m["attempted"], m["failures"]
    failed = len({f["req"] for f in failures})
    op_times = m["op_times"]
    if args.trace:
        table_s, probe_op = bench.probes()
        baseline = dict(m["baseline"], table_default=table_s)
        cli_traces = m["cli_traces"] + [probe_op["trace"]]
        covered, wall = m["coverage"]
        summary = merge_summaries([m["worker_trace"]] + cli_traces)
        layers = layer_metrics(summary, m["imports"] + [probe_op["imports"]], cli_traces,
                               m["overhead"], covered / wall, baseline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        t = summarize_times(op_times)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s.p50": {"value": t["p50"], "unit": "s"},
            "op_s.tail": {"value": t["tail"], "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss"], "unit": "MB"},
        }

    prov = provenance(root)
    report_path = bench.path(f"{args.workload}-report.json")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "setup_times_s": setup_times,
        "setup_wall_and_calibration_s": setup_runs,
        "attempted": attempted, "failed": failed, "failures": failures,
        "op_times_s": op_times, "metrics": metrics,
        "workload_metrics": {k: {"value": v, "unit": u, "note": n}
                             for k, (v, u, n) in m["e2e"].items()},
        "unchecked": bench.unchecked, "canary": {"tried": m["canary"][0],
                                                  "accepted": m["canary"][1]},
        "spans": m.get("spans", []),
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    bench.clean()

    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"closed loop, 1 client, 1 request at a time")
    print("provenance " + json.dumps(prov))
    if args.workload == "tail_arrays":
        print(f"note: each batch is {wl.ARRAY_POINTS} float64 points "
              f"({wl.ARRAY_POINTS * 8 / 1e6:.0f} MB), which fits in the L3 cache "
              f"({prov['caches'].get('L3u', 'size unknown')}); no bandwidth ratio is claimed")
    lines = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh interpreters, calibrated"),
        "setup_wall_s": (statistics.median(t for t, _ in setup_runs), "s",
                         f"median of {len(setup_runs)} fresh interpreters"),
        "ops_failed_frac": (failed / attempted, "ratio",
                            f"failed={failed}, attempted={attempted}"),
        "peak_rss_mb": (m["peak_rss"], "MB", "peak resident set of the working process"),
        **timing_lines("op_s", op_times),
        **m["e2e"],
    }
    for name, (v, u, note) in lines.items():
        print(f"metric {name} = {v:.6g} {u} ({note})")
    if args.trace:
        for name, mv in metrics.items():
            print(f"metric {name} = {mv['value']:.6g} {mv['unit']}")
    groups = {}
    for f in failures:
        groups.setdefault((f["kind"], f["reason"].split(":")[0][:60]), []).append(f)
    for (kind, reason), fs in sorted(groups.items()):
        print(f"failure {kind}: {len(fs)}x {reason} -- e.g. input {json.dumps(fs[0]['input'])}"
              f": {fs[0]['reason'][:300]}")
    print(f"record {os.path.relpath(report_path, root)}")
    for u in bench.unchecked:
        print(f"unchecked {u}")
    tried, accepted = m["canary"]
    print(f"check of the check: corrupted answers of {len(tried)} request kinds "
          f"({', '.join(tried)}); accepted by the check: {', '.join(accepted) or 'none'}")
    correct = bool(tried) and not accepted and not bench.unchecked
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
