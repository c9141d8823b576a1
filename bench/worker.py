"""In-process workloads, run in a child interpreter with the checkout's src/.

    python3 bench/worker.py --workload tail_arrays --seed 1 --ops 60 \
        --trace 0 --out result.json

Runs a closed loop of --ops ops, one at a time, and writes the per-op
timings, failures (with their inputs) and a seed-drawn sample of inputs and
outputs for the reference check to --out.  The op count is fixed rather
than the run time, so that a seed always gets the same requests and the
same failures.  With --trace 1 the ops run twice: untraced, then the same
inputs again with spans recorded, and the fixed baseline probe runs after
them.  `--workload probe` runs only the baseline probe.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import random
import sys
import time
import warnings

import numpy as np
import scipy.special

import qbound
import workloads as wl
from spans import Tracer

SAMPLES_PER_ARRAY_CALL = 4
SAMPLES_PER_TASK_KIND = 6
TASK_SAMPLE_P = 0.1
BASELINE_REPS = 5


def _plain(obj):
    """Dataclasses, tuples and numpy scalars as JSON-ready values."""
    if dataclasses.is_dataclass(obj):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def timed_call(fn, args, tracer=None, request=0):
    """Call fn(*args) once; return (seconds, result, error, warning texts)."""
    if tracer is not None:
        tracer.request = request
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # every exception is a recorded failure
            result, error = None, exc
        t1 = time.perf_counter()
    counts = {}
    for w in caught:
        text = f"{w.category.__name__}: {w.message}"
        counts[text] = counts.get(text, 0) + 1
    texts = [t if n == 1 else f"{t} ({n}x)" for t, n in counts.items()]
    return t1 - t0, result, error, texts


class Recorder:
    """Timings, failures and reference samples of one loop.

    A request is one call (an array function, a task); an op is the unit
    that is timed (a batch of array calls, a round of task decks).  Failures and
    samples refer to requests, which are numbered across the loop.
    """

    def __init__(self):
        self.ops = []  # [kind, seconds, points, requests, calibration seconds]
        self.requests = []  # [kind, seconds]
        self.failures = []  # {"req", "kind", "input", "reason"}
        self.samples = []  # {"req", "kind", "input", "output"}

    def request(self, kind, seconds, inputs, error, texts, problems):
        req = len(self.requests)
        self.requests.append([kind, seconds])
        reasons = [f"raised {type(error).__name__}: {error}"] if error is not None else []
        reasons += texts + problems
        if reasons:
            self.failures.append({"req": req, "kind": kind, "input": inputs,
                                  "reason": "; ".join(reasons)})
        return req

    def merge(self, other):
        """Append another recorder's records, renumbering its requests."""
        shift = len(self.requests)
        for rec in other.failures + other.samples:
            rec["req"] += shift
        self.ops += other.ops
        self.requests += other.requests
        self.failures += other.failures
        self.samples += other.samples


# --- calibration ------------------------------------------------------------
# Other tenants of the host slow this machine by up to 2x, in phases that
# last from seconds to minutes.  Interleaved with the requests of every op
# (after each array call, after each task deck) the worker times small fixed
# slices of work of the same kind as the op that call no qbound code.  Their
# sum is the op's calibration time, sampled across the op's whole duration;
# run.py scales the op's time by the calibration's reference time over it,
# which cancels most of such a slowdown.

CAL_X = np.linspace(0.0, 50.0, 16_000)


def cal_scalar():
    """Scalar math, numpy and scipy.special calls in a Python loop."""
    s = 0.0
    for i in range(1, 200):
        x = i * 1e-3
        s += math.exp(-x * x / 2) * scipy.special.erfcx(x / math.sqrt(2)) + float(np.exp(-x))
    return s


def cal_array():
    """Vectorised numpy and scipy.special passes over 16,000 points."""
    return scipy.special.erfcx(CAL_X) * np.exp(-0.5 * CAL_X * CAL_X) + np.log1p(CAL_X)


def calibrate(*parts):
    """Wall time of the given calibration parts, run once each."""
    t0 = time.perf_counter()
    for part in parts:
        part()
    return time.perf_counter() - t0


# --- tail_arrays ------------------------------------------------------------

def array_loop(seed, n_ops, rec, tracer=None):
    """One op per batch: every array function on the batch's x and kappa."""
    sample_rng = np.random.default_rng([seed, 1])
    for kappa, x in itertools.islice(wl.array_batches(seed), n_ops):
        ax = np.abs(x)
        total = cal = 0.0
        for name, takes_kappa in wl.ARRAY_FUNCS:
            arg = x if name in wl.SIGNED_FUNCS else ax
            args = (arg, kappa) if takes_kappa else (arg,)
            secs, out, error, texts = timed_call(getattr(qbound, name), args, tracer,
                                                 len(rec.ops))
            total += secs
            cal += calibrate(cal_array)
            problems = []
            if out is not None:
                bad = ~np.isfinite(out)
                if bad.any():
                    i = int(np.argmax(bad))
                    problems.append(f"{int(bad.sum())} non-finite values, first "
                                    f"{float(out[i])!r} at x={float(arg[i])!r}")
            inputs = {"kappa": kappa if takes_kappa else None, "points": arg.size}
            req = rec.request(name, secs, inputs, error, texts, problems)
            if out is not None:
                for i in sample_rng.integers(0, arg.size, SAMPLES_PER_ARRAY_CALL):
                    rec.samples.append({
                        "req": req, "kind": name,
                        "input": {"x": float(arg[i]), "kappa": inputs["kappa"]},
                        "output": float(out[i])})
        rec.ops.append(["batch", total, x.size * len(wl.ARRAY_FUNCS), len(wl.ARRAY_FUNCS), cal])


# --- select_certify ---------------------------------------------------------

def run_task(kind, p):
    if kind == "kappa_star":
        return qbound.kappa_star(p["x"])
    if kind == "max_weight":
        return qbound.max_weight(p["kappa"])
    if kind == "interval_kappa":
        return qbound.interval_kappa(p["x_lo"], p["x_hi"])
    if kind == "critical_points":
        return qbound.critical_points(p["kappa"])
    if kind == "certify":
        return [qbound.verify_lemma1(p["kappa"]),
                qbound.verify_lemma2(p["kappa"], x_hi=p["x_hi"], count=wl.LEMMA2_COUNT)]
    grid = qbound.EvaluationGrid(x_min=-p["x_max"], x_max=p["x_max"],
                                 x_count=wl.SMALL_GRID_COUNT, kappas=tuple(p["kappas"]))
    if kind == "theorem":
        return qbound.verify_theorem(grid)
    if kind == "run_all":
        return qbound.run_all(grid)
    raise ValueError(f"unknown task kind {kind!r}")


def task_problems(result):
    """Non-finite fields and failed reports of a task result."""
    problems = []
    reports = result if isinstance(result, list) else [result]
    for r in reports:
        if isinstance(r, qbound.VerificationReport):
            if not r.passed:
                problems.append(
                    f"{r.suite} report failed: worst_violation={r.worst_violation!r} "
                    f"at (x, kappa)={tuple(r.worst_point)!r}")
            continue
        for field, value in dataclasses.asdict(r).items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{field} = {value!r}")
    return problems


def task_loop(seed, n_ops, rec, tracer=None):
    """One op per round of Draws.DECK decks: every task kind once per deck,
    so a round takes each kind through one full cycle of its stratified
    draws and every round does the same mix of work."""
    sample_rng = random.Random(seed * 7919 + 1)
    sampled = {k: 0 for k in wl.TASK_KINDS}
    decks = wl.task_decks(seed)
    for _ in range(n_ops):
        total, n, cal = 0.0, 0, 0.0
        for _ in range(wl.Draws.DECK):
            for kind, params in next(decks):
                secs, out, error, texts = timed_call(run_task, (kind, params), tracer,
                                                     len(rec.requests))
                total += secs
                n += 1
                problems = task_problems(out) if out is not None else []
                req = rec.request(kind, secs, params, error, texts, problems)
                if out is not None and sampled[kind] < SAMPLES_PER_TASK_KIND \
                        and sample_rng.random() < TASK_SAMPLE_P:
                    sampled[kind] += 1
                    rec.samples.append({"req": req, "kind": kind, "input": params,
                                        "output": _plain(out)})
            cal += calibrate(cal_scalar, cal_array)
        rec.ops.append(["round", total, n, n, cal])


LOOPS = {"tail_arrays": array_loop, "select_certify": task_loop}


def baseline_times():
    """Median untraced wall time of each re-anchor baseline function."""
    out = {}
    for name, fn, fn_args in wl.BASELINE_CALLS:
        times = []
        for _ in range(BASELINE_REPS):
            t0 = time.perf_counter()
            getattr(qbound, fn)(*fn_args)
            times.append(time.perf_counter() - t0)
        out[name] = sorted(times)[len(times) // 2]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LOOPS) + ["probe"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    loop = LOOPS.get(args.workload)
    result = {"workload": args.workload}
    rec = Recorder()
    if loop is not None:
        # Warm-up: lazy set-up and caches, outside every timed region.
        loop(args.seed + 1, 1, Recorder())
        loop(args.seed, args.ops, rec)
    result["untraced_ops"] = len(rec.ops)
    if args.trace:
        result["baseline"] = baseline_times()
        tracer = Tracer()
        tracer.install()
        try:
            if loop is not None:
                traced = Recorder()
                loop(args.seed, args.ops, traced, tracer)
                result["traced_root_s"] = tracer.root_s
                rec.merge(traced)
            # Looked up at call time, so that the wrappers are called.
            for name, fn, fn_args in wl.BASELINE_CALLS:
                tracer.request = f"baseline:{name}"
                getattr(qbound, fn)(*fn_args)
        finally:
            tracer.uninstall()
        result["trace"] = tracer.summary()
        result["spans"] = tracer.raw
    result.update(ops=rec.ops, requests=rec.requests, failures=rec.failures,
                  samples=rec.samples)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
