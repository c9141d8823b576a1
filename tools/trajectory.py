"""Run the benchmark alternately in a parent tree and in this checkout, and
write every run and each end-to-end metric's summary to one JSON file.

    python tools/trajectory.py PARENT_DIR --workload W [--workload W2 ...]
        [--seed S [--seed S2 ...]] [--pairs N] --out BENCH_<n>.json

Run it from the root of a checkout; PARENT_DIR is another checkout, e.g. a
`git clone` of the parent commit.  Each pair runs

    python bench/run.py --workload W --seed S --seconds 22 --trace 0

once in PARENT_DIR and once in this checkout, one child at a time, with the
interpreter that runs this tool.  Each workload runs N pairs on each seed
(seed 1 alone by default).  The side that runs first alternates from pair
to pair, so a drift in host load falls on both alike.  The file holds
every run's record (the JSON line bench/run.py prints last) with its seed
and, per workload, a summary over all its pairs, and with more than one
seed one per seed as well: each side's failed and attempted operations
summed over its runs and the number of its runs that read correct, and
per end-to-end metric of BENCHMARK.json both sides' medians and quartiles,
the change's wins: the pairs in which this checkout reads better than
PARENT_DIR, and a verdict: "better" or "worse" only when at least 10
pairs, 9 in 10 of them, and a median that moved by more than the parent's
quartile spread agree, "unresolved" otherwise.  It also holds both
commits, the Python and numpy that ran the children, and the CPU count
and affinity; each side's commit is given with its src digest and whether
its src differs from that commit, so an uncommitted change is not read as
its parent.  The file is rewritten after every pair, so an interrupted
call keeps the pairs it finished.  This tool changes nothing under bench/ and is no part of the
tests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 22
#: the fewest pairs a verdict other than "unresolved" needs
MIN_PAIRS = 10


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(last-line record, provenance) of one bench/run.py child in tree."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("provenance "))
    return json.loads(lines[-1]), prov


def commit(tree: Path, prov: dict) -> dict:
    """tree's commit, its src digest, and whether its src differs from that
    commit (None where tree is no git checkout): an uncommitted change
    names its parent's sha, and only src_sha256 and dirty tell it apart."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=tree,
                          capture_output=True, text=True)
    return {"git_sha": prov["git_sha"], "src_sha256": prov["src_sha256"],
            "dirty": bool(proc.stdout.strip()) if proc.returncode == 0 else None}


def verdict(row: dict, losses: int) -> str:
    """A metric row's verdict: "better" (or "worse") where the change reads
    better (or worse) in at least 9 in 10 of at least MIN_PAIRS pairs and
    its median differs from the parent's, in that direction, by more than
    the parent's quartile spread; "unresolved" otherwise."""
    pairs, parent = row["pairs"], row["parent"]
    delta = row["change"]["median"] - parent["median"]
    if pairs < MIN_PAIRS or abs(delta) <= parent["q3"] - parent["q1"]:
        return "unresolved"
    gain = delta < 0 if row["better"] == "lower" else delta > 0
    if gain and 10 * row["wins"] >= 9 * pairs:
        return "better"
    if not gain and 10 * losses >= 9 * pairs:
        return "worse"
    return "unresolved"


def summarize(runs: list, metrics: list) -> dict:
    """Each side's failed and attempted operations and correct runs, and
    per end-to-end metric each side's median and quartiles, the pairs in
    which the change reads better than the parent, and the verdict."""
    ops = {side: {"failed": sum(r[side]["failed"] for r in runs),
                  "attempted": sum(r[side]["attempted"] for r in runs),
                  "correct_runs": sum(r[side]["correct"] is True for r in runs),
                  "runs": len(runs)}
           for side in ("parent", "change")}
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in ("parent", "change")}
        row = {"unit": m["unit"], "better": m["better"]}
        for side, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            row[side] = {"median": statistics.median(v), "q1": q1, "q3": q3}
        pairs = list(zip(values["parent"], values["change"]))
        row["wins"] = sum((c < p) if lower else (c > p) for p, c in pairs)
        row["pairs"] = len(runs)
        row["verdict"] = verdict(row, sum((c > p) if lower else (c < p) for p, c in pairs))
        out[name] = row
    return {"operations": ops, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="a bench/run.py workload; may be given more than once")
    ap.add_argument("--seed", type=int, action="append",
                    help="a bench/run.py seed; may be given more than once (default: 1)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload and seed")
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            ap.error(f"{tree} holds no bench/run.py")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = args.seed or [1]

    report = {
        "command": f"bench/run.py --seed S --seconds {SECONDS} --trace 0",
        "seeds": seeds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commits": {},
        "provenance": {},
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for i, seed in enumerate(s for s in seeds for _ in range(args.pairs)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], prov = run_once(trees[side], workload, seed)
                report["provenance"].setdefault(side, prov)
                print(f"{workload} seed {seed} pair {i % args.pairs + 1}/{args.pairs} {side}: "
                      + json.dumps({k: v["value"] for k, v in pair[side]["metrics"].items()}),
                      flush=True)
            runs.append(pair)
            report["commits"] = {s: commit(trees[s], p) for s, p in report["provenance"].items()}
            entry = {"runs": runs, "summary": summarize(runs, metrics)}
            if len(seeds) > 1:
                entry["by_seed"] = {str(s): summarize([r for r in runs if r["seed"] == s], metrics)
                                    for s in seeds if any(r["seed"] == s for r in runs)}
            report["workloads"][workload] = entry
            args.out.write_text(json.dumps(report, indent=2) + "\n")
    for side, c in report["commits"].items():
        print(f"{side}: {c['git_sha'][:12]} src {c['src_sha256'][:12]}"
              + {True: " (uncommitted src)", False: "", None: " (no git)"}[c["dirty"]])
    for workload, w in report["workloads"].items():
        summaries = [(workload, w["summary"])]
        summaries += [(f"{workload} seed {s}", v) for s, v in w.get("by_seed", {}).items()]
        for label, summary in summaries:
            print(f"{label} failed/attempted: " + " -> ".join(
                f"{side} {o['failed']}/{o['attempted']} ({o['correct_runs']} of {o['runs']} runs correct)"
                for side, o in summary["operations"].items()))
            for name, row in summary["metrics"].items():
                print(f"{label} {name}: parent {row['parent']['median']:.6g} "
                      f"-> change {row['change']['median']:.6g} {row['unit']}, "
                      f"better in {row['wins']} of {row['pairs']}: {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
