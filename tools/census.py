"""Count how often each executable line of qbound's source runs, under
Tier-1 and under each benchmark workload's seed-1 requests.

    python tools/census.py > census.json

Runs on Python 3.11 or later, in this one process, with every thread's
calls into src/qbound traced (sys.settrace, and threading.settrace for the
threads that run the blocks of a large array), these parts in turn:

- tier1: the test suite, as `python -m pytest -q
  --continue-on-collection-errors` runs it from the root of the checkout,
  its report sent to stderr;
- tail_arrays, select_certify: the ops of a seed-1 run of bench/run.py
  with BENCHMARK.json's run_seconds, through bench/worker.py's own loops,
  without their warm-up;
- cli_cold: the requests of the same run, from bench/workloads.py, each
  through qbound.cli.main, in process, with its output discarded.

A line counts where a function's instructions after its RESUME carry it,
so it is one that a line event can name.  Module and class bodies run once,
at import, and are left out.  stdout gets one JSON object: the parts, the
op and request counts, tier1's pytest exit status, and per file and line
each part's hits.  stderr gets each part's share of lines hit, and the
workloads' together, then a table of the runs of lines that some part
never reaches: consecutive lines of one function that the same parts
miss, with each part's hits summed over the run.  A traced Tier-1 run
takes about twice an untraced one.  This tool changes nothing under
bench/ and is no part of the tests.
"""
from __future__ import annotations

import collections
import contextlib
import dis
import inspect
import io
import itertools
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qbound"
PARTS = ("tier1", "tail_arrays", "select_certify", "cli_cold")
SEED = 1


def executable_lines(path: Path) -> dict:
    """{line: qualified name of the innermost function that holds it}."""
    lines = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:  # a function is reached after the code that defines it
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            body = itertools.dropwhile(lambda i: i.opname != "RESUME", dis.get_instructions(code))
            for ins in itertools.islice(body, 1, None):
                if ins.positions.lineno is not None:
                    lines[ins.positions.lineno] = code.co_qualname
    return dict(sorted(lines.items()))


def traced(run):
    """run()'s result and the Counter of its line events in src/qbound,
    (file name, line), over every thread.  Each thread counts into a
    Counter of its own, so that no count is lost to a thread switch."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    counters, tracers = [], {}

    def new_tracer():
        hits = collections.Counter()
        counters.append(hits)

        def line(frame, event, arg):
            if event == "line":
                hits[frame.f_code.co_filename, frame.f_lineno] += 1
            return line

        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename in files:
            ident = threading.get_ident()
            return tracers.get(ident) or tracers.setdefault(ident, new_tracer())
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, sum(counters, collections.Counter())


def tier1() -> int:
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        return int(pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                "--rootdir", str(ROOT), str(ROOT / "tests")]))


def cli_requests(requests) -> None:
    from qbound import cli

    for _, argv, _ in requests:
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv, out=io.StringIO())
            except SystemExit:  # argparse's usage errors
                pass


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run as bench_run
    import worker
    import workloads as wl

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    bench = bench_run.Bench(str(ROOT), SEED, seconds, 0)
    ops = {w: bench.op_count(w) for w in PARTS[1:]}
    requests = list(itertools.islice(wl.cli_requests(SEED), ops["cli_cold"] * len(wl.CLI_CYCLE)))
    hits = {}
    status, hits["tier1"] = traced(tier1)
    _, hits["tail_arrays"] = traced(
        lambda: worker.array_loop(SEED, ops["tail_arrays"], worker.Recorder()))
    _, hits["select_certify"] = traced(
        lambda: worker.task_loop(SEED, ops["select_certify"], worker.Recorder()))
    _, hits["cli_cold"] = traced(lambda: cli_requests(requests))

    census = {p.name: executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    lines = {name: {str(n): [hits[part][str(PACKAGE / name), n] for part in PARTS] for n in fns}
             for name, fns in census.items()}
    json.dump({"parts": PARTS, "seed": SEED, "ops": ops, "cli_requests": len(requests),
               "tier1_status": status, "lines": lines}, sys.stdout, indent=1)
    print()

    total = sum(map(len, census.values()))
    for i, part in enumerate(PARTS):
        hit = sum(counts[i] > 0 for fl in lines.values() for counts in fl.values())
        print(f"{part}: {hit} of {total} lines hit", file=sys.stderr)
    hit = sum(any(counts[1:]) for fl in lines.values() for counts in fl.values())
    print(f"any workload: {hit} of {total} lines hit", file=sys.stderr)
    print(f"\n{'file':<12}{'lines':>10}{'n':>5}  {'function':<28}"
          + "".join(f"{p:>15}" for p in PARTS), file=sys.stderr)
    for name, fns in census.items():
        rows = itertools.groupby(
            fns.items(), lambda kv: (kv[1], tuple(c == 0 for c in lines[name][str(kv[0])])))
        for (fn, zeros), group in rows:
            if not any(zeros):
                continue
            numbers = [n for n, _ in group]
            sums = [sum(lines[name][str(n)][i] for n in numbers) for i in range(len(PARTS))]
            span = f"{numbers[0]}-{numbers[-1]}" if len(numbers) > 1 else str(numbers[0])
            print(f"{name:<12}{span:>10}{len(numbers):>5}  {fn:<28}"
                  + "".join(f"{s:>15}" for s in sums), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
