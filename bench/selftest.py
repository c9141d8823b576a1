"""Self-tests of the benchmark (about a minute; not part of the Tier-1 suite,
whose default file pattern does not match this file):

    python3 -m pytest -q bench/selftest.py

Each workload runs in a short mode and must print every metric named in
BENCHMARK.json with its unit; the reference check must reject corrupted
answers.
"""
import json
import os
import random
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cli_checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# The workload-specific end-to-end metrics each workload prints by name.
NAMED = {
    "cli_cold": {"cli_wall_s.p50": "s", "cli_wall_s.tail": "s", "table_wall_s.p50": "s"},
    "tail_arrays": {"eval_points_per_s": "points/s"},
    "select_certify": {"solves_per_s": "tasks/s", "solve_s.p50": "s", "solve_s.tail": "s"},
}


def _run(workload, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_end_to_end_metric(workload):
    lines, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    text = "\n".join(lines)
    assert "metric ops_failed_frac = " in text and "attempted=" in text
    for name, unit in NAMED[workload].items():
        assert any(ln.startswith(f"metric {name} = ") and f" {unit} " in ln + " "
                   for ln in lines), name


def test_traced_run_emits_every_per_layer_metric():
    _, result = _run("select_certify", 1, seconds="2")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["optimize.kappa_star.evals_per_solve"]["value"] > 0
    assert 0 < result["metrics"]["trace.self_coverage_frac"]["value"] <= 1


def test_reference_rejects_corrupted_theorem_report():
    import dataclasses

    import qbound

    rep = dataclasses.asdict(qbound.verify_theorem(weight_inflation=1.01))
    assert reference.check_report(rep)
    rep = dataclasses.asdict(qbound.verify_theorem())
    assert reference.check_report(rep) == []


@pytest.mark.parametrize("x", [-3.0, 0.5, 1.0, 8.0, 30.0])
def test_reference_rejects_perturbed_q(x):
    import qbound

    got = qbound.q(x)
    assert reference.check_array("q", x, None, got) == []
    assert reference.check_array("q", x, None, got * (1 + 1e-11))


def test_reference_accepts_kernels_in_the_bulk():
    import qbound

    for name, takes_kappa in wl.ARRAY_FUNCS:
        for x in (0.25, 1.0, 4.0):
            args = (x, 2.0) if takes_kappa else (x,)
            got = getattr(qbound, name)(*args)
            assert reference.check_array(name, x, 2.0 if takes_kappa else None, got) == [], name


def test_reference_checks_optimizers():
    import dataclasses

    import qbound

    res = dataclasses.asdict(qbound.kappa_star(1.0))
    assert reference.check_kappa_star(1.0, res) == []
    assert reference.check_kappa_star(1.0, dict(res, objective=res["objective"] * (1 - 1e-7)))
    res = dataclasses.asdict(qbound.max_weight(2.0))
    assert reference.check_max_weight(2.0, res) == []
    assert reference.check_max_weight(2.0, dict(res, objective=res["objective"] * (1 + 1e-7)))


def test_cli_check_flags_traceback_and_wrong_exit():
    problems = cli_checks.check_invocation(
        "eval", ["eval", "--x", "40", "--kappa", "2"], 0, 1, "",
        "Traceback (most recent call last):\nZeroDivisionError: float division by zero\n",
        random.Random(0))
    assert any("exit code 1" in p for p in problems)
    assert any("ZeroDivisionError" in p for p in problems)


@pytest.mark.parametrize("kind, argv, expected", [
    ("eval", ["eval", "--x", "1.5", "--kappa", "2"], 0),
    ("eval_json", ["eval", "--x", "-2.5", "--kappa", "3", "--format", "json"], 0),
    ("table_small", ["table", "--x-count", "41", "--kappa", "2"], 0),
    ("table_default_json", ["table", "--format", "json"], 0),
    ("roots", ["roots", "--kappa", "1.000001"], 0),
    ("optimize_weight", ["optimize", "weight", "--kappa", "2"], 0),
    ("optimize_pointwise", ["optimize", "pointwise", "--x", "1"], 0),
    ("verify_all", ["verify", "all", "--x-count", "41", "--kappa", "2"], 0),
    ("invalid", ["roots", "--kappa", "1"], 2),
])
def test_cli_check_rejects_corrupted_invocation(kind, argv, expected, capsys):
    import io

    import qbound.cli

    out = io.StringIO()
    code = qbound.cli.main(argv, out=out)
    stdout, rng = out.getvalue(), random.Random(0)
    stderr = capsys.readouterr().err
    assert cli_checks.check_invocation(kind, argv, expected, code, stdout, stderr, rng) == []
    bad_code, bad_out = cli_checks.corrupt_invocation(kind, code, stdout)
    assert cli_checks.check_invocation(kind, argv, expected, bad_code, bad_out, "", rng)


@pytest.mark.parametrize("kind, params", [
    ("kappa_star", {"x": 1.0}),
    ("max_weight", {"kappa": 2.0}),
    ("interval_kappa", {"x_lo": 0.5, "x_hi": 3.0}),
    ("critical_points", {"kappa": 1.000001}),
    ("certify", {"kappa": 2.0, "x_hi": 1000.0}),
    ("theorem", {"x_max": 5.0, "kappas": [1.5, 2.0, 10.0]}),
    ("run_all", {"x_max": 5.0, "kappas": [1.5, 2.0, 10.0]}),
])
def test_task_check_rejects_corrupted_result(kind, params):
    out = worker._plain(worker.run_task(kind, params))
    assert reference.check_task(kind, params, out) == []
    assert reference.check_task(kind, params, reference.corrupt_task(kind, out))


def test_cli_op_is_a_request_cycle():
    # Two cycles; every kind takes 1 s, except the tables, which take 3 s.
    ops = [{"kind": k, "seconds": 3.0 if k.startswith("table_default") else 1.0}
           for k in wl.CLI_CYCLE * 2]
    cycle = len(wl.CLI_CYCLE) + 2 * 2.0
    assert run.cycle_times(ops) == pytest.approx([cycle] * len(ops))
    slow = [dict(op, seconds=2 * op["seconds"]) if op["kind"] == "table_default_csv" else op
            for op in ops]
    assert statistics.median(run.cycle_times(slow)) == pytest.approx(cycle + 3.0)


def test_inputs_depend_only_on_the_seed():
    def first(seed, n=20):
        gen = wl.task_decks(seed)
        return [next(gen) for _ in range(n)]

    assert first(5) == first(5)
    assert first(5) != first(6)
    draws = wl.Draws(random.Random(0))
    kappas = [draws.kappa() for _ in range(wl.Draws.DECK)]
    assert min(kappas) < 1e8 and max(kappas) > 1e280  # one draw per slice of the range


def test_tail_rule():
    assert run.tail_of(list(range(100))) == (89, 89 / 99 * 100, 100)
    assert run.tail_of([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)


def test_importtime_parse():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        50 |        250 |         scipy.special._ufuncs",
        "import time:        10 |        300 |       scipy",
        "import time:        20 |        720 |     qbound.special",
        "import time:        30 |        750 |   qbound",
    ])
    got = cli_checks.parse_importtime(stderr)
    assert got["total_s"] == pytest.approx(750e-6)
    assert got["numpy_s"] == pytest.approx(100e-6)
    assert got["scipy_special_s"] == pytest.approx(300e-6)
    assert got["qbound_self_s"] == pytest.approx(50e-6)


def test_same_seed_same_requests_and_failures():
    def failures(seed):
        rec = worker.Recorder()
        worker.task_loop(seed, 1, rec)
        return [(f["req"], f["kind"], f["input"]) for f in rec.failures], len(rec.requests)

    assert failures(4) == failures(4)


def test_op_count_comes_from_seconds_alone():
    bench = run.Bench(ROOT, 1, 25, 0)
    assert bench.op_count("select_certify") == round(25 / run.NOMINAL_OP_S["select_certify"])
    assert run.Bench(ROOT, 1, 25, 1).op_count("cli_cold") == 1
    assert run.Bench(ROOT, 1, 0.1, 0).op_count("tail_arrays") == 1
