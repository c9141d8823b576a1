"""Seed-driven inputs for the three workloads.

Everything here is a pure function of the seed; qbound only ever sees the
generated values.  The draws cover the whole domain the north star promises:

* kappa - 1 is log-uniform over [1e-12, 1e300].  The interval's lower end,
  kappa = 1 + 1e-12, only has weight when the log scale is taken on
  kappa - 1; on kappa itself the near-degenerate end would almost never be
  drawn.
* x comes half from the bulk (|x| <= 10, uniform) and half from the tail
  (10 < |x| <= 1e8, log-uniform).

Draws are stratified (one draw per equal slice of the log range, in shuffled
order) so that every run sees the same mix of regimes whatever its seed;
only the values inside each slice change.
"""
from __future__ import annotations

import math
import random

KAPPA_M1_LOG10 = (-12.0, 300.0)
X_BULK = 10.0
X_TAIL_LOG10 = (1.0, 8.0)

ARRAY_POINTS = 1_000_000
# Functions timed on arrays in tail_arrays, in call order; True where the
# function takes kappa.  All but q and g_lower require x >= 0 and get |x|.
ARRAY_FUNCS = (
    ("q", False),
    ("mills_ratio", False),
    ("g_lower", True),
    ("r_scaled", True),
    ("f_diff", True),
    ("df_dx_identity", True),
    ("boyd_lower_q", False),
    ("chernoff_upper", False),
    ("crossing_condition", True),
    ("lemma1_relation", True),
)
SIGNED_FUNCS = ("q", "g_lower")

TASK_KINDS = ("kappa_star", "max_weight", "interval_kappa", "critical_points",
              "certify", "theorem", "run_all")
# The functions behind ROADMAP's re-anchor baseline, timed in every traced
# run: (metric name, qbound function, arguments).  The default `table` is
# timed as a cold CLI invocation (run.py).
BASELINE_CALLS = (
    ("verify_theorem", "verify_theorem", ()),
    ("run_all", "run_all", ()),
    ("kappa_star_1", "kappa_star", (1.0,)),
    ("max_weight_2", "max_weight", (2.0,)),
    ("interval_kappa", "interval_kappa", (0.5, 3.0)),
)
SMALL_GRID_COUNT = 201
SMALL_GRID_KAPPAS = 3
LEMMA2_COUNT = 2000  # the count run_all and `qbound verify` use

# cli_cold request kinds in a fixed cyclic order: every run does the same
# mix, and the two default tables come early so that every run includes them.
CLI_CYCLE = (
    "table_default_csv", "eval", "optimize_pointwise", "roots",
    "table_default_json", "eval_json", "verify_all", "optimize_weight",
    "invalid", "table_small", "optimize_interval", "eval",
)


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n uniform draws on [lo, hi], one per equal slice, in random order."""
    width = (hi - lo) / n
    vals = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(vals)
    return vals


class Draws:
    """Endless stratified streams of kappa and x values from one seed."""

    DECK = 16

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._kappas = []
        self._xs = []
        self._signed = []

    def kappa(self) -> float:
        if not self._kappas:
            self._kappas = [1.0 + 10.0 ** e
                            for e in stratified(self.rng, *KAPPA_M1_LOG10, self.DECK)]
        return self._kappas.pop()

    def x_pos(self) -> float:
        """A positive x: half of each deck from the bulk, half from the tail."""
        if not self._xs:
            half = self.DECK // 2
            bulk = [X_BULK * u for u in stratified(self.rng, 0.0, 1.0, half)]
            tail = [10.0 ** e for e in stratified(self.rng, *X_TAIL_LOG10, half)]
            xs = bulk + tail
            self.rng.shuffle(xs)
            self._xs = [x if x > 0.0 else X_BULK / self.DECK for x in xs]
        return self._xs.pop()

    def x_signed(self) -> float:
        """An x of either sign: every four draws hold one from each of the
        bulk and the tail, on each side of 0."""
        if not self._signed:
            self._signed = [(tail, sign) for tail in (False, True) for sign in (1.0, -1.0)]
            self.rng.shuffle(self._signed)
        tail, sign = self._signed.pop()
        if tail:
            return sign * 10.0 ** self.rng.uniform(*X_TAIL_LOG10)
        return sign * X_BULK * self.rng.random()


def x1_of(kappa: float) -> float:
    """x1 = sqrt(2/((kappa-1)*c)) in plain floats, for picking ranges."""
    km1 = kappa - 1.0
    c = math.pi * km1 + 2.0
    return math.sqrt(2.0 / (km1 * c)) if km1 * c < math.inf else 0.0


def kind_streams(seed: int, kinds) -> dict:
    """Per kind: its own Draws and its own generator for other parameters."""
    return {k: (Draws(random.Random(f"{seed}:{k}")), random.Random(f"{seed}:{k}:p"))
            for k in kinds}


# --- tail_arrays ----------------------------------------------------------

def array_batches(seed: int):
    """Yield (kappa, x) batches: x holds ARRAY_POINTS values, half bulk and
    half tail, with random signs."""
    import numpy as np

    rng = random.Random(seed)
    draws = Draws(rng)
    gen = np.random.default_rng(seed)
    half = ARRAY_POINTS // 2
    while True:
        kappa = draws.kappa()
        bulk = gen.uniform(-X_BULK, X_BULK, half)
        tail = 10.0 ** gen.uniform(*X_TAIL_LOG10, ARRAY_POINTS - half)
        tail *= np.where(gen.random(tail.size) < 0.5, -1.0, 1.0)
        x = np.concatenate([bulk, tail])
        gen.shuffle(x)
        yield kappa, x


# --- select_certify -------------------------------------------------------

def task_decks(seed: int):
    """Yield decks of (kind, params) tasks, each kind once, shuffled.  Every
    kind draws from its own stratified streams, so each kind sees the same
    mix of regimes whatever the seed."""
    rng = random.Random(seed)
    streams = kind_streams(seed, TASK_KINDS)
    while True:
        deck = list(TASK_KINDS)
        rng.shuffle(deck)
        yield [(kind, task_params(kind, *streams[kind])) for kind in deck]


def task_params(kind: str, draws: Draws, rng: random.Random) -> dict:
    if kind == "kappa_star":
        return {"x": draws.x_pos()}
    if kind == "interval_kappa":
        lo = draws.x_pos()
        return {"x_lo": lo, "x_hi": lo * (1.0 + 10.0 ** rng.uniform(-2.0, 1.0))}
    if kind in ("theorem", "run_all"):
        return {"x_max": draws.x_pos(),
                "kappas": [draws.kappa() for _ in range(SMALL_GRID_KAPPAS)]}
    kappa = draws.kappa()
    if kind == "certify":
        # lemma 2 is checked on [x1, x_hi]; keep the range non-empty.
        return {"kappa": kappa, "x_hi": max(1000.0, 10.0 * x1_of(kappa))}
    return {"kappa": kappa}


# --- cli_cold --------------------------------------------------------------

INVALID = (
    lambda rng: ["eval", "--x", "1", "--kappa", repr(rng.uniform(0.0, 1.0))],
    lambda rng: ["roots", "--kappa", "1"],
    lambda rng: ["table", "--x-count", "1"],
    lambda rng: ["optimize", "pointwise"],
    lambda rng: ["eval", "--x", "nan", "--kappa", "2"],
    lambda rng: ["verify", "lemma9"],
    lambda rng: ["optimize", "pointwise", "--x", repr(-rng.uniform(0.1, 10.0))],
)


def cli_requests(seed: int):
    """Yield (kind, argv, expected exit code) requests in CLI_CYCLE order.
    Every kind draws from its own streams."""
    streams = kind_streams(seed, CLI_CYCLE)
    while True:
        for kind in CLI_CYCLE:
            argv, code = cli_argv(kind, *streams[kind])
            yield kind, argv, code


def cli_argv(kind: str, draws: Draws, rng: random.Random):
    r = repr
    if kind == "eval":
        return ["eval", "--x", r(draws.x_signed()), "--kappa", r(draws.kappa())], 0
    if kind == "eval_json":
        return ["eval", "--x", r(draws.x_signed()), "--kappa", r(draws.kappa()),
                "--format", "json"], 0
    if kind == "table_default_csv":
        return ["table"], 0
    if kind == "table_default_json":
        return ["table", "--format", "json"], 0
    if kind == "table_small":
        a, b = sorted(rng.uniform(-X_BULK, X_BULK) for _ in range(2))
        return ["table", "--x-min", r(a), "--x-max", r(b), "--x-count", "41",
                "--kappa", r(draws.kappa()), "--kappa", r(draws.kappa())], 0
    if kind == "verify_all":
        return ["verify", "all"], 0
    if kind == "optimize_pointwise":
        return ["optimize", "pointwise", "--x", r(draws.x_pos())], 0
    if kind == "optimize_weight":
        return ["optimize", "weight", "--kappa", r(draws.kappa())], 0
    if kind == "optimize_interval":
        lo = draws.x_pos()
        hi = lo * (1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
        return ["optimize", "interval", "--x-lo", r(lo), "--x-hi", r(hi)], 0
    if kind == "roots":
        return ["roots", "--kappa", r(draws.kappa())], 0
    if kind == "invalid":
        return rng.choice(INVALID)(rng), 2
    raise ValueError(f"unknown request kind {kind!r}")
