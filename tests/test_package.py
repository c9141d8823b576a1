"""The package's public surface: each name is stated once, in the __all__
of the module that defines it, and qbound re-exports exactly those; and
its functions keep the domain contract on any double x."""
import dataclasses
import importlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbound
from qbound import DomainError, LambertBranch, UsageError

PUBLIC = [
    "BRANCH_POINT",
    "CriticalPoints",
    "DEFAULT_KAPPAS",
    "DomainError",
    "EvaluationGrid",
    "KappaParam",
    "LambertBranch",
    "OptimizationResult",
    "QBoundError",
    "UsageError",
    "VerificationReport",
    "alpha_coeff",
    "boyd_lower",
    "boyd_lower_q",
    "chernoff_upper",
    "critical_points",
    "crossing_condition",
    "df_dx_identity",
    "f_diff",
    "g_lower",
    "interval_kappa",
    "kappa_star",
    "lambert_w",
    "lemma1_relation",
    "max_weight",
    "mills_ratio",
    "q",
    "r_scaled",
    "run_all",
    "verify_chernoff",
    "verify_derivative",
    "verify_lemma1",
    "verify_lemma2",
    "verify_theorem",
    "x1_point",
    "x2_point",
]
MODULES = ("bounds", "errors", "optimize", "special", "verify")


def test_package_names():
    assert qbound.__all__ == PUBLIC
    namespace = {}
    exec("from qbound import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve_to_their_own_objects(name):
    mod = importlib.import_module(f"qbound.{name}")
    assert mod.__all__, name
    for n in mod.__all__:
        obj = getattr(mod, n)
        assert getattr(qbound, n) is obj, n
        if callable(obj):  # defined here, not imported from a sibling
            assert obj.__module__ == mod.__name__, n


def test_each_name_has_one_module():
    owners = [n for m in MODULES for n in importlib.import_module(f"qbound.{m}").__all__]
    assert sorted(owners) == PUBLIC


def test_console_script_runs_cli_run():
    # the installed `qbound` is cli.run, the entry point that
    # tests/test_cli.py::TestRun runs as `python -m qbound.cli`; read as
    # text, since Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'qbound = "qbound.cli:run"'


# x by sign and binary exponent over the whole double range, with the ends
XS = st.one_of(
    st.builds(lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from((-1.0, 1.0)),
              st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
              st.integers(min_value=-1074, max_value=1023)),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max)),
)
# kappa 1, its next double and 1 + 10**U(-17, 6), below x2's lost digits
KAPPAS = st.one_of(
    st.sampled_from((1.0, 1.0 + 2.0**-52)),
    st.floats(min_value=-17.0, max_value=6.0).map(lambda e: 1.0 + 10.0**e),
)
# every kernel behind special.elementwise, and whether it takes a kappa
KERNELS = (
    (qbound.q, False), (qbound.mills_ratio, False),
    (qbound.g_lower, True), (qbound.r_scaled, True), (qbound.f_diff, True),
    (qbound.bounds.rel_gap, True), (qbound.crossing_condition, True),
    (qbound.lemma1_relation, True), (qbound.df_dx_identity, True),
    (qbound.boyd_lower, False), (qbound.chernoff_upper, False), (qbound.boyd_lower_q, False),
)


def _floats(value) -> list:
    """Every float of a result: of a float, an array, a tuple or a
    dataclass's fields."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [f for v in value for f in _floats(v)]
    if isinstance(value, (float, np.ndarray)):
        return np.ravel(value).tolist()
    return []


class TestDomainContract:
    """Every kernel, kappa function, optimizer and lemma suite, on any double
    x and any kappa up to 1 + 1e6, returns a finite result or raises
    DomainError or UsageError, and warns nothing; a lemma suite passes."""

    @given(st.lists(XS, min_size=3, max_size=3), KAPPAS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_finite_or_a_domain_or_usage_error(self, xs, kappa):
        x, arr = xs[0], np.array(xs)
        calls = [(fn, (v, kappa) if takes_kappa else (v,))
                 for fn, takes_kappa in KERNELS for v in (x, arr)]
        calls += [(fn, (kappa,)) for fn in (
            qbound.alpha_coeff, qbound.x1_point, qbound.x2_point, qbound.critical_points,
            qbound.max_weight, qbound.verify_lemma1, qbound.verify_lemma2)]
        calls += [(qbound.kappa_star, (x,)), (qbound.interval_kappa, tuple(sorted(xs[:2])))]
        calls += [(qbound.lambert_w, (x, branch)) for branch in LambertBranch]
        for fn, args in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = fn(*args)
                except (DomainError, UsageError):
                    continue
            assert all(map(math.isfinite, _floats(result))), (fn.__name__, args, result)
            if fn.__name__.startswith("verify_"):
                assert result.passed, (fn.__name__, args, result)
