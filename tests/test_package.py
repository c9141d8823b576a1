"""The package's public surface: each name is stated once, in the __all__
of the module that defines it, and qbound re-exports exactly those."""
import importlib

import pytest

import qbound

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
    "QValue",
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
    "h",
    "interval_kappa",
    "kappa_star",
    "lambert_w",
    "lemma1_relation",
    "max_weight",
    "mills_ratio",
    "q",
    "q_ref",
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
