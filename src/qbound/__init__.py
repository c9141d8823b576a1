"""Parametric exponential lower bound for the Gaussian Q-function.

The core inequality: for all real x and any kappa >= 1,

    Q(x) >= alpha(kappa) * exp(-kappa * x**2 / 2),

with alpha(kappa) = exp(1/c)/(2*kappa) * sqrt((kappa-1)*c/pi) and
c = pi*(kappa-1) + 2.  This package evaluates the bound family and every
function behind its proof, verifies the inequalities on grids, and selects
good kappa values.
"""

from .bounds import (
    CriticalPoints,
    KappaParam,
    alpha_coeff,
    boyd_lower,
    boyd_lower_q,
    chernoff_upper,
    critical_points,
    crossing_condition,
    df_dx_identity,
    f_diff,
    g_lower,
    lemma1_relation,
    r_scaled,
    x1_point,
    x2_point,
)
from .errors import DomainError, QBoundError, UsageError
from .optimize import OptimizationResult, interval_kappa, kappa_star, max_weight
from .special import (
    BRANCH_POINT,
    LambertBranch,
    QValue,
    h,
    lambert_w,
    mills_ratio,
    q,
    q_ref,
)
from .verify import (
    DEFAULT_KAPPAS,
    EvaluationGrid,
    VerificationReport,
    run_all,
    verify_chernoff,
    verify_derivative,
    verify_lemma1,
    verify_lemma2,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
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
