"""Parametric exponential lower bound for the Gaussian Q-function.

The core inequality: for all real x and any kappa >= 1,

    Q(x) >= alpha(kappa) * exp(-kappa * x**2 / 2),

with alpha(kappa) = exp(1/c)/(2*kappa) * sqrt((kappa-1)*c/pi) and
c = pi*(kappa-1) + 2.  This package evaluates the bound family and every
function behind its proof, verifies the inequalities on grids, and selects
good kappa values.  Its public names are those of its modules' __all__.
"""

from . import bounds, errors, optimize, special, verify
from .bounds import *
from .errors import *
from .optimize import *
from .special import *
from .verify import *

__version__ = "0.1.0"

__all__ = sorted(
    bounds.__all__ + errors.__all__ + optimize.__all__ + special.__all__ + verify.__all__
)
