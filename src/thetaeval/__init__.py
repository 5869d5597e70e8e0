"""Numerical verification of theta, eta, lattice-sum, and L-series identities.

Everything funnels into one closed-form target: the value of the theta
series at z = i, reachable through four independent computational routes.
Each engine returns values with explicit error bounds; the CLI assembles
named checks into machine-readable reports.

Each module's __all__ is the one declaration of its public names; the
package re-exports them all, and its __all__ is their union.
"""

from . import (approx, epstein, kronecker, modular, number_theory, qseries, quadrature, report,
               special_values, suites)
from .approx import *
from .epstein import *
from .kronecker import *
from .modular import *
from .number_theory import *
from .qseries import *
from .quadrature import *
from .report import *
from .special_values import *
from .suites import *

__version__ = "0.1.0"

__all__ = [name for module in (approx, epstein, kronecker, modular, number_theory, qseries,
                               quadrature, report, special_values, suites)
           for name in module.__all__]
__all__.append("__version__")
