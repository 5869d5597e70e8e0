"""Numerical verification of theta, eta, lattice-sum, and L-series identities.

Everything funnels into one closed-form target: the value of the theta
series at z = i, reachable through four independent computational routes.
Each engine returns values with explicit error bounds; the CLI assembles
named checks into machine-readable reports.
"""

from .approx import ApproxValue, NonConvergence
from .epstein import (
    BinaryQuadraticForm,
    epstein_accelerated,
    epstein_direct,
    upper_incomplete_gamma,
)
from .kronecker import (
    kronecker_lhs,
    kronecker_rhs,
    l1_series,
    target_limit_check,
    theta_at_i_assembly,
)
from .modular import (
    UpperHalfPoint,
    eta_quotient,
    eta_uhp,
    theta_uhp,
)
from .number_theory import chi4, r_bruteforce, r_bruteforce_table, r_divisor, r_divisor_table
from .qseries import QSeries, qs_mul, r_from_theta_squared, theta_qseries, triple_product_qseries
from .quadrature import (
    f_form,
    f_form_derivative_at_1,
    gamma_integral,
    gammaL_integral,
    integral_I,
)
from .report import VerificationRecord, emit_report
from .special_values import (
    L_chi4,
    L_chi4_prime_at_1,
    euler_gamma,
    gamma_gauss,
    zeta,
)
from .suites import DEFAULT_FORMS, SUITE_NAMES, SUITES, RunConfig, run_suites

__version__ = "0.1.0"

__all__ = [
    "ApproxValue",
    "NonConvergence",
    "BinaryQuadraticForm",
    "epstein_accelerated",
    "epstein_direct",
    "upper_incomplete_gamma",
    "kronecker_lhs",
    "kronecker_rhs",
    "l1_series",
    "target_limit_check",
    "theta_at_i_assembly",
    "UpperHalfPoint",
    "eta_quotient",
    "eta_uhp",
    "theta_uhp",
    "chi4",
    "r_bruteforce",
    "r_bruteforce_table",
    "r_divisor",
    "r_divisor_table",
    "QSeries",
    "qs_mul",
    "r_from_theta_squared",
    "theta_qseries",
    "triple_product_qseries",
    "f_form",
    "f_form_derivative_at_1",
    "gamma_integral",
    "gammaL_integral",
    "integral_I",
    "DEFAULT_FORMS",
    "SUITE_NAMES",
    "RunConfig",
    "VerificationRecord",
    "emit_report",
    "L_chi4",
    "L_chi4_prime_at_1",
    "euler_gamma",
    "gamma_gauss",
    "zeta",
    "SUITES",
    "run_suites",
    "__version__",
]
