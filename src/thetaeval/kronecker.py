"""Constant terms at the pole of lattice zeta functions.

The lattice sum Z(s) of a positive-definite binary form Q = (a, b, c) has a
simple pole at s = 1 with residue 2 pi / sqrt(D), D = 4ac - b^2.  Subtracting
a matching multiple of the Riemann zeta pole leaves

    g(eps) = (sqrt(D) / 4 pi) Z(1 + eps) - zeta(1 + 2 eps),

whose limit at eps = 0 equals (1/2) log(a / D) - 2 log |eta(z_Q)| where z_Q
is the root of a z^2 + b z + c = 0 in the upper half plane.  kronecker_lhs
extracts the limit numerically by polynomial extrapolation in eps, through
the driver in approx.py, and returns it as an ApproxValue certified to its
tolerance; kronecker_rhs gives the closed-form right side for comparison.

For Q = (1, 0, 1) the lattice sum factors through Dirichlet series, giving
the scalar family h(eps) = (2/pi) zeta(1+eps) L(1+eps) - zeta(1+2 eps) whose
limit is the logarithmic cosh integral; that cross-check and the four-route
assembly of the theta value at z = i live here too.
"""

from __future__ import annotations

import cmath
import math

from .approx import EPS, ApproxValue, NonConvergence, _limit_at_zero, check_tol
from .epstein import BinaryQuadraticForm, epstein_accelerated
from .modular import UpperHalfPoint, eta_uhp, theta_uhp
from .quadrature import gamma_integral, integral_I
from .report import VerificationRecord, timed_record
from .special_values import L_chi4, zeta

__all__ = [
    "kronecker_lhs",
    "kronecker_rhs",
    "l1_series",
    "target_limit_check",
    "theta_at_i_assembly",
]


def kronecker_lhs(form: BinaryQuadraticForm, tol: float = 1e-8) -> ApproxValue:
    """Limit of (sqrt(D)/4 pi) Z(1+eps) - zeta(1+2 eps) as eps drops to 0.

    The nodes are eps = 0.1 2^-k, k < 8, each to tol / 64.
    """
    check_tol(tol)
    node_tol = tol / 64.0
    factor = math.sqrt(form.disc) / (4.0 * math.pi)

    def node(eps: float) -> ApproxValue:
        s = 1.0 + eps
        z_val = epstein_accelerated(form, s, node_tol / (2.0 * factor))
        # 2s - 1, not 1 + 2 eps: the two round differently.
        return factor * z_val - zeta(2.0 * s - 1.0, node_tol / 2.0)

    return _limit_at_zero(node, 0.1, 8).certified(tol, "pole-gap extrapolation")


def kronecker_rhs(form: BinaryQuadraticForm, tol: float = 1e-11) -> ApproxValue:
    """(1/2) log(a / D) - 2 log |eta(z_Q)|, evaluated from the eta product."""
    z = form.z_point()
    eta = eta_uhp(z, tol / 8.0).magnitude()
    lead = 0.5 * math.log(form.a / form.disc)
    return ApproxValue(lead, 4.0 * EPS * (1.0 + abs(lead)), 0) - 2.0 * eta.log()


def l1_series(form: BinaryQuadraticForm, tol: float = 1e-11) -> ApproxValue:
    """pi y_Q / 6 - sum_k log|1 - exp(2 pi i k z_Q)|^2, equal to -log|eta(z_Q)|^2."""
    check_tol(tol)
    z = form.z_point().as_complex()
    rho = math.exp(-2.0 * math.pi * z.imag)
    terms = [math.pi * z.imag / 6.0]
    k = 0
    while True:
        k += 1
        tail = 4.0 * rho ** (k) / (1.0 - rho)
        if tail <= tol / 2.0 and k > 1:
            break
        if k > 200_000:
            raise NonConvergence("eta log series stalled; point too close to the real line")
        w = 1.0 - cmath.exp(2.0 * math.pi * k * 1j * z)
        terms.append(-2.0 * math.log(abs(w)))
    value = math.fsum(terms)
    bound = tail + 4.0 * EPS * math.fsum(abs(t) for t in terms)
    return ApproxValue(value, bound, k)


def target_limit_check(tol: float = 1e-8) -> VerificationRecord:
    """Extrapolated (2/pi) zeta(s) L(s) - zeta(2s - 1) at s = 1 versus the
    logarithmic cosh integral.

    tol (>= 0) is the record's tolerance only; the nodes are always
    evaluated to the same fixed tolerance.
    """
    check_tol(tol, zero_ok=True)
    part = 1e-8 / 64.0 / 4.0

    def node(eps: float) -> ApproxValue:
        s = 1.0 + eps
        return ((2.0 / math.pi) * (zeta(s, part) * L_chi4(s, part))
                - zeta(2.0 * s - 1.0, part))

    def check():
        return _limit_at_zero(node, 0.1, 8), integral_I(1e-12)

    return timed_record("kronecker/scalar-limit-vs-integral", "§3", tol, check)


def theta_at_i_assembly() -> tuple[ApproxValue, ...]:
    """Four routes to the theta value at z = i.

    Routes: the theta series itself; sqrt(2) |eta(i)|; the gamma-quotient
    form (2 pi)^(-1/4) sqrt(Gamma(1/4) / Gamma(3/4)); and the closed form
    Gamma(1/4) / (pi^(3/4) sqrt(2)).
    """
    at_i = UpperHalfPoint(0.0, 1.0)
    g14 = gamma_integral(0.25, 1e-13)
    g34 = gamma_integral(0.75, 1e-13)
    return (
        theta_uhp(at_i, 1e-13).magnitude(),
        math.sqrt(2.0) * eta_uhp(at_i, 1e-13).magnitude(),
        (2.0 * math.pi) ** -0.25 * (g14 / g34).sqrt(),
        (1.0 / (math.pi ** 0.75 * math.sqrt(2.0))) * g14,
    )
