"""Constant terms at the pole of lattice zeta functions.

The lattice sum Z(s) of a positive-definite binary form Q = (a, b, c) has a
simple pole at s = 1 with residue 2 pi / sqrt(D), D = 4ac - b^2.  Subtracting
a matching multiple of the Riemann zeta pole leaves

    g(eps) = (sqrt(D) / 4 pi) Z(1 + eps) - zeta(1 + 2 eps),

whose limit at eps = 0 equals (1/2) log(a / D) - 2 log |eta(z_Q)| where z_Q
is the root of a z^2 + b z + c = 0 in the upper half plane.  pole_gap is
that regular part at one s; kronecker_lhs takes its limit at s = 1 through
approx.pole_constant and returns it as an ApproxValue certified to its
tolerance; kronecker_rhs gives the closed-form right side for comparison.

For Q = (1, 0, 1) the lattice sum factors through Dirichlet series, giving
the scalar family h(eps) = (2/pi) zeta(1+eps) L(1+eps) - zeta(1+2 eps) whose
limit is the logarithmic cosh integral; scalar_limit_sides gives both as
one check's two sides.  The four routes to theta at z = i live here too.
"""

from __future__ import annotations

import cmath
import math

from .approx import EPS, ApproxValue, check_tol, pole_constant, terms_needed
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


def pole_gap(form: BinaryQuadraticForm, s: float, tol: float) -> ApproxValue:
    """(sqrt(D)/4 pi) Z(s) - zeta(2s - 1), each term to tol."""
    factor = math.sqrt(form.disc) / (4.0 * math.pi)
    z_val = epstein_accelerated(form, s, tol / factor)
    return factor * z_val - zeta(2.0 * s - 1.0, tol)


def kronecker_lhs(form: BinaryQuadraticForm, tol: float = 1e-8) -> ApproxValue:
    """Limit of pole_gap at s = 1, each node to tol: the finest node weighs
    about 3.44 in the limit's bound, so a smaller node share only stalls first."""
    check_tol(tol)
    return pole_constant(lambda s: pole_gap(form, s, tol)).certified(
        tol, "pole-gap extrapolation")


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

    def tail(k: int) -> float:
        return 4.0 * rho ** k / (1.0 - rho)

    k = terms_needed(tail, tol / 2.0, f"eta log series at Im z = {z.imag:g}",
                     first=2, limit=200_000)
    terms = [math.pi * z.imag / 6.0]
    terms += [-2.0 * math.log(abs(1.0 - cmath.exp(2.0 * math.pi * n * 1j * z)))
              for n in range(1, k)]
    value = math.fsum(terms)
    bound = tail(k) + 4.0 * EPS * math.fsum(abs(t) for t in terms)
    return ApproxValue(value, bound, k)


def scalar_limit_sides() -> tuple[ApproxValue, ApproxValue]:
    """(2/pi) zeta(s) L(s) - zeta(2s - 1) at s = 1, through pole_constant,
    and the logarithmic cosh integral; each node term to a fixed 3.9e-11."""
    part = 3.90625e-11

    def regular(s: float) -> ApproxValue:
        return ((2.0 / math.pi) * (zeta(s, part) * L_chi4(s, part))
                - zeta(2.0 * s - 1.0, part))

    return pole_constant(regular), integral_I(1e-12)


def target_limit_check(tol: float = 1e-8) -> VerificationRecord:
    """The record of scalar_limit_sides; tol (>= 0) sets the verdict only."""
    check_tol(tol, zero_ok=True)
    return timed_record("kronecker/scalar-limit-vs-integral", "§3", tol, scalar_limit_sides)


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
