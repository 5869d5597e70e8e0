"""Constant terms at the pole of lattice zeta functions.

The lattice sum Z(s) of a positive-definite binary form Q = (a, b, c) has a
simple pole at s = 1 with residue 2 pi / sqrt(D), D = 4ac - b^2.  Subtracting
a matching multiple of the Riemann zeta pole leaves

    g(eps) = (sqrt(D) / 4 pi) Z(1 + eps) - zeta(1 + 2 eps),

whose limit at eps = 0 equals (1/2) log(a / D) - 2 log |eta(z_Q)| where z_Q
is the root of a z^2 + b z + c = 0 in the upper half plane.  pole_gap is
that regular part at one s, given a route to Z.  kronecker_lhs takes its
limit at s = 1 itself: it expands Gamma(s) Z(s), split as in
epstein_accelerated, about the pole and sums the constant term over one
level set, certified to its tolerance.  kronecker_rhs gives the closed-form
right side; its tol is eta's.

For Q = (1, 0, 1) the route Z(s) = 4 zeta(s) L(s) makes g the scalar family
h(eps) = (2/pi) zeta(1+eps) L(1+eps) - zeta(1+2 eps); scalar_limit_sides
takes pole_gap's limit on it through approx.pole_constant, certified to
1e-8, next to the log cosh integral it equals.  The four routes to theta(i)
live here too.
"""

from __future__ import annotations

import cmath
import math

from .approx import EPS, ApproxValue, NonConvergence, check_tol, pole_constant, terms_needed
from .epstein import BinaryQuadraticForm, _split_sum
from .modular import UpperHalfPoint, eta_uhp, theta_uhp
from .quadrature import gamma_integral, integral_I
from .report import VerificationRecord, timed_record
from .special_values import L_chi4, euler_gamma, zeta

__all__ = [
    "kronecker_lhs",
    "kronecker_rhs",
    "l1_series",
    "target_limit_check",
    "theta_at_i_assembly",
]


def pole_gap(form: BinaryQuadraticForm, s: float, tol: float, lattice_sum) -> ApproxValue:
    """(sqrt(D)/4 pi) Z(s) - zeta(2s - 1), each term to tol; Z is lattice_sum(form, s, tol)."""
    factor = math.sqrt(form.disc) / (4.0 * math.pi)
    z_val = lattice_sum(form, s, tol / factor)
    return factor * z_val - zeta(2.0 * s - 1.0, tol)


def kronecker_lhs(form: BinaryQuadraticForm, tol: float = 1e-8) -> ApproxValue:
    """The limit of pole_gap at s = 1, from one level set at s = 1 itself.

    With lambda = 2 pi / sqrt D, epstein_accelerated's split reads
    Gamma(s) Z(s) = S(s) + lambda^s / (s-1) - lambda^s / s, where S, the
    lattice part _split_sum takes, is entire in s.  About s = 1,
    lambda^s / (s-1) = lambda / (s-1) + lambda log lambda + O(s-1),
    lambda^s / s = lambda + O(s-1) and 1 / Gamma(s) = 1 + gamma (s-1)
    + O((s-1)^2), so

        Z(s) = lambda / (s-1) + S(1) + lambda (log lambda - 1 + gamma) + O(s-1),

    and with sqrt(D) / (4 pi) = 1 / (2 lambda) and zeta(2s-1) =
    1 / (2 (s-1)) + gamma + O(s-1) the poles cancel:

        limit = S(1) / (2 lambda) + (log lambda - 1 - gamma) / 2.

    S(1) / (2 lambda) is the sum over pair representatives v of
    e^(-x)/x + E1(x), x = lambda Q(v): the primal side at order 1 with
    weight 1/Q, the dual side at order 0 with weight lambda.  Its level
    keeps both tails within EPS lambda / 32, far below S(1)'s own 8 EPS
    |S(1)| rounding allowance (its terms are positive).

    The bound adds gamma's and what _split_sum's bound leaves out.  lambda
    is within 1.2 EPS of 2 pi / sqrt D; S(1) is the split at that rounded
    point, so the dual side's weight and arguments, exactly
    (2 pi / sqrt D)^2 Q / lambda, are off by up to 2.4 EPS, plus EPS/2 for
    the product lambda Q on both sides.  The primal kernel takes exp of a
    rounded -x + log x, off by up to 1.2 EPS x.  A relative error e in x
    moves E1(x) and e^(-x) by e e^(-x), and the sum over v != 0 of e^(-x)
    is at most 1 + sqrt(y) + 1/sqrt(y), y = Im z_Q (a Gaussian sum along
    each row, then over the rows), so these add at most
    EPS (3 (1 + sqrt(y) + 1/sqrt(y)) + 2 |lead|), lead = S(1) / (2 lambda).
    The division by 2 lambda, log lambda, the subtractions and the
    additions add at most EPS (3 |lead| + 2 |log lambda| + 3).  The
    rounding of Q(v) itself, as in both lattice engines, is not counted.
    """
    check_tol(tol)
    lam = form.lam
    lead = _split_sum(form, 1.0, EPS * lam / 32.0) / (2.0 * lam)
    log_lam = math.log(lam)
    root = math.sqrt(form.z_point().im)
    rounding = EPS * (5.0 * abs(lead.value) + 2.0 * abs(log_lam) + 6.0
                      + 3.0 * (root + 1.0 / root))
    limit = lead + 0.5 * (log_lam - 1.0) - 0.5 * euler_gamma(1e-13) + ApproxValue(0.0, rounding)
    return limit.certified(tol, "Kronecker limit at s = 1")


def kronecker_rhs(form: BinaryQuadraticForm, tol: float = 1e-11) -> ApproxValue:
    """(1/2) log(a / D) - 2 log |eta(z_Q)|; its tol is eta's, which certifies to it.
    Certifying the sum would stall form 1,0,1e-6 at 1e-13: bound 5.5e-11, allowance 5.2e-11."""
    lead = 0.5 * math.log(form.a / form.disc)
    return ApproxValue(lead, 4.0 * EPS * (1.0 + abs(lead)), 0) + _minus_two_log_eta(form, tol)


def _minus_two_log_eta(form: BinaryQuadraticForm, tol: float) -> ApproxValue:
    """-2 log |eta(z_Q)| from the eta product asked for tol: both Kronecker checks' eta side."""
    return -2.0 * eta_uhp(form.z_point(), tol).magnitude().log()


def l1_series(form: BinaryQuadraticForm, tol: float = 1e-11) -> ApproxValue:
    """pi y_Q / 6 - sum_k log|1 - exp(2 pi i k z_Q)|^2 = -log|eta(z_Q)|^2, Re z_Q fmod 1."""
    check_tol(tol)
    z_q = form.z_point()
    z = complex(math.fmod(z_q.re, 1.0), z_q.im)
    rho = math.exp(-2.0 * math.pi * z.imag)
    if rho == 1.0:
        raise NonConvergence(f"eta log series at Im z = {z.imag:g}: exp(-2 pi Im z) rounds to 1")

    def tail(k: int) -> float:
        return 4.0 * rho ** k / (1.0 - rho)

    k = terms_needed(tail, tol / 2.0, f"eta log series at Im z = {z.imag:g}",
                     first=2, limit=200_000)
    terms = [math.pi * z.imag / 6.0]
    terms += [-2.0 * math.log(abs(1.0 - cmath.exp(2.0 * math.pi * n * 1j * z)))
              for n in range(1, k)]
    value = math.fsum(terms)
    bound = tail(k) + 4.0 * EPS * math.fsum(abs(t) for t in terms)
    return ApproxValue(value, bound, k).certified(tol, f"eta log series at Im z = {z.imag:g}")


def scalar_limit_sides() -> tuple[ApproxValue, ApproxValue]:
    """pole_gap's limit at s = 1 for Q = (1, 0, 1) with Z(s) = 4 zeta(s) L(s),
    certified to 1e-8 as in kronecker_lhs, and the logarithmic cosh integral."""

    def dirichlet(_form: BinaryQuadraticForm, s: float, tol: float) -> ApproxValue:
        return 4.0 * (zeta(s, tol) * L_chi4(s, tol))

    unit = BinaryQuadraticForm(1.0, 0.0, 1.0)
    limit = pole_constant(lambda s: pole_gap(unit, s, 1e-8, dirichlet))
    return limit.certified(1e-8, "scalar pole limit"), integral_I(1e-12)


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
