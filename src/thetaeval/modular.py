"""Theta and eta on the upper half-plane, with certified truncation tails.

Both functions are entire in their summands and decay geometrically, so
approx.terms_needed picks the truncation index up front from an explicit
tail bound; that bound plus rounding is certified to tol.  Each returns an
ApproxValue with a complex value, one bound on the modulus of its error
and, as cost, the number of series terms or product factors it took;
eta_quotient is ApproxValue arithmetic on two, at eta's tol.  Values come
from the defining series and product at Re z fmod 2 (theta) or 24 (eta).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .approx import EPS, ApproxValue, NonConvergence, check_tol, once_per_run, terms_needed

__all__ = [
    "UpperHalfPoint",
    "theta_uhp",
    "eta_uhp",
    "eta_quotient",
]


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point x + iy with y > 0."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im) and self.im > 0.0):
            raise ValueError(f"need finite re and im > 0, got {self.re}, {self.im}")


def _theta_tail(n: int, y: float) -> float:
    # Geometric bound for twice the sum of exp(-pi k^2 y) over k >= n.
    return 2.0 * math.exp(-math.pi * n * n * y) / -math.expm1(-math.pi * (2 * n + 1) * y)


def theta_uhp(z: UpperHalfPoint, tol: float = 1e-13) -> ApproxValue:
    """Sum over all integers n of exp(i pi n^2 z), truncated at a certified tail.

    The partial sum runs over |n| <= N with N the smallest index whose
    geometric tail bound drops below tol; that bound plus rounding, certified
    to tol, is the error_bound and N the cost (NonConvergence past N = 10^6).
    """
    check_tol(tol)
    what = f"theta series at Im z = {z.im:g}"
    n_max = terms_needed(lambda n: _theta_tail(n, z.im), tol, what)
    zc = complex(math.fmod(z.re, 2.0), z.im)
    res = [1.0]
    ims = [0.0]
    for n in range(1, n_max + 1):
        term = 2.0 * cmath.exp(1j * math.pi * (n * n) * zc)
        res.append(term.real)
        ims.append(term.imag)
    # Tail plus a per-term roundoff floor; fsum itself is exact.
    bound = _theta_tail(n_max + 1, z.im) + 2.0 * EPS * math.fsum(abs(t) for t in res)
    return ApproxValue(complex(math.fsum(res), math.fsum(ims)), bound,
                       n_max).certified(tol, what)


@once_per_run
def eta_uhp(z: UpperHalfPoint, tol: float = 1e-13) -> ApproxValue:
    """exp(i pi z / 12) times the product over n >= 1 of (1 - exp(2 pi i n z)).

    The product is cut once the remaining log-factors are bounded by rho
    with |value| * (exp(rho) - 1) <= tol/2; that quantity plus the rounding
    4 (n + 2) EPS |value| is the reported error_bound, and the number n of
    factors taken is the cost.  Raises NonConvergence past 10^6 factors,
    where |w| = exp(-2 pi Im z) is so near 1 that the a-priori modulus cap
    exp(|w| / (1 - |w|)) would overflow (Im z < 2.3e-4), where |value| is
    below the normal range (Im z > 2700) and where the bound misses tol.
    """
    check_tol(tol)
    y, what = z.im, f"eta product at Im z = {z.im:g}"
    absw = math.exp(-2.0 * math.pi * y)
    if absw == 1.0 or absw / (1.0 - absw) > 700.0:
        raise NonConvergence(f"{what}: exp(-2 pi Im z) is too near 1")
    # Crude a-priori modulus bound, enough to pick the cut; a log tail past
    # 709 misses any tol, so capping it there keeps expm1 finite.
    mod_cap = math.exp(-math.pi * y / 12.0) * math.exp(absw / (1.0 - absw))
    n_max = terms_needed(lambda n: mod_cap * math.expm1(min(_eta_log_tail(n, absw), 709.0)),
                         0.5 * tol, what)
    zc = complex(math.fmod(z.re, 24.0), z.im)
    prod = cmath.exp(1j * math.pi * zc / 12.0)
    for n in range(1, n_max + 1):
        prod *= 1.0 - cmath.exp(2j * math.pi * n * zc)
    if abs(prod) < sys.float_info.min:
        raise NonConvergence(f"eta product underflows at Im z = {y:g}")
    bound = abs(prod) * (math.expm1(_eta_log_tail(n_max, absw))
                         + 4.0 * (n_max + 2) * EPS)
    return ApproxValue(prod, bound, n_max).certified(tol, what)


def _eta_log_tail(n: int, absw: float) -> float:
    # Bound for the sum over k > n of |log(1 - w^k)|, |w| = absw < 1.
    head = absw ** (n + 1)
    return head / ((1.0 - absw) * (1.0 - head))


def eta_quotient(z: UpperHalfPoint, tol: float = 1e-13) -> ApproxValue:
    """eta(z/2 + 1/2)^2 / eta(z + 1), the product form of theta(z).

    Its tol is eta's: both factors are certified to it, not the quotient,
    whose bound at z = 2.1875i and tol 2.5e-12 is 3.5e-12.  The bound is
    ApproxValue's, plus 4 EPS (|q| + 1) for rounding the complex square and
    quotient.  Raises ValueError where the denominator's bound allows zero.
    """
    top = eta_uhp(UpperHalfPoint(0.5 * z.re + 0.5, 0.5 * z.im), tol)
    bottom = eta_uhp(UpperHalfPoint(z.re + 1.0, z.im), tol)
    quotient = top * top / bottom
    return quotient + ApproxValue(0.0, 4.0 * EPS * (abs(quotient.value) + 1.0))
