"""Zeta, the mod-4 Dirichlet L-function, Euler's constant and Gamma.

Nothing here is looked up: every constant is produced by a concrete
convergent process with an error bound.

* zeta(s) uses the tail-corrected partial sum: N summed terms, the
  integral term N^(1-s)/(s-1), the half-term -N^(-s)/2 and Bernoulli
  corrections through B8.  With N = 64 the first omitted correction is
  far below double precision for s > 1, uniformly as s -> 1+.
* L(s) and L'(1) sum the alternating odd-denominator series through a
  Chebyshev-weighted acceleration with geometric convergence rate
  (3 + sqrt 8)^-n, valid for coefficient sequences that are moments of a
  finite signed measure on [0, 1]; both of ours are.
* euler_gamma comes from H_n - log n with its asymptotic corrections.
* gamma_gauss evaluates the product limit n! n^s / (s (s+1) ... (s+n)),
  whose defect is O(1/n), and removes that defect with one Richardson
  step; the coarser pair of the three computed levels feeds the bound.
"""

from __future__ import annotations

import math

from .approx import EPS, ApproxValue, NonConvergence

__all__ = [
    "euler_gamma",
    "zeta",
    "L_chi4",
    "L_chi4_prime_at_1",
    "gamma_gauss",
]

# (2k, B_{2k} / (2k)!) for the tail corrections, then the first omitted pair.
_BERNOULLI_TERMS = ((2, (1.0 / 6.0) / 2.0),
                    (4, (-1.0 / 30.0) / 24.0),
                    (6, (1.0 / 42.0) / 720.0),
                    (8, (-1.0 / 30.0) / 40320.0))
_BERNOULLI_NEXT = (10, (5.0 / 66.0) / 3628800.0)

_ZETA_N = 64


def euler_gamma(tol: float = 1e-13) -> ApproxValue:
    """Euler's constant from H_n - log n - 1/(2n) + 1/(12 n^2) - ...

    n = 100 with corrections through n^-8 leaves a remainder near 1e-22,
    so the returned bound is dominated by summation rounding.
    """
    n = 100
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    value = (harmonic - math.log(n) - 1.0 / (2.0 * n)
             + 1.0 / (12.0 * n ** 2) - 1.0 / (120.0 * n ** 4)
             + 1.0 / (252.0 * n ** 6))
    bound = 1.0 / (240.0 * float(n) ** 8) + 8.0 * EPS
    if bound > tol:
        raise NonConvergence("euler_gamma cannot certify this tolerance",
                             value=value, error_bound=bound, cost=n)
    return ApproxValue(value, bound, n)


def zeta(s: float, tol: float = 1e-13) -> ApproxValue:
    """Riemann zeta for real s > 1, stable arbitrarily close to 1."""
    if not s > 1.0:
        raise ValueError(f"need s > 1, got {s}")
    n = _ZETA_N
    pieces = [float(k) ** -s for k in range(1, n + 1)]
    pieces.append(float(n) ** (1.0 - s) / (s - 1.0))
    pieces.append(-0.5 * float(n) ** -s)
    poch = 1.0
    j = 0
    for two_k, coeff in _BERNOULLI_TERMS:
        while j < two_k - 1:
            poch *= s + j
            j += 1
        pieces.append(coeff * poch * float(n) ** (-s - two_k + 1.0))
    value = math.fsum(pieces)
    while j < _BERNOULLI_NEXT[0] - 1:
        poch *= s + j
        j += 1
    omitted = abs(_BERNOULLI_NEXT[1] * poch * float(n) ** (-s - _BERNOULLI_NEXT[0] + 1.0))
    bound = 2.0 * omitted + 4.0 * EPS * abs(value)
    if bound > tol:
        raise NonConvergence(f"zeta({s}) cannot certify tol={tol:g}",
                             value=value, error_bound=bound, cost=n)
    return ApproxValue(value, bound, n)


def _chebyshev_alternating(coefficient, n: int) -> float:
    # Accelerated sum over k >= 0 of (-1)^k coefficient(k): the partial sums
    # are combined with weights built from the shifted Chebyshev polynomial,
    # giving error ~ (3 + sqrt 8)^-n when the coefficients are moments of a
    # finite signed measure on [0, 1].
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    terms = []
    for k in range(n):
        c = b - c
        terms.append(c * coefficient(k))
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return math.fsum(terms) / d


def _accelerated_pair(coefficient, tol: float, what: str) -> ApproxValue:
    n = max(24, int(math.log(8.0 / tol) / math.log(3.0 + math.sqrt(8.0))) + 8)
    for _ in range(3):
        lo = _chebyshev_alternating(coefficient, n)
        hi = _chebyshev_alternating(coefficient, n + 8)
        bound = abs(hi - lo) + 8.0 * EPS * (1.0 + abs(hi))
        if bound <= tol:
            return ApproxValue(hi, bound, 2 * n + 8)
        n *= 2
    raise NonConvergence(f"{what} stalled above tol={tol:g}",
                         value=hi, error_bound=bound, cost=2 * n + 8)


def L_chi4(s: float, tol: float = 1e-13) -> ApproxValue:
    """L(s) = sum over k >= 0 of (-1)^k (2k+1)^(-s), for s > 0."""
    if not s > 0.0:
        raise ValueError(f"need s > 0, got {s}")
    return _accelerated_pair(lambda k: (2.0 * k + 1.0) ** -s, tol, f"L({s})")


def L_chi4_prime_at_1(tol: float = 1e-11) -> ApproxValue:
    """L'(1) = minus the alternating sum of log(2k+1) / (2k+1)."""
    inner = _accelerated_pair(
        lambda k: math.log(2.0 * k + 1.0) / (2.0 * k + 1.0) if k else 0.0,
        tol, "L'(1)")
    return ApproxValue(-inner.value, inner.error_bound, inner.cost)


def _gauss_product(s: float, n: int) -> float:
    # n^s / (s * product over j <= n of (1 + s/j)), in log space; the n!
    # in the numerator cancels against the denominator factors j.
    acc = math.fsum(math.log1p(s / j) for j in range(1, n + 1))
    return math.exp(s * math.log(n) - math.log(s) - acc)


def gamma_gauss(s: float, tol: float = 1e-9) -> ApproxValue:
    """Gamma(s) as the limit of the Gauss product, Richardson corrected.

    P_n = n! n^s / (s (s+1) ... (s+n)) approaches Gamma(s) with defect
    s(s+1)/(2n) + O(1/n^2); 2 P_{2n} - P_n removes the 1/n term.  The
    value is the step applied at (2n, 4n); the (n, 2n) step provides the
    error estimate.
    """
    if not s > 0.0:
        raise ValueError(f"need s > 0, got {s}")
    n = 50_000
    best = None
    for _ in range(3):
        p1 = _gauss_product(s, n)
        p2 = _gauss_product(s, 2 * n)
        p4 = _gauss_product(s, 4 * n)
        coarse = 2.0 * p2 - p1
        fine = 2.0 * p4 - p2
        bound = abs(fine - coarse) + 16.0 * EPS * abs(fine)
        best = ApproxValue(fine, bound, 7 * n)
        if bound <= tol:
            return best
        n *= 4
    raise NonConvergence(f"gamma_gauss({s}) stalled above tol={tol:g}",
                         value=best.value, error_bound=best.error_bound,
                         cost=best.cost)
