"""Zeta, the mod-4 Dirichlet L-function, Euler's constant and Gamma.

Nothing here is looked up: every constant is produced by a concrete
convergent process with an error bound, certified to a tol check_tol passes.

* zeta(s) uses the tail-corrected partial sum: N summed terms, the
  integral term N^(1-s)/(s-1), the half-term -N^(-s)/2 and Bernoulli
  corrections through B8.  With N = 64 the first omitted correction is
  far below double precision for s > 1, uniformly as s -> 1+.
* L(s) and L'(1) take one Chebyshev-weighted acceleration of the alternating
  odd-denominator series, with n set from tol and error ~ (3 + sqrt 8)^-n for
  coefficients that are moments of a finite signed measure on [0, 1], as
  both of ours are; the gap to the sum of n + 8 terms is the bound.
* euler_gamma comes from H_n - log n with its asymptotic corrections.
* gamma_gauss takes the Gauss product P_n = n! n^s / (s (s+1) ... (s+n))
  at n = 16, 32, ..., 2048 to its limit at 1/n = 0 through the package's one
  extrapolation driver (approx.py), each node's rounding bound carried into
  the table, for s in (0, 1]; approx.gamma_recurrence reduces a larger s.
"""

from __future__ import annotations

import math

from .approx import (EPS, ApproxValue, check_gamma_range, check_tol, gamma_recurrence,
                     limit_at_zero, once_per_run)

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
                    (8, (-1.0 / 30.0) / 40320.0),
                    (10, (5.0 / 66.0) / 3628800.0))

_ZETA_N = 64


@once_per_run
def euler_gamma(tol: float = 1e-13) -> ApproxValue:
    """Euler's constant from H_n - log n - 1/(2n) + 1/(12 n^2) - ...

    n = 100 with corrections through n^-8 leaves a remainder near 1e-22,
    so the returned bound is dominated by summation rounding.
    """
    check_tol(tol)
    n = 100
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    value = (harmonic - math.log(n) - 1.0 / (2.0 * n)
             + 1.0 / (12.0 * n ** 2) - 1.0 / (120.0 * n ** 4)
             + 1.0 / (252.0 * n ** 6))
    bound = 1.0 / (240.0 * float(n) ** 8) + 8.0 * EPS
    return ApproxValue(value, bound, n).certified(tol, "euler_gamma")


def zeta(s: float, tol: float = 1e-13) -> ApproxValue:
    """Riemann zeta for real s > 1, stable arbitrarily close to 1."""
    if not s > 1.0:
        raise ValueError(f"need s > 1, got {s}")
    check_tol(tol)
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
    omitted = abs(pieces.pop())
    value = math.fsum(pieces)
    bound = 2.0 * omitted + 4.0 * EPS * abs(value)
    return ApproxValue(value, bound, n).certified(tol, f"zeta({s})")


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
    check_tol(tol)
    n = max(24, int(math.log(8.0 / tol) / math.log(3.0 + math.sqrt(8.0))) + 8)
    lo = _chebyshev_alternating(coefficient, n)
    hi = _chebyshev_alternating(coefficient, n + 8)
    bound = abs(hi - lo) + 8.0 * EPS * (1.0 + abs(hi))
    return ApproxValue(hi, bound, 2 * n + 8).certified(tol, what)


def L_chi4(s: float, tol: float = 1e-13) -> ApproxValue:
    """L(s) = sum over k >= 0 of (-1)^k (2k+1)^(-s), for s > 0."""
    if not s > 0.0:
        raise ValueError(f"need s > 0, got {s}")
    return _accelerated_pair(lambda k: (2.0 * k + 1.0) ** -s, tol, f"L({s})")


@once_per_run
def L_chi4_prime_at_1(tol: float = 1e-11) -> ApproxValue:
    """L'(1) = minus the alternating sum of log(2k+1) / (2k+1)."""
    return -_accelerated_pair(
        lambda k: math.log(2.0 * k + 1.0) / (2.0 * k + 1.0),
        tol, "L'(1)")


def gamma_gauss(s: float, tol: float = 1e-9) -> ApproxValue:
    """Gamma(s) as the limit of the Gauss product, extrapolated in 1/n.

    For s in (0, 1] it is the Neville value at 1/n = 0 over n = 16 2^k,
    k < 8, of P_n = n! n^s / (s (s+1) ... (s+n)), formed in log space as
    exp(E), E = s log n - log s - sum_{j <= n} log1p(s/j); the n! cancels
    against the factors j.  With u = EPS/2 and each libm call within one
    ulp (2u): a log1p term is off by at most 3u of itself and fsum adds u
    of the total, so the sum, at most s (log n + 1), is off by
    4u s (log n + 1); s log n is off by 3u s log n, log s by 2u |log s|,
    and the two subtractions by u (s log n + |log s| + |E|).  With 2u for
    exp, P_n is within P_n EPS (4 s log n + 2s + 2 |log s| + |E| + 4) of its
    exact value, the slack covering second-order terms; that bound is the
    node's error bound.  Above 1 it is approx.gamma_recurrence's exact
    (s-1)...(s-k) times the product at s - k in (0, 1], so every s costs
    4,080 summed terms.  Raises ValueError for s outside [2^-1022, 171],
    where Gamma(s), about 1/s near 0, leaves the double range.
    """
    check_gamma_range(s)
    check_tol(tol)
    if s > 1.0:
        return gamma_recurrence(gamma_gauss, s, tol, 0.0, 1.0)
    log_s = math.log(s)
    # Each node's sum is fsum's correctly rounded sum of the first n of
    # these, so taking each log1p once leaves every node's bits as they are.
    logs = [math.log1p(s / j) for j in range(1, 16 * 2 ** 7 + 1)]

    def node(inv_n: float) -> ApproxValue:
        n = round(1.0 / inv_n)
        log_n = math.log(n)
        e = s * log_n - log_s - math.fsum(logs[:n])
        p = math.exp(e)
        spread = 4.0 * s * log_n + 2.0 * s + 2.0 * abs(log_s) + abs(e) + 4.0
        return ApproxValue(p, p * EPS * spread, n)

    return limit_at_zero(node, 1.0 / 16.0, 8).certified(tol, f"gamma_gauss({s})")
