"""Truncated power series with exact integer coefficients.

Everything here is exact: coefficients are unbounded Python ints and a
truncation order fixed at construction.  The two series of interest are the
square-indicator series (1 + 2q + 2q^4 + 2q^9 + ...) and the product
(1-q^2)(1+q)^2 (1-q^4)(1+q^3)^2 ..., whose coefficients come from its
logarithmic derivative, read off the factors alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .number_theory import _check_order

__all__ = ["QSeries", "qs_mul", "r_from_theta_squared", "theta_qseries", "triple_product_qseries"]


@dataclass(frozen=True)
class QSeries:
    """Coefficients c[0..order] of a series truncated after q**order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("coefficients must be exact integers")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def __mul__(self, other: "QSeries") -> "QSeries":
        return qs_mul(self, other)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Exact Cauchy product truncated to min(a.order, b.order); skips zeros."""
    order = min(a.order, b.order)
    nonzero_b = [(j, c) for j, c in enumerate(b.coeffs[: order + 1]) if c]
    out = [0] * (order + 1)
    for i, ai in enumerate(a.coeffs[: order + 1]):
        if ai:
            for j, bj in nonzero_b:
                if i + j > order:
                    break
                out[i + j] += ai * bj
    return QSeries(tuple(out))


def theta_qseries(order: int) -> QSeries:
    """Sum over all integers n of q**(n*n), truncated: 2 at positive squares."""
    _check_order(order)
    out = [0] * (order + 1)
    out[0] = 1
    m = 1
    while m * m <= order:
        out[m * m] = 2
        m += 1
    return QSeries(tuple(out))


def triple_product_qseries(order: int) -> QSeries:
    """Product over n >= 1 of (1 - q^(2n)) (1 + q^(2n-1))^2, truncated.

    With P the product, q P'/P = sum c_k q^k, where a factor 1 - q^m (m even)
    puts -m at every multiple of m and (1 + q^m)^2 (m odd) puts +2m, -2m,
    +2m, ... at m, 2m, 3m, ...  Then n p_n = sum_{k=1..n} c_k p_(n-k), an
    exact division since P has integer coefficients.  Each nonzero p_n
    is added, times c, into the running sums of every later n at once.
    """
    _check_order(order)
    c = [0] * (order + 1)
    for m in range(1, order + 1):
        if m % 2:
            for k in range(m, order + 1, 2 * m):
                c[k] += 2 * m
            for k in range(2 * m, order + 1, 2 * m):
                c[k] -= 2 * m
        else:
            for k in range(m, order + 1, m):
                c[k] -= m
    # p[n] holds the running sum for n until step n divides it into p_n.
    p = c[:]
    p[0] = 1
    for n in range(1, order + 1):
        p[n] = pn = p[n] // n
        if pn:
            p[n + 1:] = [s + pn * ck for s, ck in zip(p[n + 1:], c[1:])]
    return QSeries(tuple(p))


def r_from_theta_squared(n: int, order: int) -> int:
    """Representation count r(n): coefficient of q**n in the squared series.

    Only that coefficient is formed, as the sum of theta_j theta_(n-j) over
    the nonzero theta_j, j <= n.
    """
    _check_order(order)
    if not 0 <= n <= order:
        raise ValueError(f"need 0 <= n <= order, got n={n}, order={order}")
    theta = theta_qseries(n).coeffs
    return sum(c * theta[n - j] for j, c in enumerate(theta) if c)
