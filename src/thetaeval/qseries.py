"""Truncated power series with exact integer coefficients.

Everything here is exact: coefficients are unbounded Python ints and a
truncation order fixed at construction.  The two series of interest are the
square-indicator series (1 + 2q + 2q^4 + 2q^9 + ...) and the product
(1-q^2)(1+q)^2 (1-q^4)(1+q^3)^2 ..., expanded one binomial 1 +- q^k at a time,
up to the last factor that can touch a retained coefficient, on an int64
array.  A binomial at most doubles max|c|, so after an exact max M the next
63 - M.bit_length() binomials provably stay below 2**63; the array is
scanned for its max again only once that budget is spent, and turns into
Python ints (dtype=object) when the scan finds M >= 2**62.  So int64 never
wraps.  Wrapping is not acceptable although the final coefficients are 0, 1
and 2: arithmetic mod 2**64 proves a congruence, not the equality the
product check certifies.  Values reach 51 bits at order 4096; orders past
about 6000 promote.
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
    """Product over n >= 1 of (1 - q^(2n)) (1 + q^(2n-1))^2, truncated."""
    import numpy as np
    _check_order(order)
    out = np.zeros(order + 1, dtype=np.int64)
    out[0] = 1
    budget = 0
    for n in range(1, (order + 1) // 2 + 1):
        for k, e in ((2 * n - 1, 1), (2 * n - 1, 1), (2 * n, -1)):
            if k <= order:
                out, budget = _times_binomial(out, k, e, budget)
    return QSeries(tuple(out.tolist()))


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


def _times_binomial(out, k: int, e: int, budget: int = 0):
    """Times 1 + e q^k (0 < k < out.size, e = +-1), in place on the returned array.

    budget is how many binomials an int64 array is still proven to take
    without wrapping; at 0 or below the max is taken again, and the array
    promoted if that max could reach 2**63 in this step.  Returns the
    array and the budget left after this step.
    """
    if out.dtype != object and budget <= 0:
        top = max(int(out.max()), -int(out.min()))
        budget = 63 - top.bit_length()
        if budget <= 0:
            out = out.astype(object)
    # numpy buffers overlapping operands, so the step reads old values.
    if e > 0:
        out[k:] += out[: out.size - k]
    else:
        out[k:] -= out[: out.size - k]
    return out, budget - 1

