"""Truncated power series with exact integer coefficients.

Everything here is exact: coefficients are unbounded Python ints and a
truncation order fixed at construction.  The two series of interest are the
square-indicator series (1 + 2q + 2q^4 + 2q^9 + ...) and the product
(1-q^2)(1+q)^2 (1-q^4)(1+q^3)^2 ..., whose coefficients come from its
logarithmic derivative, read off the factors alone.

The product's logarithmic derivative takes sigma of the odd part from the
odd-divisor sieve in number_theory, O(N log N), and spreads it to the even k
by one slice per power of two.  Its sqrt(N) nonzero coefficients past p_0 are
scattered over the 64-bit lanes of one int, the running sums' only store
(Kronecker substitution), by one big-int add or subtract each of one held
multiple of the packed c, and the zeros between them are skipped a window of
lanes at a time, off the highest set bit of one XOR: about 2.4 ms at
N = 4096 (0.6 ms of it the sieve) and 0.17 ms at N = 256 on a 2-vCPU x86-64
host, against 2.8 and 0.18 ms with a multiply in every scatter.  qs_mul
likewise visits only nonzero coefficients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul

from .approx import NonConvergence, once_per_run
from .number_theory import _check_order, _odd_divisor_sums

__all__ = ["QSeries", "qs_mul", "r_from_theta_squared", "theta_qseries", "triple_product_qseries"]

_BLOCK = 256  # lanes of the running sums read at once
_WORDS = struct.Struct(f">{_BLOCK}Q")  # one block of lanes as big-endian words


@dataclass(frozen=True)
class QSeries:
    """Coefficients c[0..order] of a series truncated after q**order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        if not all(issubclass(t, int) and t is not bool for t in set(map(type, self.coeffs))):
            raise TypeError("coefficients must be exact integers")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        return qs_mul(self, other)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Exact Cauchy product truncated to min(a.order, b.order); skips zeros."""
    order = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    nonzero_b = [(j, bc[j]) for j in compress(range(order + 1), bc)]
    out = [0] * (order + 1)
    for i in compress(range(order + 1), ac):
        ai = ac[i]
        for j, bj in nonzero_b:
            if i + j > order:
                break
            out[i + j] += ai * bj
    return QSeries(tuple(out))


@once_per_run
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
    exact division since P has integer coefficients.
    """
    _check_order(order)
    return QSeries(tuple(_solve(_log_derivative(order))))


def _log_derivative(order: int) -> list[int]:
    """c_0..c_N of q P'/P (c_0 = 0), from sigma of the odd part.

    Write k = 2^a o with o odd.  An odd factor m | k puts +2m at k when k
    is odd and -2m when k is even (k/m is then even); the even factors
    2^b d (1 <= b <= a, d | o) put -(2^(a+1) - 2) sigma(o) together.  So
    c_o = 2 sigma(o), sieved by _odd_divisor_sums with weight 2d, and
    c_k = -2^a c_o at even k, by one slice per power of two 2^a <= N.
    """
    c = _odd_divisor_sums(order, range(2, 2 * order + 2, 4))
    power = 2
    while power <= order:
        c[power::2 * power] = map(mul, c[1:order // power + 1:2], repeat(-power))
        power *= 2
    return c


def _solve(c: list[int]) -> list[int]:
    """p_0..p_N with p_0 = 1 and n p_n = sum_{k=1..n} c_k p_(n-k).

    Each nonzero p_n adds p_n c_(m-n) to the running sum of every later m.
    The sums sit in one int R, lane t (64 bits) for m = N - t, and C holds
    c_k + M >= 0 in lane N - k (M = max |c|), so a scatter is one big-int
    step, R += p_n (C >> 64 n).  The lane of m holds its running sum plus the
    offset 2^63 + M T, T the sum of the p_k added so far, and lies within
    2 S M of 2^63, S the sum of their |p_k|: while 2 S M < 2^63 no carry
    crosses a lane and its bytes are exact.  That bound is checked before C
    is packed and after each nonzero p_n, and raises NonConvergence when it
    fails; the product's own c reaches 2^32.7 at order 2^19.  The scatter
    multiplies nothing: one multiple k C is held, rebuilt only when
    k = |p_n| changes (exactly, as (k_old C) // k_old * k), and p_n adds or
    subtracts (k C) >> 64 n.  The guard makes 2 k M < 2^63, so each lane of
    k C is k times C's, at most 2 k M, with no carry between lanes, and
    (k C) >> 64 n is k (C >> 64 n) exactly.  A negative p_n must subtract
    it: (p_n C) >> 64 n floors, and is one less whenever a dropped lane is
    not 0.  The triple product's p_n are theta's, 2 at the squares and 0
    elsewhere, so the one multiple 2 C serves them all.  C's lanes are
    packed as big-endian words by one struct per block of 256, and their
    bytes are released once R is built, so the held multiple takes their
    place in memory.  R is read 256 lanes at a time from the top and XORed
    with offset copied into every lane (the guard keeps offset below 2^64,
    so the copies cannot carry).  A lane equal to offset gives p_m = 0, and
    the first lane that differs sits at the XOR's highest set bit: the zeros
    above it are appended at once, its p_m is taken as (s - offset) // m,
    and the scan goes on below it, or reads the rest of the window again
    after a nonzero p_m.  The dead lanes above are dropped once they pass
    eight blocks.
    """
    order, big = len(c) - 1, max(map(abs, c))
    p, total, size = [1], 1, 1

    def check(n: int) -> None:
        if 2 * size * big >= 1 << 63:
            raise NonConvergence(f"running sums could leave their 64-bit lanes at n={n}",
                                 value=float(p[-1]), error_bound=float(2 * size * big), cost=n)

    check(0)
    # Packed a block at a time: one bytes object per c_k would set the peak memory.
    full = (order + 1) // _BLOCK * _BLOCK
    lanes = b"".join([_WORDS.pack(*[ck + big for ck in c[i:i + _BLOCK]])
                      for i in range(0, full, _BLOCK)]
                     + [struct.pack(f">{order + 1 - full}Q", *[ck + big for ck in c[full:]])])
    scale, held = 1, int.from_bytes(lanes, "big")  # held = scale C
    sums = int.from_bytes(lanes[8:], "big") + int.from_bytes((b"\x80" + bytes(7)) * order, "big")
    del lanes
    ones = int.from_bytes((bytes(7) + b"\x01") * _BLOCK, "big")
    for start in range(1, order + 1, _BLOCK):
        live, end = order + 1 - start, min(start + _BLOCK, order + 1)
        if sums.bit_length() > 64 * (live + 8 * _BLOCK):
            sums &= (1 << 64 * live) - 1
        n = start
        while n < end:  # the lanes of m = n..end-1, read again after each nonzero p_n
            width, offset = end - n, big * total + (1 << 63)
            diff = ((sums >> 64 * (order + 1 - end)) & ((1 << 64 * width) - 1)) \
                ^ offset * (ones >> 64 * (_BLOCK - width))
            while diff:  # p_m = 0 on every lane above the first that differs from offset
                lane = (diff.bit_length() - 1) >> 6
                m = end - 1 - lane
                p += [0] * (m - n)
                p.append(pn := (((diff >> 64 * lane) ^ offset) - offset) // m)
                n = m + 1
                if pn:
                    total, size = total + pn, size + abs(pn)
                    check(m)
                    if abs(pn) != scale:
                        scale, held = abs(pn), held // scale * abs(pn)
                    if pn > 0:
                        sums += held >> 64 * m
                    else:
                        sums -= held >> 64 * m
                    break
                diff &= (1 << 64 * lane) - 1
            else:  # no lane left in the window differs from offset
                p += [0] * (end - n)
                n = end
    return p


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
