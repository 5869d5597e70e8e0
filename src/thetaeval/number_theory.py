"""Integer arithmetic for two-squares representation counts.

r(n) counts the ordered integer pairs (x, y) with x^2 + y^2 = n.  It has two
independent routes, each in a per-n form and a whole-range form that
returns the table r(0..N) at once (r(0) = 1, the pair (0, 0)):

- direct search: r_bruteforce walks x and tests whether n - x^2 is a
  square; r_bruteforce_table counts the points x^2 + y^2 <= N with
  x >= 1, y >= 0;
- divisors: r(n) = 4 sum_{d | n} chi4(d) (Lemma 2).  r_divisor sums over
  the divisor pairs of one n; r_divisor_table sieves 4 chi4(d) over odd n
  with _odd_divisor_sums, the package's one divisor sieve (qseries takes
  sigma from it too), then copies r(o) to r(2^a o), o odd, with one slice
  per power of two, since the odd divisors of 2^a o are those of o.

The two routes share nothing but argument checks: the direct search never
uses chi4, and the divisor route never counts points
(tests/test_scripts.py scans for it).
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from operator import add

__all__ = ["chi4", "r_bruteforce", "r_bruteforce_table", "r_divisor", "r_divisor_table"]


def chi4(n: int) -> int:
    """The nontrivial character mod 4: 0 on evens, +1 when n = 1 (mod 4), -1 when n = 3 (mod 4)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("chi4 takes an integer")
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def r_bruteforce(n: int) -> int:
    """Count ordered integer pairs (x, y) with x*x + y*y == n, by direct search."""
    _check_positive(n)
    count = 0
    x = 0
    while x * x <= n:
        rem = n - x * x
        y = isqrt(rem)
        if y * y == rem:
            count += (1 if x == 0 else 2) * (1 if y == 0 else 2)
        x += 1
    return count


def r_divisor(n: int) -> int:
    """Representation count via 4 * sum of chi4(d) over the divisors d of n."""
    _check_positive(n)
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += chi4(d)
            q = n // d
            if q != d:
                total += chi4(q)
        d += 1
    return 4 * total


def r_bruteforce_table(order: int) -> tuple[int, ...]:
    """r(0..order), by counting lattice points.

    Rotation by a quarter turn maps each nonzero point onto exactly one
    point with x >= 1 and y >= 0, so r(n) is 4 times the number of those
    with x^2 + y^2 = n.
    """
    _check_order(order)
    squares = [y * y for y in range(isqrt(order) + 1)]
    table = [0] * (order + 1)
    table[0] = 1
    for x2 in squares[1:]:
        for y2 in squares:
            if x2 + y2 > order:
                break
            table[x2 + y2] += 4
    return tuple(table)


def r_divisor_table(order: int) -> tuple[int, ...]:
    """r(0..order): at odd o, the sum of 4 chi4(d) over the odd d | o, from
    _odd_divisor_sums; r(2^a o) = r(o), as 2^a o has the odd divisors of o,
    copied by one slice per power of two 2^a <= N.
    """
    _check_order(order)
    table = _odd_divisor_sums(order, [4 * chi4(d) for d in (1, 3)] * (order // 4 + 1))
    table[0] = 1
    power = 2
    while power <= order:
        table[power::2 * power] = table[1:order // power + 1:2]
        power *= 2
    return tuple(table)


def _odd_divisor_sums(order: int, weights: list[int] | range) -> list[int]:
    """t[0..N] with t[o] = sum_{d | o} w(d) at odd o and 0 at even k.

    weights holds w(1), w(3), w(5), ..., at least (N + 1) // 2 of them.
    Each odd pair (j, d) with j d <= N has j <= J or j >= J', the first odd
    number above J, not both, for any J (Dirichlet's hyperbola split), so
    a slice per odd j <= J adds w(1), w(3), ... at t[j::2j] and a slice per
    odd d <= N // J' adds w(d) at t[J' d::2d], about sqrt N slices in all.
    """
    table = [0] * (order + 1)
    root = int(order ** 0.5)
    first = root + 1 + root % 2  # J'
    for j in range(1, root + 1, 2):
        table[j::2 * j] = map(add, table[j::2 * j], weights)
    for d, w in zip(range(1, order // first + 1, 2), weights):
        table[first * d::2 * d] = map(add, table[first * d::2 * d], repeat(w))
    return table


def _check_positive(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"need a positive integer, got {n!r}")


def _check_order(order: int) -> None:
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
