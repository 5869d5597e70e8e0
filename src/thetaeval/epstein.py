"""Lattice sums of a positive-definite binary quadratic form.

Two independent engines evaluate Z(s) = sum over nonzero integer pairs of
Q(m, n)^(-s), s > 1.  Both walk level sets {v != 0 : Q(v) <= T} with one
enumerator, _level_set.  It goes row by row in y, takes in each row the
x-interval that solves the quadratic, keeps one point of each +-v pair
(Q(-v) = Q(v) exactly, so each term counts twice) and streams blocks of at
most _BLOCK points.  A level set that would take more than _MAX_POINTS
candidate points is refused with NonConvergence before any is visited.

Tails are proven through the lattice-point count.  The unit cell of a
point with Q <= t lies inside Q <= (sqrt t + sqrt(lambda_max / 2))^2, and
the cells cover Q <= (sqrt t - sqrt(lambda_max / 2))^2, so

    |#{v != 0 : Q(v) <= t} - (2 pi / sqrt D) t| <= alpha sqrt(t) + beta,
    alpha = (2 pi / sqrt D) sqrt(2 lambda_max),
    beta = (2 pi / sqrt D) lambda_max / 2 + 1,

with D = 4ac - b^2 and lambda_max the larger eigenvalue of
[[a, b/2], [b/2, c]].

* epstein_direct sums Q^(-s) over Q <= T exactly and adds the area
  integral of Q^(-s) over Q > T, (2 pi / sqrt D) T^(1-s) / (s-1).  Abel
  summation against the count bound proves the error at most
  alpha T^(1/2-s) (1 + s/(s-1/2)) + 2 beta T^(-s), plus rounding; T is the
  smallest level at which that meets the tolerance.
* epstein_accelerated splits the Mellin integral for Gamma(s) Q^(-s) at
  lambda = 2 pi / sqrt D.  The upper part is a lattice sum of incomplete
  gamma values; the lower part, Poisson-summed, becomes the matching sum
  over the adjugate form plus two elementary terms:

      Gamma(s) Z(s) = sum_{v != 0} Q(v)^(-s) Gamma(s, lambda Q(v))
                    + (2 pi / sqrt D) lambda^(s-1) / (s-1) - lambda^s / s
                    + (2 pi / sqrt D) sum_{w != 0} beta(w)^(s-1)
                                                   Gamma(1-s, beta(w)/lambda)

  with beta(w) = (4 pi^2 / D) (c w1^2 - b w1 w2 + a w2^2) = lambda^2 Q'(w).
  The adjugate form Q' is Q turned a quarter turn, Q'(w1, w2) = Q(w2, -w1),
  a bijection of the +-pairs of nonzero integer points, so the dual sum runs
  over the very values Q(v) of the primal sum: one level set feeds both
  sides, summed to one level T under one tail bound.  A term at level t
  falls with t and is at most lambda^(s-1) e^(-lambda t) / (kappa t), by
  Gamma(s, x) <= x^(s-1) e^(-x) / kappa for s > 1, x > s - 1 and
  kappa = 1 - (s-1)/x (taken at x = lambda T), and by
  Gamma(s, x) <= x^(s-1) e^(-x) for s <= 1.  Summed against the count
  bound, each side's tail past T is at most that envelope at T times
  1 + alpha / (lambda sqrt T) + 2 alpha sqrt T + 2 beta.  T is set so the
  tails stay far below the rounding allowance.

  Each point's Gamma(s, x) is one call of the float kernel behind
  upper_incomplete_gamma, with exp and log from math: the continued
  fraction runs per point until that point converges.  Each block of the
  level set adds its terms with one fsum per side, and one more fsum adds
  the blocks' sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .approx import EPS, ApproxValue, NonConvergence, check_tol
from .modular import UpperHalfPoint
from .quadrature import gamma_integral
from .special_values import euler_gamma

__all__ = [
    "BinaryQuadraticForm",
    "epstein_direct",
    "epstein_accelerated",
    "upper_incomplete_gamma",
]

_TWO_PI = 2.0 * math.pi
_BLOCK = 4096
_MAX_POINTS = 10_000_000
_EULER_GAMMA = euler_gamma(1e-13)


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """a x^2 + b x y + c y^2 with a > 0 and 4ac - b^2 a finite positive double."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for v in (self.a, self.b, self.c):
            if not math.isfinite(v):
                raise ValueError(
                    f"form ({self.a}, {self.b}, {self.c}) has a non-finite coefficient")
        if not (self.a > 0.0 and 0.0 < self.disc < math.inf):
            what = "is not positive definite"
            (na, da), (nb, db), (nc, dc) = (v.as_integer_ratio() for v in (self.a, self.b, self.c))
            if self.a > 0.0 and 4 * na * nc * db * db > nb * nb * da * dc:  # 4ac > b^2, exactly
                what = f"has discriminant 4ac - b^2 = {self.disc}, not a finite positive double"
            raise ValueError(f"form ({self.a}, {self.b}, {self.c}) {what}")

    @property
    def disc(self) -> float:
        """The positive quantity 4ac - b^2."""
        return 4.0 * self.a * self.c - self.b * self.b

    @property
    def label(self) -> str:
        """The form's name in record names: a, b, c in format "g", joined by commas."""
        return ",".join(format(v, "g") for v in (self.a, self.b, self.c))

    def z_point(self) -> UpperHalfPoint:
        """The root (-b + i sqrt(4ac - b^2)) / (2a) of a z^2 + b z + c."""
        return UpperHalfPoint(-self.b / (2.0 * self.a),
                              math.sqrt(self.disc) / (2.0 * self.a))

    def __call__(self, x: float, y: float) -> float:
        return self.a * x * x + self.b * x * y + self.c * y * y


def _count_bound(form: BinaryQuadraticForm) -> tuple[float, float]:
    # alpha and beta of the lattice-point count bound (module docstring).
    area = _TWO_PI / math.sqrt(form.disc)
    lam_max = 0.5 * (form.a + form.c) + 0.5 * math.hypot(form.a - form.c, form.b)
    return area * math.sqrt(2.0 * lam_max), area * lam_max / 2.0 + 1.0


def _smallest_level(bound, target: float) -> float:
    # Smallest level t, to a relative 1e-9, with bound(t) <= target, for a
    # bound that decreases in t: double or halve from 1, then bisect.
    hi = 1.0
    while bound(hi) > target:
        hi *= 2.0
    while hi > 1e-300 and bound(hi / 2.0) <= target:
        hi /= 2.0
    lo = hi / 2.0
    for _ in range(32):
        mid = math.sqrt(lo * hi)
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _level_set(form: BinaryQuadraticForm, level: float):
    """Q(v) for one v of each +-v pair with 0 < Q(v) <= level, in blocks.

    The representatives are the points with y > 0 and those with
    y = 0 < x.  Row y takes the integers of the x-interval that solves
    Q(x, y) <= level, widened by one on each side, and keeps those whose
    value, computed as BinaryQuadraticForm.__call__ does, is at most level.
    Each block holds at most _BLOCK values.  Raises NonConvergence before
    any work when the candidates could number more than _MAX_POINTS.
    """
    import numpy as np
    a, b, c, disc = form.a, form.b, form.c, form.disc
    height = math.sqrt(4.0 * a * level / disc)
    # Half the ellipse's area, its widest row, and five per row.
    work = math.pi * level / math.sqrt(disc) + 2.0 * math.sqrt(level / a) + 5.0 * height + 10.0
    if not work <= _MAX_POINTS:
        raise NonConvergence(
            f"level set Q <= {level:g} could hold more than {_MAX_POINTS} points")
    rows = math.floor(height) + 2
    for y0 in range(0, rows, _BLOCK):
        y = np.arange(y0, min(y0 + _BLOCK, rows), dtype=float)
        half = np.sqrt(np.maximum(4.0 * a * level - disc * y * y, 0.0)) / (2.0 * a)
        mid = -b * y / (2.0 * a)
        lo = np.floor(mid - half) - 1.0
        if y0 == 0:
            lo[0] = 1.0
        width = np.maximum(np.ceil(mid + half) + 2.0 - lo, 0.0).astype(np.int64)
        end = np.cumsum(width)
        for k0 in range(0, int(end[-1]), _BLOCK):
            k = np.arange(k0, min(k0 + _BLOCK, int(end[-1])))
            row = np.searchsorted(end, k, side="right")
            xs = lo[row] + (k - (end[row] - width[row]))
            ys = y[row]
            q = a * xs * xs + b * xs * ys + c * ys * ys
            yield q[q <= level]


def epstein_direct(form: BinaryQuadraticForm, s: float, tol: float = 1e-2) -> ApproxValue:
    """Sum of Q^(-s) over the level set Q <= T plus the area integral past T.

    T is the smallest level whose proven truncation bound (module
    docstring) is within tol, less a share kept for rounding.  Raises
    NonConvergence if the bound with rounding still exceeds tol.
    """
    if not 1.0 < s < math.inf:
        raise ValueError(f"need a finite s > 1, got {s}")
    check_tol(tol)
    alpha, beta = _count_bound(form)

    def truncation(t: float) -> float:
        return alpha * t ** (0.5 - s) * (1.0 + s / (s - 0.5)) + 2.0 * beta * t ** -s

    level = _smallest_level(truncation, (1.0 - 2.0 ** -10) * tol)
    sums, cost = [], 0
    for q in _level_set(form, level):
        sums.append(math.fsum((q ** -s).tolist()))
        cost += 2 * len(q)
    tail = (_TWO_PI / math.sqrt(form.disc)) * level ** (1.0 - s) / (s - 1.0)
    value = 2.0 * math.fsum(sums) + tail
    bound = truncation(level) + 8.0 * EPS * abs(value)
    return ApproxValue(value, bound, cost).certified(tol, "direct lattice sum")


@lru_cache(maxsize=64)
def _gamma_cached(s: float) -> ApproxValue:
    # Gamma(s) = (s - 1) Gamma(s - 1): past s = 4, Gamma(s) > 6 brings the
    # quadrature's rounding floor up to 1e-14.  Each s - 1 is exact; each
    # product rounds by EPS/2 of the running value.  Below 1/2,
    # gamma_integral's own lift asks Gamma(s + 1) for s tol = 1e-14.
    if not s <= 171.0:
        raise ValueError(f"need s <= 171, as Gamma(s) overflows past 171.62; got s={s}")
    if s < 0.5:
        return gamma_integral(s, 1e-14 / s)
    factor, steps = 1.0, 0
    while s > 4.0:
        s -= 1.0
        factor *= s
        steps += 1
    scaled = factor * gamma_integral(s, 1e-14)
    return scaled + ApproxValue(0.0, steps * EPS * scaled.value)


def _cf_upper(s: float, x: float) -> tuple[float, float, int]:
    # Gamma(s, x), its bound and its iteration count for x >= max(1, s + 1):
    # continued fraction for Gamma(s, x) * exp(x) * x^(-s), modified Lentz
    # (v or tiny takes tiny for a zero v).
    tiny = 1e-300
    b0 = x + 1.0 - s
    f = b0 or tiny
    cc, dd = f, 0.0
    for i in range(1, 400):
        an = -i * (i - s)
        bn = b0 + 2.0 * i
        dd = bn + an * dd or tiny
        cc = bn + an / cc or tiny
        dd = 1.0 / dd
        delta = cc * dd
        f = f * delta
        if abs(delta - 1.0) < 4.0 * EPS:
            value = math.exp(-x + s * math.log(x)) * (1.0 / f)
            return value, 16.0 * EPS * abs(value) + 1e-306, i
    raise NonConvergence(f"incomplete gamma fraction stalled at s={s}, x={x}")


def _series_lower(s: float, x: float) -> tuple[float, int]:
    # gamma(s, x) * exp(x) * x^(-s) = sum over n >= 0 of x^n / (s (s+1) ... (s+n)).
    term = 1.0 / s
    total = term
    for n in range(1, 400):
        term *= x / (s + n)
        total += term
        if abs(term) < 1e-17 * abs(total):
            return total, n
    raise NonConvergence(f"incomplete gamma series stalled at s={s}, x={x}")


def _e1_series(x: float) -> tuple[float, float, int]:
    # Gamma(0, x) = -gamma - log x + sum_{k >= 1} -(-x)^k / (k k!), x < 1,
    # its bound and its term count.
    term = 1.0
    contribs = [-_EULER_GAMMA.value, -math.log(x)]
    for k in range(1, 200):
        term *= -x / k
        contribs.append(-term / k)
        if abs(term) < 1e-18:
            value = math.fsum(contribs)
            bound = _EULER_GAMMA.error_bound + 4.0 * EPS * (abs(value) + abs(math.log(x)))
            return value, bound, k
    raise NonConvergence(f"exponential integral series stalled at x={x}")


def _incomplete_gamma(s: float, x: float) -> tuple[float, float, int]:
    # Gamma(s, x), its bound and its cost for a finite s and x > 0, in
    # floats: the body of upper_incomplete_gamma, which the lattice blocks
    # call directly.
    if x >= max(1.0, s + 1.0):
        return _cf_upper(s, x)
    if s < -1e5:
        raise ValueError(f"order s={s} needs more than 10^5 recurrence steps")
    orders = []
    while s < 0.0:
        orders.append(s)
        s += 1.0
    if s == 0.0:
        value, bound, cost = _e1_series(x)
    else:
        whole = _gamma_cached(s)
        series, n = _series_lower(s, x)
        lower = math.exp(-x + s * math.log(x)) * series
        value = whole.value - lower
        bound = whole.error_bound + 8.0 * EPS * (abs(lower) + abs(value))
        cost = n + whole.cost
    for order in reversed(orders):
        front = math.exp(-x + order * math.log(x))
        value = (value - front) / order
        bound = (bound + 4.0 * EPS * front) / abs(order) + 4.0 * EPS * abs(value)
        cost += 1
    return value, bound, cost


def upper_incomplete_gamma(s: float, x: float) -> ApproxValue:
    """Gamma(s, x) = integral over (x, inf) of t**(s-1) exp(-t), x > 0.

    Continued fraction for large x, series complement for small x with
    positive s, and the recurrence Gamma(s, x) = (Gamma(s+1, x)
    - x^s exp(-x)) / s to lift a negative s into range, one step per unit
    of order.  Raises ValueError for a non-finite s, for s > 171 on the
    series branch and for s < -10^5 on the lift, whose x^s may also leave
    the double range (OverflowError).
    """
    if not math.isfinite(s):
        raise ValueError(f"need a finite order s, got {s}")
    if not x > 0.0:
        raise ValueError(f"need x > 0, got {x}")
    return ApproxValue(*_incomplete_gamma(s, x))


def _gamma_block(s: float, x, weight) -> tuple[float, float, int]:
    # Sum of weight * Gamma(s, x) over one block of pair representatives,
    # its bound and its cost, each doubled to count every -v too.
    values, errs, cost = [], [], 0
    for v, w in zip(x.tolist(), weight.tolist()):
        value, bound, n = _incomplete_gamma(s, v)
        values.append(w * value)
        errs.append(w * bound)
        cost += n
    return 2.0 * math.fsum(values), 2.0 * math.fsum(errs), 2 * cost


def epstein_accelerated(form: BinaryQuadraticForm, s: float,
                        tol: float = 1e-12) -> ApproxValue:
    """Incomplete-gamma accelerated value of the lattice sum, s > 1."""
    if not 1.0 < s < math.inf:
        raise ValueError(f"need a finite s > 1, got {s}")
    check_tol(tol)
    s = float(s)  # s = 2 and s = 2.0 take the same float path
    lam = _TWO_PI / math.sqrt(form.disc)
    gamma_whole = _gamma_cached(s)
    alpha, beta = _count_bound(form)

    def tail(t: float) -> float:
        # Either side's terms past level t (module docstring).
        kappa = 1.0 - (s - 1.0) / (lam * t)
        if kappa < 0.5:
            return math.inf
        envelope = lam ** (s - 1.0) * math.exp(-lam * t) / (kappa * t)
        root = math.sqrt(t)
        return envelope * (1.0 + alpha / (lam * root) + 2.0 * alpha * root + 2.0 * beta)

    # Both tails together stay far below the rounding allowance
    # 8 EPS |total|: total > lam^s / (s-1) - lam^s / s, as both lattice
    # sums are positive.
    level = _smallest_level(tail, EPS * lam ** s / (32.0 * s * (s - 1.0)))
    pieces = [lam ** s / (s - 1.0), -lam ** s / s]
    bounds = [2.0 * tail(level)]
    cost = 0
    for q in _level_set(form, level):
        # The primal side, then the dual side over the same values.
        for order, weight in ((s, q ** -s), (1.0 - s, lam ** (2.0 * s - 1.0) * q ** (s - 1.0))):
            value, bound, n = _gamma_block(order, lam * q, weight)
            pieces.append(value)
            bounds.append(bound)
            cost += n

    total = math.fsum(pieces)
    total_bound = math.fsum(bounds) + 8.0 * EPS * abs(total)
    return (ApproxValue(total, total_bound, cost) / gamma_whole).certified(
        tol, "accelerated lattice sum")
