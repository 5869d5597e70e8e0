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

  Each block of n terms is added in numpy by the exact split of Rump,
  Ogita and Oishi ("Accurate floating-point summation part I: faithful
  rounding", SIAM J. Sci. Comput. 31(1), 2008).  With sigma a power of two
  at least 2 n max, the high parts (t + sigma) - sigma lie on one grid and
  every partial sum of them stays below sigma, so they add exactly in any
  order; the low parts t - high are exact too.  fsum adds the two sums, and
  only the low parts' sum rounds, by at most 4 n^3 u^2 max, about 1e-5 ulp
  of the block for n <= 4096.  A block sum is therefore fsum's correctly
  rounded one unless the exact sum lies that close to a rounding boundary,
  and then at most one ulp from it, which the 8 EPS |Z| rounding allowance
  covers as it covers fsum's own rounding.  A block whose 2 n max reaches
  2^1023 goes to fsum whole.
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

  _split_sum holds that level choice and the block loop over both sides.
  epstein_accelerated adds the two elementary terms and divides by
  Gamma(s); kronecker.kronecker_lhs takes the same split at s = 1, where
  kappa = 1, the primal terms are e^(-lambda Q) / Q and the dual terms
  lambda E1(lambda Q), and the two elementary terms' pole is taken out in
  closed form.

  Each distinct x = lambda Q(v) of a block takes one call per side of
  _incomplete_gamma, the one float kernel entry, which upper_incomplete_gamma
  wraps too; it takes exp and log from math.  Points of equal value (the
  form's automorphisms, equal representations) reuse it through a table
  that lives for that block only, so every term is bit for bit a per-point
  call's.  The continued fraction runs per value until that value
  converges.  Each block adds its terms with one fsum per side, as the
  kernel returns Python floats, and one more fsum adds the blocks' sums.
  Cost counts the kernel steps taken; the whole Gamma that the series
  complement takes comes from gamma_integral, uncharged, once per block
  side, and within a run once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .approx import EPS, ApproxValue, NonConvergence, check_tol, once_per_run
from .modular import UpperHalfPoint
from .quadrature import gamma_integral
from .special_values import euler_gamma

__all__ = [
    "BinaryQuadraticForm",
    "epstein_direct",
    "epstein_accelerated",
    "upper_incomplete_gamma",
]

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
    def lam(self) -> float:
        """2 pi / sqrt(4ac - b^2): Z's residue at s = 1, and the split point."""
        return 2.0 * math.pi / math.sqrt(self.disc)

    @property
    def label(self) -> str:
        """The form's name in record names: a, b, c in format "g", joined by commas."""
        return ",".join(format(v, "g") for v in (self.a, self.b, self.c))

    def z_point(self) -> UpperHalfPoint:
        """The root (-b + i sqrt(4ac - b^2)) / (2a) of a z^2 + b z + c."""
        return UpperHalfPoint(-self.b / (2.0 * self.a),
                              math.sqrt(self.disc) / (2.0 * self.a))

    def __call__(self, x, y):
        """(a x) x + (b x) y + (c y) y, in that order, on floats or numpy arrays."""
        return self.a * x * x + self.b * x * y + self.c * y * y


def _count_bound(form: BinaryQuadraticForm) -> tuple[float, float]:
    # alpha and beta of the lattice-point count bound (module docstring).
    area = form.lam
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
    value, computed by BinaryQuadraticForm.__call__ on arrays, is at most level.
    Each block takes the next _BLOCK candidates in row order and keeps those
    at most level: it repeats each of its rows' y and x0 once per candidate
    the row gives it and adds the candidates' indices to the x0s.  These are
    exact integers, since under the work cap |x| and the indices stay far
    below 2^53.  Raises NonConvergence before any work when the candidates
    could number more than _MAX_POINTS.
    """
    import numpy as np
    a, b, disc = form.a, form.b, form.disc
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
        start = end - width
        x0 = lo - start  # candidate k of a row is x = x0 + k
        total = int(end[-1])
        for k0 in range(0, total, _BLOCK):
            # The rows that hold candidates k0 .. k1 - 1, and how many each.
            k1 = min(k0 + _BLOCK, total)
            span = slice(end.searchsorted(k0, side="right"),
                         end.searchsorted(k1 - 1, side="right") + 1)
            counts = np.minimum(end[span], k1)
            counts -= np.maximum(start[span], k0)
            xs = x0[span].repeat(counts)
            xs += np.arange(k0, k1, dtype=float)
            ys = y[span].repeat(counts)
            q = form(xs, ys)
            yield q[q <= level]


def _block_sum(terms) -> float:
    # math.fsum of a block of nonnegative terms, by the exact split of the
    # module docstring.  float() keeps an overflowing 2 n max from warning;
    # such a block, an inf term among them, goes to fsum whole.
    top = 2.0 * len(terms) * float(terms.max(initial=0.0))
    if not top < 2.0 ** 1023:
        return math.fsum(terms)
    sigma = math.ldexp(1.0, math.frexp(top)[1])
    high = (terms + sigma) - sigma
    return math.fsum((high.sum(), (terms - high).sum()))


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
        sums.append(_block_sum(q ** -s))
        cost += 2 * len(q)
    tail = form.lam * level ** (1.0 - s) / (s - 1.0)
    value = 2.0 * math.fsum(sums) + tail
    bound = truncation(level) + 8.0 * EPS * abs(value)
    return ApproxValue(value, bound, cost).certified(tol, "direct lattice sum")


def _cf_upper(s: float, x: float) -> tuple[float, float, int]:
    # Gamma(s, x), its bound and its iteration count for x >= max(1, s + 1):
    # continued fraction for Gamma(s, x) * exp(x) * x^(-s), modified Lentz
    # (v or tiny takes tiny for a zero v).  The float counter fi is exact,
    # so an = fi (s - fi) = -i (i - s) and bn round as with the integer i;
    # near 1, delta - 1 is exact, so the stop test |delta - 1| < 4 EPS is
    # the open interval (1 - 4 EPS, 1 + 4 EPS).
    tiny = 1e-300
    lo, hi = 1.0 - 4.0 * EPS, 1.0 + 4.0 * EPS
    b0 = x + 1.0 - s
    f = b0 or tiny
    cc, dd = f, 0.0
    fi = 0.0
    for i in range(1, 400):
        fi += 1.0
        an = fi * (s - fi)
        bn = b0 + 2.0 * fi
        dd = 1.0 / (bn + an * dd or tiny)
        cc = bn + an / cc or tiny
        delta = cc * dd
        f *= delta
        if lo < delta < hi:
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


def _incomplete_gamma(s: float, x: float, whole: list) -> tuple[float, float, int]:
    # Gamma(s, x), its bound and its kernel steps for a finite s and x > 0,
    # in floats: the one kernel entry, behind upper_incomplete_gamma and
    # the lattice blocks.  The whole Gamma that the series complement takes
    # is of s lifted by whole units, so of the order alone: gamma_integral
    # gives it at the first point that needs it, uncharged, and it is kept
    # in whole, a list the caller holds for one order (a block side, or
    # one upper_incomplete_gamma call).
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
        if not whole:
            # s < 1/2 lifts at s tol
            whole.append(gamma_integral(s, 1e-14 / s if s < 0.5 else 1e-14))
        series, cost = _series_lower(s, x)
        lower = math.exp(-x + s * math.log(x)) * series
        value = whole[0].value - lower
        bound = whole[0].error_bound + 8.0 * EPS * (abs(lower) + abs(value))
    for order in reversed(orders):
        front = math.exp(-x + order * math.log(x))
        value = (value - front) / order
        bound = (bound + 4.0 * EPS * front) / abs(order) + 4.0 * EPS * abs(value)
        cost += 1
    return value, bound, cost


def upper_incomplete_gamma(s: float, x: float) -> ApproxValue:
    """Gamma(s, x) = integral over (x, inf) of t**(s-1) exp(-t), x > 0.

    Continued fraction for x >= max(1, s + 1), series complement for
    smaller x with positive s, and the recurrence Gamma(s, x) =
    (Gamma(s+1, x) - x^s exp(-x)) / s to lift a negative s into range, one
    step per unit of order.  The cost counts kernel steps, as the lattice
    sums do: the fraction's, series' and lift's, not the whole Gamma the
    series complement takes.  Raises ValueError for a non-finite s, for
    s > 171 on the series branch and for s < -10^5 on the lift, whose x^s
    may also leave the double range (OverflowError).
    """
    if not math.isfinite(s):
        raise ValueError(f"need a finite order s, got {s}")
    if not x > 0.0:
        raise ValueError(f"need x > 0, got {x}")
    return ApproxValue(*_incomplete_gamma(s, x, []))


def _gamma_block(s: float, x, weight) -> tuple[float, float, int]:
    # Sum of weight * Gamma(s, x) over one block of pair representatives
    # and its bound, each doubled to count every -v too, and the kernel
    # steps taken.  A reused value adds no steps: -v takes v's, and points
    # with equal x (the form's automorphisms, equal representations) take
    # one evaluation through seen, which lives for this block only, so the
    # summed lists are exactly a per-point call's.  The series complement's
    # whole Gamma is taken once for the block, in whole.
    seen, whole = {}, []
    values, errs, cost = [], [], 0
    for v, w in zip(x.tolist(), weight.tolist()):
        got = seen.get(v)
        if got is None:
            got = seen[v] = _incomplete_gamma(s, v, whole)
            cost += got[2]
        values.append(w * got[0])
        errs.append(w * got[1])
    return 2.0 * math.fsum(values), 2.0 * math.fsum(errs), cost


def _split_sum(form: BinaryQuadraticForm, s: float, target: float,
               *elementary: float) -> ApproxValue:
    """The incomplete-gamma split of Gamma(s) Z(s) over one level set.

    Sum over v != 0 of Q^(-s) Gamma(s, lambda Q) + lambda^(2s-1) Q^(s-1)
    Gamma(1-s, lambda Q), lambda = 2 pi / sqrt D, for s >= 1, plus the
    terms elementary, added in the same fsum.  The level is the smallest
    at which both sides' tails (module docstring) are within target.  The
    bound adds the tails, the kernels' bounds and 8 EPS |total| for
    rounding.
    """
    lam = form.lam
    alpha, beta = _count_bound(form)

    def tail(t: float) -> float:
        # Either side's terms past level t (module docstring).
        kappa = 1.0 - (s - 1.0) / (lam * t)
        if kappa < 0.5:
            return math.inf
        envelope = lam ** (s - 1.0) * math.exp(-lam * t) / (kappa * t)
        root = math.sqrt(t)
        return envelope * (1.0 + alpha / (lam * root) + 2.0 * alpha * root + 2.0 * beta)

    level = _smallest_level(tail, target)
    pieces = list(elementary)
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
    return ApproxValue(total, math.fsum(bounds) + 8.0 * EPS * abs(total), cost)


@once_per_run
def epstein_accelerated(form: BinaryQuadraticForm, s: float,
                        tol: float = 1e-12) -> ApproxValue:
    """Incomplete-gamma accelerated value of the lattice sum, s > 1."""
    if not 1.0 < s < math.inf:
        raise ValueError(f"need a finite s > 1, got {s}")
    check_tol(tol)
    s = float(s)  # s = 2 and s = 2.0 take the same float path
    lam = form.lam
    gamma_whole = gamma_integral(s, 1e-14)
    # Both tails together stay far below the rounding allowance
    # 8 EPS |total|: total > lam^s / (s-1) - lam^s / s, as both lattice
    # sums are positive.
    split = _split_sum(form, s, EPS * lam ** s / (32.0 * s * (s - 1.0)),
                       lam ** s / (s - 1.0), -lam ** s / s)
    return (split / gamma_whole).certified(tol, "accelerated lattice sum")
