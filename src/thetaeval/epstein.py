"""Lattice sums of a positive-definite binary quadratic form.

Two independent engines evaluate Z(s) = sum over nonzero integer pairs of
Q(m, n)^(-s):

* epstein_direct sums max-norm rings out to a radius and replaces the
  remainder by the area integral of Q^(-s) over the level set Q > T,
  with T the largest level inscribed in the summed square.  That integral
  is (2 pi / sqrt D) T^(1-s) / (s-1).  The sum inside the square but
  outside the level set is then counted twice, which is the dominant
  error; the reported bound covers it by the mismatch-area estimate plus
  a ring-discrepancy allowance.  An oracle of moderate accuracy, s > 1.
* epstein_accelerated splits the Mellin integral for Gamma(s) Q^(-s) at
  lambda = 2 pi / sqrt D.  The upper part is a lattice sum of incomplete
  gamma values; the lower part, Poisson-summed, becomes the matching sum
  over the adjugate form plus two elementary terms:

      Gamma(s) Z(s) = sum_{v != 0} Q(v)^(-s) Gamma(s, lambda Q(v))
                    + (2 pi / sqrt D) lambda^(s-1) / (s-1) - lambda^s / s
                    + (2 pi / sqrt D) sum_{w != 0} beta(w)^(s-1)
                                                   Gamma(1-s, beta(w)/lambda)

  with beta(w) = (4 pi^2 / D) (c w1^2 - b w1 w2 + a w2^2).  This choice
  of lambda makes both exponential decay rates equal.  Truncation tails
  are covered by proven Gaussian bounds.

  Each side runs as one pass over numpy arrays: one point of each +-v
  pair (Q(-v) = Q(v) exactly), its term, bound and cost doubled, and one
  continued fraction for all points with x >= max(1, s + 1); the few
  others take the scalar upper_incomplete_gamma.  Only + - * / and
  comparisons run in numpy.  exp, log and ** stay in math, whose libm
  results numpy's vectorized versions can miss in the last bit, so the
  bits equal those of a point-by-point loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .approx import EPS, ApproxValue, NonConvergence, check_tol
from .modular import UpperHalfPoint
from .quadrature import gamma_integral
from .special_values import euler_gamma

__all__ = [
    "BinaryQuadraticForm",
    "evaluate",
    "epstein_direct",
    "epstein_accelerated",
    "upper_incomplete_gamma",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """a x^2 + b x y + c y^2 with a > 0 and positive discriminant 4ac - b^2."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for v in (self.a, self.b, self.c):
            if not math.isfinite(v):
                raise ValueError("coefficients must be finite")
        if not (self.a > 0.0 and self.disc > 0.0):
            raise ValueError(
                f"form ({self.a}, {self.b}, {self.c}) is not positive definite")

    @property
    def disc(self) -> float:
        """The positive quantity 4ac - b^2."""
        return 4.0 * self.a * self.c - self.b * self.b

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of the Gram matrix [[a, b/2], [b/2, c]]."""
        half_trace = 0.5 * (self.a + self.c)
        radius = 0.5 * math.hypot(self.a - self.c, self.b)
        return half_trace - radius

    def z_point(self) -> UpperHalfPoint:
        """The root (-b + i sqrt(4ac - b^2)) / (2a) of a z^2 + b z + c."""
        return UpperHalfPoint(-self.b / (2.0 * self.a),
                              math.sqrt(self.disc) / (2.0 * self.a))

    def adjugate(self) -> "BinaryQuadraticForm":
        """The form (c, -b, a), which generates the dual lattice sum."""
        return BinaryQuadraticForm(self.c, -self.b, self.a)

    def __call__(self, x: float, y: float) -> float:
        return evaluate(self, (x, y))


def evaluate(form: BinaryQuadraticForm, v: tuple[float, float]) -> float:
    """Q(v) for a pair v = (x, y)."""
    x, y = v
    return form.a * x * x + form.b * x * y + form.c * y * y


def _ring_arrays(r: int) -> tuple[np.ndarray, np.ndarray]:
    # The 8r points with max-norm exactly r, in a fixed deterministic order.
    side = np.arange(-r, r + 1)
    inner = np.arange(-r + 1, r)
    xs = np.concatenate([side, side, np.full(len(inner), -r), np.full(len(inner), r)])
    ys = np.concatenate([np.full(len(side), r), np.full(len(side), -r), inner, inner])
    return xs.astype(float), ys.astype(float)


def _min_on_unit_ring(form: BinaryQuadraticForm) -> float:
    # Minimum of Q on the max-norm unit sphere; Q scales with the square of
    # the max-norm, so this converts a square radius into a level.
    vals = []
    for (p, q, rr) in ((form.a, form.b, form.c), (form.c, form.b, form.a)):
        # rr t^2 + q t + p on t in [-1, 1]
        vals.extend((p + q + rr, p - q + rr))
        t = -q / (2.0 * rr)
        if -1.0 < t < 1.0:
            vals.append(p + q * t + rr * t * t)
    return min(vals)


def epstein_direct(form: BinaryQuadraticForm, s: float, radius: int = 256) -> ApproxValue:
    """Ring-by-ring lattice sum with an area-integral tail.  Oracle grade.

    The bound is heuristic: the inscribed-level mismatch term dominates and
    decays like radius^(2 - 2s), so expect moderate accuracy only.
    """
    if not s > 1.0:
        raise ValueError(f"need s > 1, got {s}")
    if not (isinstance(radius, int) and radius >= 8):
        raise ValueError(f"radius must be an integer >= 8, got {radius!r}")
    a, b, c = form.a, form.b, form.c
    ring_sums = []
    for r in range(1, radius + 1):
        xs, ys = _ring_arrays(r)
        q = a * xs * xs + b * xs * ys + c * ys * ys
        ring_sums.append(float(np.sum(q ** -s)))
    half_width = radius + 0.5
    level = _min_on_unit_ring(form) * half_width * half_width
    sqrt_d = math.sqrt(form.disc)
    tail = (_TWO_PI / sqrt_d) * level ** (1.0 - s) / (s - 1.0)
    value = math.fsum(ring_sums) + tail

    # Double-counted region: inside the square, outside the level set.
    mismatch_area = max(0.0, (2.0 * half_width) ** 2 - _TWO_PI * level / sqrt_d)
    bias = level ** -s * mismatch_area
    # Sum-versus-integral discrepancy along the boundary ring.
    discrepancy = 16.0 * s * half_width * (form.lambda_min * radius * radius) ** -s
    bound = 1.25 * bias + discrepancy + 8.0 * EPS * abs(value)
    return ApproxValue(value, bound, 4 * radius * (radius + 1))


@lru_cache(maxsize=64)
def _gamma_cached(s: float) -> ApproxValue:
    return gamma_integral(s, 1e-14)


def _cf_upper(s: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Gamma(s, x), its bound and its iteration count for each x >= max(1, s + 1).
    # Continued fraction for Gamma(s, x) * exp(x) * x^(-s), modified Lentz,
    # run on the whole array; an element leaves it at the iteration where it
    # converges, so it sees exactly the IEEE operations of a scalar loop.
    tiny = 1e-300
    b0 = x + 1.0 - s
    f = np.where(b0 != 0.0, b0, tiny)
    cc = f
    dd = np.zeros_like(x)
    live = np.arange(len(x))
    cf = np.empty_like(x)
    n = np.empty(len(x), dtype=np.int64)
    for i in range(1, 400):
        if not len(live):
            break
        an = -i * (i - s)
        bn = b0 + 2.0 * i
        dd = bn + an * dd
        dd[dd == 0.0] = tiny
        cc = bn + an / cc
        cc[cc == 0.0] = tiny
        dd = 1.0 / dd
        delta = cc * dd
        f = f * delta
        done = np.abs(delta - 1.0) < 4.0 * EPS
        if done.any():
            cf[live[done]] = 1.0 / f[done]
            n[live[done]] = i
            keep = ~done
            live, b0, f, cc, dd = live[keep], b0[keep], f[keep], cc[keep], dd[keep]
    if len(live):
        raise NonConvergence(
            f"incomplete gamma fraction stalled at s={s}, x={float(x[live[0]])}")
    front = np.array([math.exp(-v + s * math.log(v)) for v in x.tolist()])
    value = front * cf
    return value, 16.0 * EPS * np.abs(value) + 1e-306, n


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


def _e1_series(x: float) -> ApproxValue:
    # Gamma(0, x) = -gamma - log x + sum_{k >= 1} -(-x)^k / (k k!), x < 1.
    g = euler_gamma(1e-13)
    term = 1.0
    contribs = [-g.value, -math.log(x)]
    for k in range(1, 200):
        term *= -x / k
        contribs.append(-term / k)
        if abs(term) < 1e-18:
            value = math.fsum(contribs)
            bound = g.error_bound + 4.0 * EPS * (abs(value) + abs(math.log(x)))
            return ApproxValue(value, bound, k)
    raise NonConvergence(f"exponential integral series stalled at x={x}")


def upper_incomplete_gamma(s: float, x: float) -> ApproxValue:
    """Gamma(s, x) = integral over (x, inf) of t**(s-1) exp(-t), x > 0.

    Continued fraction for large x, series complement for small x with
    positive s, and the recurrence Gamma(s, x) = (Gamma(s+1, x)
    - x^s exp(-x)) / s to lift a non-positive s into range.
    """
    if not x > 0.0:
        raise ValueError(f"need x > 0, got {x}")
    if x >= max(1.0, s + 1.0):
        value, bound, n = _cf_upper(s, np.array([x], dtype=float))
        return ApproxValue(float(value[0]), float(bound[0]), int(n[0]))
    if s > 0.0:
        whole = _gamma_cached(s)
        front = math.exp(-x + s * math.log(x))
        series, n = _series_lower(s, x)
        lower = front * series
        value = whole.value - lower
        bound = whole.error_bound + 8.0 * EPS * (abs(lower) + abs(value))
        return ApproxValue(value, bound, n + whole.cost)
    if s == 0.0:
        return _e1_series(x)
    lifted = upper_incomplete_gamma(s + 1.0, x)
    front = math.exp(-x + s * math.log(x))
    value = (lifted.value - front) / s
    bound = (lifted.error_bound + 4.0 * EPS * front) / abs(s) + 4.0 * EPS * abs(value)
    return ApproxValue(value, bound, lifted.cost + 1)


def _gaussian_ring_tail(rate: float, prefactor: float, r: int) -> float:
    # Bound for sum over rings beyond r of (prefactor / r') exp(-rate r'^2):
    # first omitted ring times the geometric envelope of the rest.
    head = (prefactor / (r + 1.0)) * math.exp(-rate * (r + 1.0) ** 2)
    ratio = math.exp(-rate * (2.0 * r + 3.0))
    return head / (1.0 - ratio)


def _pair_representatives(form: BinaryQuadraticForm, r_max: int) -> np.ndarray:
    # Q at one point of each +-v pair on the rings 1..r_max, ring by ring:
    # the top row and the inner left column of _ring_arrays(r), 4r points.
    # Q(-v) = Q(v) holds exactly in floating point.
    parts = []
    for r in range(1, r_max + 1):
        xs, ys = _ring_arrays(r)
        half = np.r_[0:2 * r + 1, 4 * r + 2:6 * r + 1]
        parts.append(evaluate(form, (xs[half], ys[half])))
    return np.concatenate(parts)


def _gamma_ring_sums(s: float, x: np.ndarray, weight: np.ndarray,
                     r_max: int) -> tuple[list[float], list[float], int]:
    # Ring sums, per-point bounds and cost of weight * Gamma(s, x) over the
    # points of _pair_representatives, doubled to count each -v too.
    # fsum is correctly rounded and doubling is exact, so each ring sum
    # equals the fsum over the full ring.
    cf_branch = x >= max(1.0, s + 1.0)
    value = np.empty_like(x)
    err = np.empty_like(x)
    cost = np.empty(len(x), dtype=np.int64)
    value[cf_branch], err[cf_branch], cost[cf_branch] = _cf_upper(s, x[cf_branch])
    for i in np.flatnonzero(~cf_branch).tolist():
        g = upper_incomplete_gamma(s, float(x[i]))
        value[i], err[i], cost[i] = g.value, g.error_bound, g.cost
    terms = (weight * value).tolist()
    ring_sums = [2.0 * math.fsum(terms[2 * r * (r - 1):2 * r * (r + 1)])
                 for r in range(1, r_max + 1)]
    return ring_sums, (2.0 * (weight * err)).tolist(), 2 * int(cost.sum())


def epstein_accelerated(form: BinaryQuadraticForm, s: float,
                        tol: float = 1e-12) -> ApproxValue:
    """Incomplete-gamma accelerated value of the lattice sum, s > 1."""
    if not s > 1.0:
        raise ValueError(f"need s > 1, got {s}")
    check_tol(tol)
    sqrt_d = math.sqrt(form.disc)
    lam = _TWO_PI / sqrt_d
    gamma_whole = _gamma_cached(s)
    # Budget in the Gamma(s) Z(s) scale.
    budget = 0.25 * tol * gamma_whole.value

    lam_min = form.lambda_min
    adj = form.adjugate()
    beta_scale = 4.0 * math.pi ** 2 / form.disc

    primal_rate = lam * lam_min
    dual_rate = beta_scale * lam_min / lam  # equals primal_rate by construction

    def radius_for(rate: float, prefactor: float) -> int:
        r = max(2, math.ceil(math.sqrt(max(2.0 * s, 2.0) / rate)))
        while _gaussian_ring_tail(rate, prefactor, r) > budget:
            r += 1
            if r > 10_000:
                raise NonConvergence("lattice truncation radius exploded")
        return r

    primal_pref = 16.0 * lam ** (s - 1.0) / lam_min
    dual_pref = 16.0 * math.pi * lam ** s / (sqrt_d * beta_scale * lam_min)

    r1 = radius_for(primal_rate, primal_pref)
    q = _pair_representatives(form, r1)
    weight = np.array([v ** -s for v in q.tolist()])
    pieces, errs, cost = _gamma_ring_sums(s, lam * q, weight, r1)
    bounds = [*errs, _gaussian_ring_tail(primal_rate, primal_pref, r1)]

    pieces.append((_TWO_PI / sqrt_d) * lam ** (s - 1.0) / (s - 1.0))
    pieces.append(-lam ** s / s)

    r2 = radius_for(dual_rate, dual_pref)
    beta = beta_scale * _pair_representatives(adj, r2)
    weight = (_TWO_PI / sqrt_d) * np.array([v ** (s - 1.0) for v in beta.tolist()])
    dual_sums, errs, dual_cost = _gamma_ring_sums(1.0 - s, beta / lam, weight, r2)
    pieces += dual_sums
    bounds += [*errs, _gaussian_ring_tail(dual_rate, dual_pref, r2)]
    cost += dual_cost

    total = math.fsum(pieces)
    total_bound = math.fsum(bounds) + 8.0 * EPS * abs(total)
    scaled = ApproxValue(total, total_bound, cost) / gamma_whole
    if scaled.error_bound > tol:
        raise NonConvergence(
            f"accelerated lattice sum stalled above tol={tol:g}",
            value=scaled.value, error_bound=scaled.error_bound, cost=scaled.cost)
    return scaled
