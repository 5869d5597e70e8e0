"""Adaptive double-exponential quadrature and the integrals built on it.

Both rules integrate over (0, 1), as half the trapezoid rule over (-1, 1)
after the change of variable x = tanh((pi/2) sinh u), on a uniform u-grid
whose spacing halves per level.  The nodes cluster double exponentially at
the endpoints, absorbing log or integrable-power endpoint singularities; the
inter-level difference is the (heuristic) error estimate, and a summed (0, 1)
value that overflows or is not finite stalls either rule, naming the point.

Two details matter for accuracy near the endpoints:

* nodes are represented by their offset q from the nearer endpoint, with
  q = 1 / (1 + exp(pi sinh u)), so an integrand can be evaluated at a
  machine-exact distance from an endpoint far below the spacing of
  representable numbers near that endpoint's absolute position;

* the half-line integral of f over [0, inf) is computed as the integral
  over (0, 1) of f(-log v) / v, and the engine feeds v through as an
  offset (v = q near 0, v = 1 - q near 1, with log1p on the second
  branch), so both t -> 0 and t -> inf keep full relative precision.
  The map neutralizes decay like exp(-t); integrands must decay at least
  that fast for the transformed integrand to stay bounded.

Each level's nodes, and their points under the half-line map and the form
integral's vertex map, are tabulated once per process, for the levels a
run reaches (Bailey, Jeyabalan & Li, Exp. Math. 14, 2005).  _drive is the
one loop over the levels, the one stop rule and the one node fault rule; its
two rules, _halfline and _vertex_integral, each sum a level from their table
with the integrand called directly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .approx import EPS, ApproxValue, NonConvergence, check_tol, once_per_run

__all__ = [
    "integral_I",
    "gamma_integral",
    "gammaL_integral",
    "f_form",
    "f_form_derivative_at_1",
]

_U_MAX = 6.0        # grid cutoff; its offset 6.1e-276 is the smallest, still in double range
_MAX_LEVEL = 11
_Table = tuple[tuple[float, ...], ...]


@lru_cache(maxsize=32)
def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
    # Positive-u nodes for one refinement level: (offset q, weight h*dx/du).
    # Level 0 is the unit grid u = 1, 2, ...; level k > 0 holds the odd
    # multiples of 2**-k.  Level -1 is the centre u = 0 alone, which the
    # driver takes once, on its lower side: q = 1/2 with weight pi/2.
    if level < 0:
        return ((0.5, 0.5 * math.pi),)
    h = 2.0 ** -level
    js = range(1, int(_U_MAX / h) + 1, 1 if level == 0 else 2)
    out = []
    for j in js:
        u = j * h
        w = 0.5 * math.pi * math.sinh(u)
        q = 1.0 / (1.0 + math.exp(2.0 * w))
        dxdu = 2.0 * math.pi * math.cosh(u) * q * (1.0 - q)
        out.append((q, h * dxdu))
    return tuple(out)


@lru_cache(maxsize=32)
def _halfline_nodes(level: int) -> _Table:
    # Columns w, t, v, t, v: t = -log v at v = q below and v = 1 - q above,
    # where log1p keeps t -> 0 at full relative precision.
    qs, ws = zip(*_level_nodes(level))
    return (ws, tuple(-math.log(q) for q in qs), qs,
            tuple(-math.log1p(-q) for q in qs), tuple(1.0 - q for q in qs))


@lru_cache(maxsize=32)
def _vertex_nodes(level: int) -> _Table:
    # Columns w, u, r, u, r: r = (1 - u)/u at u = q below and u = 1 - q above.
    qs, ws = zip(*_level_nodes(level))
    table = [ws]
    for us in (qs, tuple(1.0 - q for q in qs)):
        table += [us, tuple((1.0 - u) / u for u in us)]
    return tuple(table)


def _rows(table: _Table):
    # (w, lower point, upper point) per node of a table: its columns are the
    # weights, then the fields of the lower points and of the upper ones.
    k = len(table) // 2
    return zip(table[0], zip(*table[1:1 + k]), zip(*table[1 + k:]))


def _drive(nodes: Callable[[int], _Table], level_sum: Callable[[_Table], float],
           node_value: Callable[..., float], label: str, tol: float) -> ApproxValue:
    """Run the doubling trapezoid sum: the one level loop, stop rule and fault rule.

    nodes(level) is the rule's table of one level, held as columns (see
    _rows) so that it adds no object per node for the garbage collector to
    count; level -1 is the centre alone.  level_sum(table) returns the sum
    of w * (y_lo + y_hi) in node order, and node_value(*point) the (0, 1)
    value y at one point, unchecked.  The centre, and each node of a level
    whose sum raises or is not finite, is checked: where y overflows or is
    not finite the rule stalls, naming label=point[0], so a stall names
    the first faulty node in order.  The weights are those of (-1, 1) and
    both rules integrate over (0, 1), so the estimate is half the sum.
    """
    def checked(point: tuple[float, float]) -> float:
        try:
            y = node_value(*point)
        except OverflowError as exc:  # a part such as t ** e or p ** -s leaves the double range
            raise NonConvergence(f"integrand overflows at {label}={point[0]!r}") from exc
        if not math.isfinite(y):
            raise NonConvergence(f"integrand is {y} at {label}={point[0]!r}")
        return y

    (w, centre, _), = _rows(nodes(-1))
    total = w * checked(centre)
    neval = 1
    previous = None
    last_err = math.inf
    for level in range(0, _MAX_LEVEL + 1):
        table = nodes(level)
        try:
            fresh = level_sum(table)
        except Exception:  # the rescan below raises the first fault in node order
            fresh = math.nan
        if not math.isfinite(fresh):
            fresh = 0.0
            for w, lo, hi in _rows(table):
                fresh += w * (checked(lo) + checked(hi))
        neval += 2 * len(table[0])
        total = total + fresh if level == 0 else 0.5 * total + fresh
        estimate = 0.5 * total
        if previous is not None:
            last_err = abs(estimate - previous)
            floor = 4.5e-16 * (1.0 + abs(estimate))
            if last_err <= tol and level >= 2:
                return ApproxValue(estimate, max(last_err, floor), neval).certified(
                    tol, "quadrature")
        previous = estimate
    raise NonConvergence(
        f"quadrature stalled above tol={tol:g} after level {_MAX_LEVEL}",
        value=previous, error_bound=last_err, cost=neval)


def _halfline(f: Callable[[float], float], tol: float) -> ApproxValue:
    def level_sum(table: _Table) -> float:
        fresh = 0.0
        for w, t_lo, v_lo, t_hi, v_hi in zip(*table):
            fresh += w * (f(t_lo) / v_lo + f(t_hi) / v_hi)
        return fresh

    return _drive(_halfline_nodes, level_sum, lambda t, v: f(t) / v, "t", tol)


@once_per_run
def integral_I(tol: float = 1e-12) -> ApproxValue:
    """The constant (1/pi) * integral over (0, inf) of log(t) / cosh(t), as one
    half-line rule: its v = 1 - q branch reaches t -> 0 at exact offsets, and
    the clustered nodes absorb log t there, so no piece is split off."""
    check_tol(tol)
    return _halfline(lambda t: math.log(t) / math.cosh(t), tol) * (1.0 / math.pi)


@once_per_run
def gamma_integral(s: float, tol: float = 1e-12) -> ApproxValue:
    """Integral over (0, inf) of t**(s-1) * exp(-t), for 0 < s <= 171.

    The half-line rule takes 1/2 <= s <= 4, its nodes absorbing the origin's
    power singularity below 1.  Below 1/2, too steep for the rule's estimate,
    it is Gamma(s + 1) / s, Gamma(s + 1) to s tol, plus 2 EPS / s rounding.
    Above 4, where the rule's floor grows with Gamma(s) and t**(s-1)
    overflows past s ~ 111, it is (s-1)...(s-k) Gamma(s - k), s - k in
    (3, 4], Gamma(s - k) to tol and the factor exact from s = m / d, rounded
    once: 2 EPS |value| for any k.  A stall carries the partial Gamma(s).
    """
    if not s > 0.0:
        raise ValueError(f"need s > 0, got {s}")
    check_tol(tol)
    if 0.5 <= s <= 4.0:
        e = s - 1.0
        return _halfline(lambda t: t ** e * math.exp(-t), tol)
    if s < 0.5:
        inner, inner_tol = s + 1.0, s * tol
    elif s <= 171.0:
        k = math.ceil(s - 4.0)
        m, d = s.as_integer_ratio()
        factor = math.prod(m - j * d for j in range(1, k + 1)) / d ** k
        inner, inner_tol = s - k, tol
    else:
        raise ValueError(f"need s <= 171, as Gamma(s) overflows past 171.62; got s={s}")
    try:
        g, stall = gamma_integral(inner, inner_tol), None
    except NonConvergence as exc:
        g, stall = ApproxValue(exc.value, exc.error_bound, exc.cost), exc
    pad = ApproxValue(0.0, 2.0 * EPS * (1.0 if s < 0.5 else g.value))
    g = (g + pad) / s if s < 0.5 else (g + pad) * factor
    if stall is not None:
        raise NonConvergence(f"gamma_integral stalled at s={s:g} above tol={tol:g}",
                             g.value, g.error_bound, g.cost) from stall
    return g.certified(tol, f"Gamma({s:g})")


@once_per_run
def gammaL_integral(s: float, tol: float = 1e-12) -> ApproxValue:
    """Integral over (0, inf) of t**(s-1) / (2 cosh t), for s > 0.

    It stalls from about s = 111.5, where t**(s-1) overflows at the rule's
    farthest nodes.
    """
    if not s > 0.0:
        raise ValueError(f"need s > 0, got {s}")
    check_tol(tol)
    e = s - 1.0
    return _halfline(lambda t: t ** e / (2.0 * math.cosh(t)), tol)


def f_form(form, s: float, tol: float = 1e-12) -> ApproxValue:
    """Minus the full-line integral of (a x^2 + b x + c) ** (-s), for s > 1/2."""
    if not s > 0.5:
        raise ValueError(f"need s > 1/2, got {s}")
    return -_vertex_integral(form, lambda p: p ** -s, tol)


def f_form_derivative_at_1(form, tol: float = 1e-12) -> ApproxValue:
    """Full-line integral of log(p(x)) / p(x) with p(x) = a x^2 + b x + c."""
    return _vertex_integral(form, lambda p: math.log(p) / p if p < math.inf else 0.0, tol)


def _vertex_integral(form, g: Callable[[float], float], tol: float) -> ApproxValue:
    """Full-line integral of g(a x^2 + b x + c), for any object whose fields
    a, b, c make a positive-definite form.  The parabola is split at its
    minimum x0 = -b/(2a); each half-line is the same even integral in
    r = |x - x0|, mapped onto (0, 1) by r = (1 - u)/u so that the algebraic
    decay in r becomes an integrable endpoint power at u = 0.
    """
    a, b, c = float(form.a), float(form.b), float(form.c)
    if not (a > 0.0 and 4.0 * a * c - b * b > 0.0):
        raise ValueError("form must be positive definite")
    check_tol(tol)
    p0 = c - b * b / (4.0 * a)

    def level_sum(table: _Table) -> float:
        fresh = 0.0
        for w, u_lo, r_lo, u_hi, r_hi in zip(*table):
            fresh += w * ((g(a * r_lo * r_lo + p0) / u_lo) / u_lo
                          + (g(a * r_hi * r_hi + p0) / u_hi) / u_hi)
        return fresh

    return 2.0 * _drive(_vertex_nodes, level_sum, lambda u, r: (g(a * r * r + p0) / u) / u,
                        "x", 0.5 * tol)
