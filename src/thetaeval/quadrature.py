"""Adaptive double-exponential quadrature and the integrals built on it.

The core rule integrates over (-1, 1) after the change of variable
x = tanh((pi/2) sinh u), applying the trapezoid rule on a uniform u-grid
whose spacing halves per level.  The nodes cluster double exponentially at
the endpoints, absorbing log or integrable-power endpoint singularities; the
inter-level difference is the (heuristic) error estimate, and a non-finite
integrand value, or on the half-line one whose evaluation overflows, stalls
the rule with NonConvergence naming the point.

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
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .approx import EPS, ApproxValue, NonConvergence, check_tol

__all__ = [
    "integral_I",
    "gamma_integral",
    "gammaL_integral",
    "f_form",
    "f_form_derivative_at_1",
]

_U_MAX = 6.0        # grid cutoff; its offset 6.1e-276 is the smallest, still in double range
_MAX_LEVEL = 11


@lru_cache(maxsize=32)
def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
    # Positive-u nodes for one refinement level: (offset q, weight h*dx/du).
    # Level 0 is the unit grid u = 1, 2, ...; level k > 0 holds the odd
    # multiples of 2**-k.  The u = 0 node is handled by the driver.
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


def _drive(node_value: Callable[[float, int], float], scale: float,
           tol: float) -> ApproxValue:
    """Run the doubling trapezoid sum.

    node_value(q, side) returns the transformed integrand (including any
    jacobian) at the node with offset fraction q from the lower (side -1)
    or upper (side +1) endpoint; the center node is q = 1/2 from the lower
    one.  scale is the half-length of the reference interval.
    """
    total = 0.5 * math.pi * node_value(0.5, -1)
    neval = 1
    previous = None
    last_err = math.inf
    for level in range(0, _MAX_LEVEL + 1):
        fresh = 0.0
        for q, w in _level_nodes(level):
            fresh += w * (node_value(q, -1) + node_value(q, +1))
            neval += 2
        total = total + fresh if level == 0 else 0.5 * total + fresh
        estimate = scale * total
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


def _finite(f: Callable[[float], float], a: float, b: float, tol: float) -> ApproxValue:
    length = b - a

    def node_value(q: float, side: int) -> float:
        if side < 0:
            x = a + length * q
        else:
            x = b - length * q
        y = f(x)
        if not math.isfinite(y):
            raise NonConvergence(f"integrand is {y} at x={x!r}")
        return y

    return _drive(node_value, 0.5 * length, tol)


def _halfline(f: Callable[[float], float], tol: float) -> ApproxValue:
    def node_value(q: float, side: int) -> float:
        if side < 0:
            v = q
            t = -math.log(q)
        else:
            v = 1.0 - q
            t = -math.log1p(-q)
        try:
            y = f(t)
        except OverflowError as exc:  # a part such as t ** e can leave the double range
            raise NonConvergence(f"integrand overflows at t={t!r}") from exc
        if not math.isfinite(y):
            raise NonConvergence(f"integrand is {y} at t={t!r}")
        return y / v

    return _drive(node_value, 0.5, tol)


def integral_I(tol: float = 1e-12) -> ApproxValue:
    """The constant (1/pi) * integral over (0, inf) of log(t) / cosh(t), as one
    half-line rule: its v = 1 - q branch reaches t -> 0 at exact offsets, and
    the clustered nodes absorb log t there, so no piece is split off."""
    check_tol(tol)
    return _halfline(lambda t: math.log(t) / math.cosh(t), tol) * (1.0 / math.pi)


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

    def transformed(u: float) -> float:
        r = (1.0 - u) / u
        return (g(a * r * r + p0) / u) / u

    return 2.0 * _finite(transformed, 0.0, 1.0, 0.5 * tol)
