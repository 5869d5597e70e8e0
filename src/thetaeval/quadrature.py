"""Adaptive double-exponential quadrature and the integrals built on it.

The core rule integrates over (-1, 1) after the change of variable
x = tanh((pi/2) sinh u), applying the trapezoid rule on a uniform u-grid
whose spacing halves per level.  Node positions cluster double
exponentially at the endpoints, which absorbs endpoint singularities of
log or integrable-power type without special casing; the inter-level
difference serves as the (heuristic) error estimate.

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
_LN2 = math.log(2.0)


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
    or upper (side +1) endpoint; side 0 is the center node.  scale is the
    half-length of the reference interval.
    """
    total = 0.5 * math.pi * node_value(0.5, 0)
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
                return ApproxValue(estimate, max(last_err, floor), neval)
        previous = estimate
    raise NonConvergence(
        f"quadrature stalled above tol={tol:g} after level {_MAX_LEVEL}",
        value=previous, error_bound=last_err, cost=neval)


def _finite(f: Callable[[float], float], a: float, b: float, tol: float) -> ApproxValue:
    length = b - a
    half = 0.5 * length

    def node_value(q: float, side: int) -> float:
        if side < 0:
            x = a + length * q
        elif side > 0:
            x = b - length * q
        else:
            x = a + half
        y = f(x)
        return y if math.isfinite(y) else 0.0

    return _drive(node_value, half, tol)


def _halfline(f: Callable[[float], float], tol: float) -> ApproxValue:
    def node_value(q: float, side: int) -> float:
        if side < 0:
            v = q
            t = -math.log(q)
        elif side > 0:
            v = 1.0 - q
            t = -math.log1p(-q)
        else:
            v = 0.5
            t = _LN2
        y = f(t)
        if y == 0.0 or not math.isfinite(y):
            return 0.0
        return y / v

    return _drive(node_value, 0.5, tol)


def integral_I(tol: float = 1e-12) -> ApproxValue:
    """The constant (1/pi) * integral over (0, inf) of log(t) / cosh(t).

    Split at t = 1: the finite piece carries the log singularity at 0, the
    rest is shifted to the half-line rule.
    """
    check_tol(tol)
    part_tol = 0.5 * tol
    near = _finite(lambda t: math.log(t) / math.cosh(t), 0.0, 1.0, part_tol)
    far = _halfline(lambda r: math.log1p(r) / math.cosh(1.0 + r), part_tol)
    return (near + far) * (1.0 / math.pi)


def gamma_integral(s: float, tol: float = 1e-12) -> ApproxValue:
    """Integral over (0, inf) of t**(s-1) * exp(-t), for s > 0.

    For 1/2 <= s < 1 the origin carries an integrable power singularity; the
    clustered nodes of the half-line rule absorb it.  Below 1/2 it is too
    steep for the rule's error estimate and Gamma(s) ~ 1/s, so the value is
    Gamma(s + 1) / s with Gamma(s + 1) to s tol; rounding s + 1 and the
    quotient move it by less than 2 EPS / s.  A stall of the lift is reported
    against s and the caller's tol.
    """
    if not s > 0.0:
        raise ValueError(f"need s > 0, got {s}")
    check_tol(tol)
    if s < 0.5:
        try:
            lifted = gamma_integral(s + 1.0, s * tol)
        except NonConvergence as exc:
            raise NonConvergence(f"gamma_integral stalled at s={s:g} above tol={tol:g}",
                                 exc.value / s, (exc.error_bound + 2.0 * EPS) / s,
                                 exc.cost) from exc
        return (lifted + ApproxValue(0.0, 2.0 * EPS)) / s
    e = s - 1.0
    return _halfline(lambda t: t ** e * math.exp(-t), tol)


def gammaL_integral(s: float, tol: float = 1e-12) -> ApproxValue:
    """Integral over (0, inf) of t**(s-1) / (2 cosh t), for s > 0."""
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
