"""The quadrature's per-node loop, kept in the tests as a reference.

Each node's point is mapped and checked inside a closure call, over the
same node offsets and weights as thetaeval.quadrature.  The engine's
half-line and vertex rules must give the same value, bound and cost bits,
and the same stalls.  reference_finite, the rule over a finite interval
(a, b), is no engine's path: it is the oracle for integrals that the
tests check against the engines.
"""

import math

from thetaeval import quadrature
from thetaeval.approx import ApproxValue, NonConvergence


def reference_drive(node_value, scale, tol):
    total = 0.5 * math.pi * node_value(0.5, -1)
    neval = 1
    previous = None
    last_err = math.inf
    for level in range(0, quadrature._MAX_LEVEL + 1):
        fresh = 0.0
        for q, w in quadrature._level_nodes(level):
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
        f"quadrature stalled above tol={tol:g} after level {quadrature._MAX_LEVEL}",
        value=previous, error_bound=last_err, cost=neval)


def reference_finite(f, a, b, tol):
    length = b - a

    def node_value(q, side):
        x = a + length * q if side < 0 else b - length * q
        y = f(x)
        if not math.isfinite(y):
            raise NonConvergence(f"integrand is {y} at x={x!r}")
        return y

    return reference_drive(node_value, 0.5 * length, tol)


def reference_halfline(f, tol):
    def node_value(q, side):
        if side < 0:
            v = q
            t = -math.log(q)
        else:
            v = 1.0 - q
            t = -math.log1p(-q)
        try:
            y = f(t) / v
        except OverflowError as exc:
            raise NonConvergence(f"integrand overflows at t={t!r}") from exc
        if not math.isfinite(y):
            raise NonConvergence(f"integrand is {y} at t={t!r}")
        return y

    return reference_drive(node_value, 0.5, tol)


def reference_vertex_integral(form, g, tol):
    a, b, c = float(form.a), float(form.b), float(form.c)
    if not (a > 0.0 and 4.0 * a * c - b * b > 0.0):
        raise ValueError("form must be positive definite")
    p0 = c - b * b / (4.0 * a)

    def transformed(u):
        r = (1.0 - u) / u
        try:
            return (g(a * r * r + p0) / u) / u
        except OverflowError as exc:
            raise NonConvergence(f"integrand overflows at x={u!r}") from exc

    return 2.0 * reference_finite(transformed, 0.0, 1.0, 0.5 * tol)
