"""Floating-point results that carry explicit error bounds.

Every numerical engine in this package returns an ApproxValue rather than a
bare float, so formulas built from several engines can propagate a combined
bound alongside the combined value.  Bounds add under addition and are
propagated through products, quotients, logs, exponentials and square roots
with the exact worst-case interval estimates (these are as cheap as the
first-order ones and stay valid for large bounds).

This module also holds the package's one limit driver.  extrapolate_to_zero
evaluates at 0 the polynomial through values taken at halving abscissae
(Neville), pushing the nodes' own bounds through the same weights, and
_limit_at_zero builds such a table from a node function.  The pole-gap
limits in kronecker.py, the Gauss product for Gamma in special_values.py
and the central difference in suites.py all take their limits through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EPS = 2.2204460492503131e-16    # spacing of doubles at 1.0


def check_tol(tol: float, what: str = "tolerance", zero_ok: bool = False) -> None:
    """Refuse a tolerance that is not finite and positive (or zero, if zero_ok).

    Engines need tol > 0 to pick a truncation; a record's tolerance may be 0.
    """
    if not (math.isfinite(tol) and (tol > 0.0 or zero_ok and tol == 0.0)):
        need = "finite and >= 0" if zero_ok else "positive and finite"
        raise ValueError(f"{what} must be {need}, got {tol}")


class NonConvergence(RuntimeError):
    """An iterative engine hit its budget before reaching the target bound.

    Carries the best value reached and the bound it did achieve, so callers
    can still report a partial result.
    """

    def __init__(self, message: str, value: float | None = None,
                 error_bound: float | None = None, cost: int = 0):
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound
        self.cost = cost


@dataclass(frozen=True)
class ApproxValue:
    """A value, a bound on its absolute error, and the work it cost.

    cost counts primitive evaluations (integrand calls, lattice points,
    series terms); it is additive under the arithmetic below.
    """

    value: float
    error_bound: float
    cost: int = 0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        if not (math.isfinite(self.error_bound) and self.error_bound >= 0.0):
            raise ValueError(
                f"error bound must be finite and non-negative, got {self.error_bound}")

    def __add__(self, other: "ApproxValue | float") -> "ApproxValue":
        if isinstance(other, ApproxValue):
            return ApproxValue(self.value + other.value,
                               self.error_bound + other.error_bound,
                               self.cost + other.cost)
        return ApproxValue(self.value + float(other), self.error_bound, self.cost)

    __radd__ = __add__

    def __neg__(self) -> "ApproxValue":
        return ApproxValue(-self.value, self.error_bound, self.cost)

    def __sub__(self, other: "ApproxValue | float") -> "ApproxValue":
        return self + (-other if isinstance(other, ApproxValue) else -float(other))

    def __rsub__(self, other: float) -> "ApproxValue":
        return (-self) + float(other)

    def __mul__(self, other: "ApproxValue | float") -> "ApproxValue":
        if isinstance(other, ApproxValue):
            bound = (abs(self.value) * other.error_bound
                     + abs(other.value) * self.error_bound
                     + self.error_bound * other.error_bound)
            return ApproxValue(self.value * other.value, bound,
                               self.cost + other.cost)
        c = float(other)
        return ApproxValue(self.value * c, abs(c) * self.error_bound, self.cost)

    __rmul__ = __mul__

    def __truediv__(self, other: "ApproxValue | float") -> "ApproxValue":
        if isinstance(other, ApproxValue):
            margin = abs(other.value) - other.error_bound
            if margin <= 0.0:
                raise ValueError("division by a value whose bound allows zero")
            bound = (self.error_bound * abs(other.value)
                     + abs(self.value) * other.error_bound) / (abs(other.value) * margin)
            return ApproxValue(self.value / other.value, bound,
                               self.cost + other.cost)
        c = float(other)
        return ApproxValue(self.value / c, self.error_bound / abs(c), self.cost)

    def log(self) -> "ApproxValue":
        # Worst case over [value - bound, value + bound]; needs the interval
        # to stay positive.
        if self.value - self.error_bound <= 0.0:
            raise ValueError("log bound propagation needs value - bound > 0")
        bound = -math.log1p(-self.error_bound / self.value)
        return ApproxValue(math.log(self.value), bound, self.cost)

    def exp(self) -> "ApproxValue":
        return ApproxValue(math.exp(self.value),
                           math.exp(self.value) * math.expm1(self.error_bound),
                           self.cost)

    def sqrt(self) -> "ApproxValue":
        if self.value - self.error_bound < 0.0:
            raise ValueError("sqrt bound propagation needs value - bound >= 0")
        root = math.sqrt(self.value)
        denom = root + math.sqrt(self.value - self.error_bound)
        bound = self.error_bound / denom if denom > 0.0 else math.sqrt(self.error_bound)
        return ApproxValue(root, bound, self.cost)


@dataclass(frozen=True)
class ExtrapolationTable:
    """Record of a limit taken along decreasing abscissae: nodes, value, bound."""

    abscissae: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float
    error_bound: float

    def __post_init__(self):
        if len(self.abscissae) < 4:
            raise ValueError("need at least 4 nodes to extrapolate")
        if len(self.abscissae) != len(self.values):
            raise ValueError("abscissae and values must align")
        for x in self.abscissae:
            if not (math.isfinite(x) and x > 0.0):
                raise ValueError(f"abscissae must be positive, got {x}")
        for lo, hi in zip(self.abscissae[1:], self.abscissae):
            if not lo < hi:
                raise ValueError("abscissae must decrease strictly")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite node value {v}")
        if not (math.isfinite(self.extrapolated)
                and math.isfinite(self.error_bound) and self.error_bound >= 0.0):
            raise ValueError("bad extrapolation result")


def extrapolate_to_zero(abscissae, values, value_bounds=None) -> ExtrapolationTable:
    """Neville evaluation at 0 of the polynomial through (x_k, y_k).

    The reported bound adds the last diagonal increment (truncation
    estimate) to the node bounds pushed through the same recurrence with
    absolute coefficients, which is exact for the error amplification of
    the linear extrapolation weights.
    """
    xs = [float(x) for x in abscissae]
    t = [float(y) for y in values]
    n = len(xs)
    if n < 4 or len(t) != n:
        raise ValueError("need at least 4 aligned nodes")
    amp = [0.0] * n if value_bounds is None else [float(b) for b in value_bounds]
    if len(amp) != n:
        raise ValueError("value_bounds must align with values")
    corner_prev = t[0]
    corner_gap = math.inf
    for m in range(1, n):
        for i in range(n - m):
            denom = xs[i + m] - xs[i]
            w_hi = xs[i + m] / denom
            w_lo = -xs[i] / denom
            t[i] = w_hi * t[i] + w_lo * t[i + 1]
            amp[i] = abs(w_hi) * amp[i] + abs(w_lo) * amp[i + 1]
        corner_gap = abs(t[0] - corner_prev)
        corner_prev = t[0]
    bound = corner_gap + amp[0] + 8.0 * EPS * (1.0 + abs(t[0]))
    return ExtrapolationTable(tuple(xs), tuple(float(y) for y in values), t[0], bound)


def _limit_at_zero(node, eps0: float, depth: int) -> tuple[ExtrapolationTable, int]:
    """Extrapolate node(eps) -> ApproxValue from eps = eps0 2^-k, k < depth, to 0.

    Returns the table and the summed cost of the nodes.
    """
    xs, vals, bounds, cost = [], [], [], 0
    for k in range(depth):
        eps = eps0 * 2.0 ** -k
        value = node(eps)
        xs.append(eps)
        vals.append(value.value)
        bounds.append(value.error_bound)
        cost += value.cost
    return extrapolate_to_zero(xs, vals, bounds), cost
