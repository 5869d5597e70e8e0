"""Floating-point results that carry explicit error bounds.

Every numerical engine in this package returns an ApproxValue rather than a
bare float, so formulas built from several engines can propagate a combined
bound alongside the combined value.  Bounds add under addition and are
propagated through products, quotients, logs, exponentials and square roots
with the exact worst-case interval estimates (these are as cheap as the
first-order ones and stay valid for large bounds).
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
