"""Floating-point results that carry explicit error bounds.

ApproxValue is the one format numbers take between the package's layers:
every numerical engine returns one, through ApproxValue.certified, rather
than a bare float, and each check in suites.py hands its two sides to the
report as two of them.  A value may be complex (theta and eta on the upper
half plane), with one bound on the modulus of its error.  Bounds add under
addition and are propagated through products, quotients, logs, exponentials
and square roots with the exact worst-case interval estimates (these are as
cheap as the first-order ones and stay valid for large bounds); the ones for
sums, products and quotients use only moduli, so they hold for complex
values and complex scalar operands too.  Logs, exponentials and square roots
take real values only and refuse a complex one with ValueError.

This module also holds the package's one limit driver.  limit_at_zero
takes a node function at halving abscissae, evaluates at 0 the polynomial
through its values (Neville), pushes the nodes' own bounds through the same
weights, and returns the limit with the nodes' summed cost.  pole_constant
is its one ladder at the pole s = 1, for the scalar Kronecker limit and
Euler's constant; the Gauss product for Gamma and the central difference use
ladders of their own.
gamma_recurrence reduces Gamma(s) into an engine's window by Gamma(s + 1) =
s Gamma(s), and check_gamma_range holds the one s range of both Gamma routes.
terms_needed is the one truncation search, for the theta and eta series:
the smallest index whose proven tail bound meets a target.
once_per_run shares an engine's positional calls within one run_suites run,
keyed by the argument tuple; no stall is kept, and nothing outlives the run.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = ["ApproxValue", "NonConvergence"]

EPS = 2.2204460492503131e-16    # spacing of doubles at 1.0
_RUN_MEMO = ContextVar("_RUN_MEMO", default=None)  # (engine, args) -> result, in a run


def check_tol(tol: float, what: str = "tolerance", zero_ok: bool = False) -> None:
    """Refuse a tolerance that is not finite and positive (or +0, if zero_ok).

    Engines need tol > 0 to pick a truncation; a record's tolerance may be
    0, but not -0, which a JSON report would write as a negative number.
    """
    zero = zero_ok and tol == 0.0 and math.copysign(1.0, tol) > 0.0
    if not (math.isfinite(tol) and (tol > 0.0 or zero)):
        need = "finite and >= 0, not -0" if zero_ok else "positive and finite"
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

    The value is real or complex; the bound covers the modulus of the
    error.  cost counts primitive evaluations (integrand calls, lattice
    points, series terms); it is additive under the arithmetic below.
    """

    value: float | complex
    error_bound: float
    cost: int = 0

    def __post_init__(self):
        if not cmath.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        if not (math.isfinite(self.error_bound) and self.error_bound >= 0.0):
            raise ValueError(
                f"error bound must be finite and non-negative, got {self.error_bound}")

    def __add__(self, other: "ApproxValue | complex") -> "ApproxValue":
        if isinstance(other, ApproxValue):
            return ApproxValue(self.value + other.value,
                               self.error_bound + other.error_bound,
                               self.cost + other.cost)
        return ApproxValue(self.value + _scalar(other), self.error_bound, self.cost)

    __radd__ = __add__

    def __neg__(self) -> "ApproxValue":
        return ApproxValue(-self.value, self.error_bound, self.cost)

    def __sub__(self, other: "ApproxValue | complex") -> "ApproxValue":
        return self + (-other if isinstance(other, ApproxValue) else -_scalar(other))

    def __mul__(self, other: "ApproxValue | complex") -> "ApproxValue":
        if isinstance(other, ApproxValue):
            bound = (abs(self.value) * other.error_bound
                     + abs(other.value) * self.error_bound
                     + self.error_bound * other.error_bound)
            return ApproxValue(self.value * other.value, bound,
                               self.cost + other.cost)
        c = _scalar(other)
        return ApproxValue(self.value * c, abs(c) * self.error_bound, self.cost)

    __rmul__ = __mul__

    def __truediv__(self, other: "ApproxValue | complex") -> "ApproxValue":
        if isinstance(other, ApproxValue):
            margin = abs(other.value) - other.error_bound
            if margin <= 0.0:
                raise ValueError("division by a value whose bound allows zero")
            bound = (self.error_bound * abs(other.value)
                     + abs(self.value) * other.error_bound) / (abs(other.value) * margin)
            return ApproxValue(self.value / other.value, bound,
                               self.cost + other.cost)
        c = _scalar(other)
        return ApproxValue(self.value / c, self.error_bound / abs(c), self.cost)

    def magnitude(self) -> "ApproxValue":
        # | |z'| - |z| | <= |z' - z|, so the same bound covers the modulus.
        return ApproxValue(abs(self.value), self.error_bound, self.cost)

    def log(self) -> "ApproxValue":
        # Worst case over [value - bound, value + bound]; needs the interval
        # to stay positive.
        self._require_real("log")
        if self.value - self.error_bound <= 0.0:
            raise ValueError("log bound propagation needs value - bound > 0")
        bound = -math.log1p(-self.error_bound / self.value)
        return ApproxValue(math.log(self.value), bound, self.cost)

    def exp(self) -> "ApproxValue":
        self._require_real("exp")
        return ApproxValue(math.exp(self.value),
                           math.exp(self.value) * math.expm1(self.error_bound),
                           self.cost)

    def sqrt(self) -> "ApproxValue":
        self._require_real("sqrt")
        if self.value - self.error_bound < 0.0:
            raise ValueError("sqrt bound propagation needs value - bound >= 0")
        root = math.sqrt(self.value)
        denom = root + math.sqrt(self.value - self.error_bound)
        bound = self.error_bound / denom if denom > 0.0 else math.sqrt(self.error_bound)
        return ApproxValue(root, bound, self.cost)

    def _require_real(self, operation: str) -> None:
        if isinstance(self.value, complex):
            raise ValueError(f"{operation} of a complex value is not supported, "
                             f"got {self.value}")

    def certified(self, tol: float, what: str) -> "ApproxValue":
        """This value if error_bound <= tol * max(1, |value|), the one tolerance
        rule; otherwise raise NonConvergence "WHAT stalled above tol=..." with
        the value, bound and cost."""
        if self.error_bound > tol * max(1.0, abs(self.value)):
            raise NonConvergence(f"{what} stalled above tol={tol:g}", value=self.value,
                                 error_bound=self.error_bound, cost=self.cost)
        return self


def terms_needed(tail, target: float, what: str, first: int = 1, limit: int = 1_000_000) -> int:
    """The smallest n >= first with tail(n) <= target, for a tail bound that
    falls in n; raises NonConvergence once n would pass limit."""
    n = first
    while tail(n) > target:
        n += 1
        if n > limit:
            raise NonConvergence(f"{what} needs more than {limit} terms to reach tail {target:g}")
    return n


def once_per_run(engine):
    @functools.wraps(engine)
    def shared(*args, **kwargs):
        memo = _RUN_MEMO.get()
        if memo is None or kwargs:
            return engine(*args, **kwargs)
        if (engine, args) not in memo:
            memo[engine, args] = engine(*args)
        return memo[engine, args]
    return shared


def _scalar(c: complex) -> complex:
    # A complex operand stays complex (numpy's complex64 too, whose imaginary
    # part float() would drop); anything else becomes a float.
    if isinstance(c, numbers.Complex) and not isinstance(c, numbers.Real):
        return complex(c)
    return float(c)


def limit_at_zero(node, eps0: float, depth: int) -> ApproxValue:
    """Limit at 0 of node(eps) -> ApproxValue: the Neville value at 0 of the
    polynomial through the nodes at eps = eps0 2^-k, k < depth (at least 4,
    all above 0), carrying their summed cost.  The bound adds the last
    diagonal increment (truncation estimate) to the node bounds pushed
    through the same recurrence with absolute coefficients, which is exact
    for the error amplification of the linear extrapolation weights.
    """
    xs = [eps0 * 2.0 ** -k for k in range(depth)]
    if not (depth >= 4 and math.isfinite(eps0) and xs[-1] > 0.0):
        raise ValueError(f"need depth >= 4 and nodes eps0 2^-k above 0, got {eps0}, {depth}")
    nodes = [node(x) for x in xs]
    t = [float(v.value) for v in nodes]
    amp = [v.error_bound for v in nodes]
    corner_prev = t[0]
    corner_gap = math.inf
    for m in range(1, depth):
        for i in range(depth - m):
            denom = xs[i + m] - xs[i]
            w_hi = xs[i + m] / denom
            w_lo = -xs[i] / denom
            t[i] = w_hi * t[i] + w_lo * t[i + 1]
            amp[i] = abs(w_hi) * amp[i] + abs(w_lo) * amp[i + 1]
        corner_gap = abs(t[0] - corner_prev)
        corner_prev = t[0]
    return ApproxValue(t[0], corner_gap + amp[0] + 8.0 * EPS * (1.0 + abs(t[0])),
                       sum(v.cost for v in nodes))


def pole_constant(regular) -> ApproxValue:
    """Limit at s = 1 of regular(s) -> ApproxValue, from s = 1 + 0.1 2^-k,
    k < 8.  A regular part that subtracts 1/(s - 1) must form s - 1 from the
    s it is given (exact for s in [1, 2]), not from eps: 1 + eps rounds."""
    return limit_at_zero(lambda eps: regular(1.0 + eps), 0.1, 8)


def check_gamma_range(s: float) -> None:
    if not 2.0 ** -1022 <= s <= 171.0:
        raise ValueError(f"need 2^-1022 <= s <= 171, as Gamma(s) leaves the double range "
                         f"below about 5.6e-309 and past 171.62; got s={s}")


def gamma_recurrence(gamma, s: float, tol: float, low: float, top: float) -> ApproxValue:
    """Gamma(s) outside [low, top] from one call of gamma, an engine on it:
    below low Gamma(s + 1) / s, Gamma(s + 1) to s tol, plus 2 EPS / s
    rounding; above top (s-1)...(s-k) Gamma(s - k), s - k in (top - 1, top],
    Gamma(s - k) to tol and the factor exact from s = m / d, rounded once:
    2 EPS |value| for any k.  A stall of gamma names s and the caller's tol
    and carries the partial Gamma(s)."""
    if s < low:
        inner, inner_tol = s + 1.0, s * tol
    else:
        k = math.ceil(s - top)
        m, d = s.as_integer_ratio()
        factor = math.prod(m - j * d for j in range(1, k + 1)) / d ** k
        inner, inner_tol = s - k, tol
    try:
        g, stall = gamma(inner, inner_tol), None
    except NonConvergence as exc:
        g, stall = ApproxValue(exc.value, exc.error_bound, exc.cost), exc
    pad = ApproxValue(0.0, 2.0 * EPS * (1.0 if s < low else g.value))
    g = (g + pad) / s if s < low else (g + pad) * factor
    if stall is not None:
        raise NonConvergence(f"{gamma.__name__} stalled at s={s:g} above tol={tol:g}",
                             g.value, g.error_bound, g.cost) from stall
    return g.certified(tol, f"Gamma({s:g})")
