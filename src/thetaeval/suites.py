"""Verification suites: named groups of checks producing report records.

Engines return bounded values; this module turns them into records.  A
suite function takes the run configuration and a `check` callable, and
declares each check as `check(name, anchor, default_tol, builder)`, where
builder() returns the two sides as ApproxValues (kronecker's
scalar_limit_sides is one): a closed-form target is ApproxValue(target,
rounding), a gap checked against zero is ApproxValue(gap, bound) against an
exact zero.  Sides built from engine results, complex theta and eta values
included, come from ApproxValue arithmetic, which propagates their bounds.
`run_suites` supplies `check`, opens the run's memo (approx.once_per_run),
the checks' one way to share an engine result, and builds every record
through report.timed_record, which adds the two sides' bounds: it looks up
the tolerance, times the builder, keeps an engine failure (a non-finite side
included) to its own check and sorts each suite's records by name.  Default
tolerances live here, next to the checks they gate; an override per record
name through the configuration changes the verdict only, never how a value
is computed.  RunConfig lives here too, with SUITE_NAMES, the key order of
SUITES.  It holds only what run_suites reads (suites, order, forms and
tolerance overrides; the report file is the CLI's), and building it makes
every configuration check once, form labels and override names included, so
run_suites only runs checks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .approx import (EPS, _RUN_MEMO, ApproxValue, NonConvergence, check_tol, limit_at_zero,
                     once_per_run, pole_constant)
from .epstein import BinaryQuadraticForm, epstein_accelerated, epstein_direct
from .kronecker import (
    _minus_two_log_eta,
    kronecker_lhs,
    kronecker_rhs,
    l1_series,
    scalar_limit_sides,
    theta_at_i_assembly,
)
from .modular import UpperHalfPoint, eta_quotient, eta_uhp, theta_uhp
from .number_theory import r_bruteforce_table, r_divisor_table
from .qseries import qs_mul, theta_qseries, triple_product_qseries
from .quadrature import (
    f_form,
    f_form_derivative_at_1,
    gamma_integral,
    gammaL_integral,
    integral_I,
)
from .report import VerificationRecord, timed_record
from .special_values import (
    L_chi4,
    L_chi4_prime_at_1,
    euler_gamma,
    gamma_gauss,
    zeta,
)

__all__ = ["DEFAULT_FORMS", "SUITE_NAMES", "SUITES", "RunConfig", "run_suites"]


_ZERO = ApproxValue(0.0, 0.0)


def _s_label(s: float) -> str:
    return format(s, ".17g")


def _exact_gap(lhs, rhs) -> tuple[ApproxValue, ApproxValue]:
    # Largest |lhs[n] - rhs[n]| over two tuples of Python ints, against 0.
    # Equal tuples compare in C; only unequal ones are scanned for the gap.
    gap = 0 if lhs == rhs else max(abs(x - y) for x, y in zip(lhs, rhs, strict=True))
    return ApproxValue(float(gap), 0.0), _ZERO


def _suite_triple_product(config: RunConfig, check) -> None:
    order = config.qseries_order

    def theta_vs_product():
        return _exact_gap(theta_qseries(order).coeffs, triple_product_qseries(order).coeffs)

    check("triple-product/theta-vs-product", "Lemma 1", 0.0, theta_vs_product)


def _suite_two_squares(config: RunConfig, check) -> None:
    # Whole tables of r(1..order); number_theory imports nothing, so the memo wraps here.
    order = config.qseries_order

    def divisor_vs_bruteforce():
        return _exact_gap(once_per_run(r_divisor_table)(order)[1:], r_bruteforce_table(order)[1:])

    def theta_square_vs_divisor():
        theta = theta_qseries(order)
        return _exact_gap(qs_mul(theta, theta).coeffs[1:], once_per_run(r_divisor_table)(order)[1:])

    check("two-squares/bruteforce-vs-divisor", "Lemma 2", 0.0, divisor_vs_bruteforce)
    check("two-squares/theta-squared-vs-divisor", "§3", 0.0, theta_square_vs_divisor)


def _suite_integral(config: RunConfig, check) -> None:
    def exp_i_check():
        lhs = integral_I(1e-12).exp()
        quotient = gamma_integral(0.75, 1e-13) / gamma_integral(0.25, 1e-13)
        return lhs, math.sqrt(2.0 * math.pi) * quotient

    check("integral/exp-I-vs-gamma-quotient", "Lemma 4", 1e-10, exp_i_check)

    def reflection_check():
        product = gamma_integral(0.25, 1e-13) * gamma_integral(0.75, 1e-13)
        target = math.pi * math.sqrt(2.0)
        return product, ApproxValue(target, 4.0 * EPS * target)

    check("integral/gamma-reflection-quarter", "§1", 1e-10, reflection_check)

    for form in config.forms:
        def value_check(q=form):
            got = f_form(q, 1.0, 1e-12)
            target = -q.lam
            return got, ApproxValue(target, 4.0 * EPS * abs(target))

        check(f"integral/f-at-1/{form.label}", "Prop. 3", 1e-10, value_check)

        def slope_check(q=form):
            got = f_form_derivative_at_1(q, 1e-11)
            target = -(2.0 * q.lam) * math.log(math.sqrt(q.a / q.disc))
            return got, ApproxValue(target, 4.0 * EPS * abs(target))

        check(f"integral/f-prime-at-1/{form.label}", "eq. (1)", 1e-8, slope_check)


def _suite_special_values(config: RunConfig, check) -> None:
    def zeta_two():
        return zeta(2.0, 1e-13), ApproxValue(math.pi ** 2 / 6.0, 4.0 * EPS)

    check("special-values/zeta-at-2", "Prop. 3", 1e-12, zeta_two)

    def l_one():
        return L_chi4(1.0, 1e-13), ApproxValue(math.pi / 4.0, 4.0 * EPS)

    check("special-values/L-at-1", "Lemma 2", 1e-12, l_one)

    def zeta_regular(s: float) -> ApproxValue:
        # s - 1 is exact for s in [1, 2]; EPS / d covers rounding 1 / d.
        d = s - 1.0
        return zeta(s, 1e-11) - ApproxValue(1.0 / d, EPS / d)

    def pole_check():
        return pole_constant(zeta_regular), euler_gamma(1e-13)

    check("special-values/zeta-pole-constant", "§3", 1e-3, pole_check)

    def gauss_reflection():
        product = gamma_gauss(0.25, 1e-8) * gamma_gauss(0.75, 1e-8)
        target = math.pi * math.sqrt(2.0)
        return product, ApproxValue(target, 4.0 * EPS * target)

    check("special-values/gauss-gamma-reflection", "§1", 1e-8, gauss_reflection)

    def product_rule() -> ApproxValue:
        gamma = euler_gamma(1e-13)
        slope = L_chi4_prime_at_1(1e-11)
        return slope - (math.pi / 4.0) * gamma

    def difference_quotient(x: float) -> ApproxValue:
        # Symmetric quotient at half-width h = sqrt(x); its defect is even
        # in h, so a series in x.  1 + h and 1 - h round, so divide by the
        # width they actually span; EPS |q| covers the quotient's rounding.
        h = math.sqrt(x)
        s_hi, s_lo = 1.0 + h, 1.0 - h
        q = (gammaL_integral(s_hi, 1e-13) - gammaL_integral(s_lo, 1e-13)) / (s_hi - s_lo)
        return q + ApproxValue(0.0, EPS * abs(q.value))

    def central_difference() -> ApproxValue:
        return limit_at_zero(difference_quotient, 2.0 ** -8, 6)

    def half_pi_integral() -> ApproxValue:
        return (math.pi / 2.0) * integral_I(1e-12)

    routes = (
        ("product-rule", product_rule),
        ("central-difference", central_difference),
        ("half-pi-integral", half_pi_integral),
    )
    for (name_f, f), (name_g, g) in itertools.combinations(routes, 2):
        def pair_check(f=f, g=g):
            return f(), g()

        check(f"special-values/gammaL-slope/{name_f}-vs-{name_g}",
              "§3", 1e-6, pair_check)


_DIRICHLET_S = (1.5, 2.0, 3.0, 1.0 + 2.0 ** -10)
# The direct-vs-accelerated grid of s.  The direct engine's work grows like
# tol^(-1/(s - 1/2)), so each s gets its own tolerance, just below the
# bounds these checks have reported on the four standard forms.
_DIRECT_TOL = {1.25: 5e-2, 1.5: 3e-3, 2.0: 1e-5, 3.0: 2e-10}


def _suite_epstein(config: RunConfig, check) -> None:
    unit = BinaryQuadraticForm(1.0, 0.0, 1.0)

    # Every check asks at 1e-10, so the run's memo takes each (form, s) once.
    for s in _DIRICHLET_S:
        def dirichlet_check(s=s):
            return (epstein_accelerated(unit, s, 1e-10),
                    4.0 * (zeta(s, 1e-12) * L_chi4(s, 1e-12)))

        check(f"epstein/accelerated-vs-dirichlet/s={_s_label(s)}",
              "Lemma 2", 1e-9, dirichlet_check)

    for form in config.forms:
        for s, tol in _DIRECT_TOL.items():
            def engines_check(q=form, s=s, tol=tol):
                return epstein_direct(q, s, tol), epstein_accelerated(q, s, 1e-10)

            check(f"epstein/direct-vs-accelerated/{form.label}/s={_s_label(s)}",
                  "§3", 0.0, engines_check)

    def unimodular_check():
        return tuple(epstein_accelerated(q, 1.5, 1e-10).certified(1e-12, "accelerated lattice sum")
                     for q in (unit, BinaryQuadraticForm(2.0, -2.0, 1.0)))

    check("epstein/unimodular-equivalence/s=1.5", "§3", 0.0, unimodular_check)


def _suite_kronecker(config: RunConfig, check) -> None:
    for form in config.forms:
        def limit_check(q=form):
            return kronecker_lhs(q, 1e-8), kronecker_rhs(q, 1e-13)

        check(f"kronecker/lhs-vs-rhs/{form.label}", "Prop. 3", 1e-6, limit_check)

        def series_check(q=form):
            return l1_series(q, 1e-11), _minus_two_log_eta(q, 1e-13)

        check(f"kronecker/l1-vs-eta-log/{form.label}", "eq. (1)", 1e-10, series_check)

    check("kronecker/scalar-limit-vs-integral", "§3", 1e-8, scalar_limit_sides)


_QUOTIENT_POINTS = (
    UpperHalfPoint(0.0, 1.0),
    UpperHalfPoint(0.3, 1.7),
    UpperHalfPoint(0.0, 3.0),
)


def _suite_theta(config: RunConfig, check) -> None:
    def four_routes():
        # Worst pairwise gap against the summed bounds of the two worst routes.
        routes = theta_at_i_assembly()
        worst = max(abs(a.value - b.value) for a, b in itertools.combinations(routes, 2))
        bounds = sorted(r.error_bound for r in routes)
        return ApproxValue(worst, bounds[-1] + bounds[-2]), _ZERO

    check("theta/value-at-i-four-routes", "Theorem 1", 1e-10, four_routes)

    for z in _QUOTIENT_POINTS:
        def quotient_check(z=z):
            # Components to a quarter of the default tolerance; the record
            # compares the modulus of the complex mismatch against zero.
            mismatch = theta_uhp(z, 0.25e-12) - eta_quotient(z, 0.25e-12)
            return mismatch.magnitude(), _ZERO

        check(f"theta/quotient-identity/z={z.re:g}+{z.im:g}i",
              "§3", 1e-12, quotient_check)

    def shift_check():
        return (eta_uhp(UpperHalfPoint(1.0, 1.0), 1e-13).magnitude(),
                eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-13).magnitude())

    check("theta/eta-shift-modulus", "§3", 0.0, shift_check)

    def series_vs_qseries():
        z = UpperHalfPoint(0.0, 2.0)
        direct = theta_uhp(z, 1e-13)
        q = math.exp(-2.0 * math.pi)
        coeffs = theta_qseries(64).coeffs
        value = math.fsum(c * q ** n for n, c in enumerate(coeffs))
        tail = 3.0 * q ** 65 / (1.0 - q)
        return direct.magnitude(), ApproxValue(value, tail + 8.0 * EPS)

    check("theta/series-at-2i-vs-qseries", "Theorem 1", 1e-12, series_vs_qseries)


SUITES = {
    "triple-product": _suite_triple_product,
    "two-squares": _suite_two_squares,
    "integral": _suite_integral,
    "special-values": _suite_special_values,
    "epstein": _suite_epstein,
    "kronecker": _suite_kronecker,
    "theta": _suite_theta,
}

SUITE_NAMES = tuple(SUITES)

DEFAULT_FORMS = ((1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0))

# The largest q-series order: verify triple-product two-squares takes 2.1 to
# 3.2 s (median 2.6 s) and 69.3 to 69.5 MB there on a 2-vCPU host; each
# doubling costs 2.4 to 3.3 times the time (0.34 s at 2^17, 0.79 s at 2^18)
# and 1.5 to 1.6 times the peak RSS.
_MAX_ORDER = 2 ** 19


@dataclass(frozen=True)
class RunConfig:
    """What run_suites reads for one run, all checked when it is built.

    suites may name a suite more than once and in any order; it is reduced
    to the canonical order of SUITE_NAMES; forms, (a, b, c) triples or
    forms, become BinaryQuadraticForms; a built config is read-only.
    """

    suites: tuple[str, ...] = SUITE_NAMES
    qseries_order: int = 256          # also the n-range of the two-squares suite
    forms: tuple[BinaryQuadraticForm, ...] = DEFAULT_FORMS
    tol_overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suite(s) {', '.join(unknown)}; "
                             f"choose from {', '.join(SUITE_NAMES)}")
        object.__setattr__(self, "suites", tuple(s for s in SUITE_NAMES if s in self.suites))
        object.__setattr__(self, "tol_overrides", MappingProxyType(dict(self.tol_overrides)))
        if not (isinstance(self.qseries_order, int) and 16 <= self.qseries_order <= _MAX_ORDER):
            raise ValueError(f"order must be an integer from 16 to {_MAX_ORDER}, "
                             f"got {self.qseries_order!r}")
        object.__setattr__(self, "forms", tuple(
            f if isinstance(f, BinaryQuadraticForm) else BinaryQuadraticForm(*f) for f in self.forms))
        for name, tol in self.tol_overrides.items():
            check_tol(tol, f"tolerance override {name}", zero_ok=True)
        labels = [form.label for form in self.forms]
        shared = sorted({label for label in labels if labels.count(label) > 1})
        if shared:
            raise ValueError(f"forms share the record label {', '.join(shared)}; "
                             f"labels keep 6 significant digits")
        if self.tol_overrides:
            names: set[str] = set()
            for suite in self.suites:
                SUITES[suite](self, lambda name, *_: names.add(name))
            unknown = sorted(set(self.tol_overrides) - names)
            if unknown:
                raise ValueError(f"tolerance override names no check in this run: "
                                 f"{', '.join(unknown)}")

    def tolerance(self, name: str, default: float) -> float:
        return self.tol_overrides.get(name, default)


def run_suites(
        config: RunConfig) -> tuple[list[VerificationRecord], list[tuple[str, Exception]]]:
    """Run the configured suites in order and build every record.

    Records come sorted by name within each suite.  An engine that gives up
    (NonConvergence) or fails on its input (ArithmeticError, ValueError)
    ends its own check only: the second item lists each such check's name
    with the exception, and every other check still runs.
    """
    records: list[VerificationRecord] = []
    stalls: list[tuple[str, Exception]] = []
    token = _RUN_MEMO.set({})
    try:
        for suite in config.suites:
            finished: list[VerificationRecord] = []

            def check(name, anchor, default_tol, builder):
                tol = config.tolerance(name, default_tol)
                try:
                    finished.append(timed_record(name, anchor, tol, builder))
                except (NonConvergence, ArithmeticError, ValueError) as exc:
                    stalls.append((name, exc))

            SUITES[suite](config, check)
            records.extend(sorted(finished, key=lambda r: r.name))
    finally:
        _RUN_MEMO.reset(token)
    return records, stalls
