"""Verification suites: named groups of checks producing report records.

Engines return bounded values; this module turns them into records.  A
suite function takes the run configuration and a `check` callable, and
declares each of its checks as `check(name, anchor, default_tol, builder)`,
where builder() returns (lhs, rhs, combined_bound).  `run_suites` supplies
`check` and builds every record: it looks up the tolerance, times the
builder, keeps an engine failure to its own check and sorts each suite's
records by name.  Default tolerances live here, next to the checks they
gate; any of them can be overridden per record name through the
configuration, and an override changes the verdict only, never how a value
is computed.
"""

from __future__ import annotations

import itertools
import math

from .approx import EPS, ApproxValue, NonConvergence
from .epstein import BinaryQuadraticForm, epstein_accelerated, epstein_direct
from .kronecker import (
    kronecker_lhs,
    kronecker_rhs,
    l1_series,
    target_limit_check,
    theta_at_i_assembly,
)
from .modular import UpperHalfPoint, eta_quotient, eta_uhp, theta_uhp
from .number_theory import r_bruteforce, r_divisor
from .qseries import r_from_theta_squared, theta_qseries, triple_product_qseries
from .quadrature import (
    f_form,
    f_form_derivative_at_1,
    gamma_integral,
    gammaL_integral,
    integral_I,
)
from .report import RunConfig, VerificationRecord, timed_record
from .special_values import (
    L_chi4,
    L_chi4_prime_at_1,
    euler_gamma,
    gamma_gauss,
    zeta,
)

__all__ = ["SUITES", "run_suites"]


def _form_label(form: tuple[float, float, float]) -> str:
    return ",".join(format(v, "g") for v in form)


def _s_label(s: float) -> str:
    return format(s, ".17g")


def _suite_triple_product(config: RunConfig, check) -> None:
    order = config.qseries_order

    def theta_vs_product():
        lhs = theta_qseries(order)
        rhs = triple_product_qseries(order)
        gap = max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs))
        return float(gap), 0.0, 0.0

    check("triple-product/theta-vs-product", "Lemma 1", 0.0, theta_vs_product)


def _suite_two_squares(config: RunConfig, check) -> None:
    order = config.qseries_order

    def divisor_vs_bruteforce():
        gap = max(abs(r_divisor(n) - r_bruteforce(n)) for n in range(1, order + 1))
        return float(gap), 0.0, 0.0

    def theta_square_vs_divisor():
        gap = max(abs(r_from_theta_squared(n, order) - r_divisor(n))
                  for n in range(1, order + 1))
        return float(gap), 0.0, 0.0

    check("two-squares/bruteforce-vs-divisor", "Lemma 2", 0.0, divisor_vs_bruteforce)
    check("two-squares/theta-squared-vs-divisor", "§3", 0.0, theta_square_vs_divisor)


def _suite_integral(config: RunConfig, check) -> None:
    def exp_i_check():
        lhs = integral_I(1e-12).exp()
        quotient = gamma_integral(0.75, 1e-13) / gamma_integral(0.25, 1e-13)
        rhs = math.sqrt(2.0 * math.pi) * quotient
        return lhs.value, rhs.value, lhs.error_bound + rhs.error_bound

    check("integral/exp-I-vs-gamma-quotient", "Lemma 4", 1e-10, exp_i_check)

    def reflection_check():
        product = gamma_integral(0.25, 1e-13) * gamma_integral(0.75, 1e-13)
        target = math.pi * math.sqrt(2.0)
        return product.value, target, product.error_bound + 4.0 * EPS * target

    check("integral/gamma-reflection-quarter", "§1", 1e-10, reflection_check)

    for triple in config.forms:
        form = BinaryQuadraticForm(*triple)
        label = _form_label(triple)

        def value_check(q=form):
            got = f_form(q, 1.0, 1e-12)
            target = -2.0 * math.pi / math.sqrt(q.disc)
            return got.value, target, got.error_bound + 4.0 * EPS * abs(target)

        check(f"integral/f-at-1/{label}", "Prop. 3", 1e-10, value_check)

        def slope_check(q=form):
            got = f_form_derivative_at_1(q, 1e-11)
            target = -(4.0 * math.pi / math.sqrt(q.disc)) * math.log(
                math.sqrt(q.a / q.disc))
            return got.value, target, got.error_bound + 4.0 * EPS * abs(target)

        check(f"integral/f-prime-at-1/{label}", "eq. (1)", 1e-8, slope_check)


def _suite_special_values(config: RunConfig, check) -> None:
    def zeta_two():
        got = zeta(2.0, 1e-13)
        return got.value, math.pi ** 2 / 6.0, got.error_bound + 4.0 * EPS

    check("special-values/zeta-at-2", "Prop. 3", 1e-12, zeta_two)

    def l_one():
        got = L_chi4(1.0, 1e-13)
        return got.value, math.pi / 4.0, got.error_bound + 4.0 * EPS

    check("special-values/L-at-1", "Lemma 2", 1e-12, l_one)

    def pole_constant():
        delta = 1e-4
        got = zeta(1.0 + delta, 1e-11)
        gamma = euler_gamma(1e-13)
        lhs = got.value - 1.0 / delta
        bound = got.error_bound + gamma.error_bound + 1e4 * 4.0 * EPS
        return lhs, gamma.value, bound + 1e-4

    check("special-values/zeta-pole-constant", "§3", 1e-3, pole_constant)

    def gauss_reflection():
        product = gamma_gauss(0.25, 1e-8) * gamma_gauss(0.75, 1e-8)
        target = math.pi * math.sqrt(2.0)
        return product.value, target, product.error_bound + 4.0 * EPS * target

    check("special-values/gauss-gamma-reflection", "§1", 1e-8, gauss_reflection)

    def product_rule() -> ApproxValue:
        gamma = euler_gamma(1e-13)
        slope = L_chi4_prime_at_1(1e-11)
        return slope - (math.pi / 4.0) * gamma

    def central_difference() -> ApproxValue:
        h = 1e-4
        hi = gammaL_integral(1.0 + h, 1e-13)
        lo = gammaL_integral(1.0 - h, 1e-13)
        value = (hi.value - lo.value) / (2.0 * h)
        # Final term: truncation allowance for the O(h^2) difference defect.
        bound = (hi.error_bound + lo.error_bound) / (2.0 * h) + 1e-7
        return ApproxValue(value, bound, hi.cost + lo.cost)

    def half_pi_integral() -> ApproxValue:
        return (math.pi / 2.0) * integral_I(1e-12)

    routes = (
        ("product-rule", product_rule),
        ("central-difference", central_difference),
        ("half-pi-integral", half_pi_integral),
    )
    for i in range(len(routes)):
        for j in range(i + 1, len(routes)):
            name_i, fn_i = routes[i]
            name_j, fn_j = routes[j]

            def pair_check(f=fn_i, g=fn_j):
                left = f()
                right = g()
                return left.value, right.value, left.error_bound + right.error_bound

            check(f"special-values/gammaL-slope/{name_i}-vs-{name_j}",
                  "§3", 1e-6, pair_check)


_DIRICHLET_S = (1.5, 2.0, 3.0, 1.0 + 2.0 ** -10)
_GRID_S = (1.25, 1.5, 2.0, 3.0)
_DIRECT_RADIUS = 256


def _suite_epstein(config: RunConfig, check) -> None:
    unit = BinaryQuadraticForm(1.0, 0.0, 1.0)

    for s in _DIRICHLET_S:
        def dirichlet_check(s=s):
            got = epstein_accelerated(unit, s, 1e-10)
            target = 4.0 * (zeta(s, 1e-12) * L_chi4(s, 1e-12))
            return got.value, target.value, got.error_bound + target.error_bound

        check(f"epstein/accelerated-vs-dirichlet/s={_s_label(s)}",
              "Lemma 2", 1e-9, dirichlet_check)

    for triple in config.forms:
        form = BinaryQuadraticForm(*triple)
        label = _form_label(triple)
        for s in _GRID_S:
            def engines_check(q=form, s=s):
                slow = epstein_direct(q, s, _DIRECT_RADIUS)
                fast = epstein_accelerated(q, s, 1e-10)
                return slow.value, fast.value, slow.error_bound + fast.error_bound

            check(f"epstein/direct-vs-accelerated/{label}/s={_s_label(s)}",
                  "§3", 0.0, engines_check)

    def unimodular_check():
        left = epstein_accelerated(unit, 1.5, 1e-12)
        right = epstein_accelerated(BinaryQuadraticForm(2.0, -2.0, 1.0), 1.5, 1e-12)
        return left.value, right.value, left.error_bound + right.error_bound

    check("epstein/unimodular-equivalence/s=1.5", "§3", 0.0, unimodular_check)


def _suite_kronecker(config: RunConfig, check) -> None:
    for triple in config.forms:
        form = BinaryQuadraticForm(*triple)
        label = _form_label(triple)

        def limit_check(q=form):
            left = kronecker_lhs(q, 1e-8)
            right = kronecker_rhs(q, 1e-11)
            return left.value, right.value, left.error_bound + right.error_bound

        check(f"kronecker/lhs-vs-rhs/{label}", "Prop. 3", 1e-6, limit_check)

        def series_check(q=form):
            left = l1_series(q, 1e-11)
            mag = eta_uhp(q.z_point(), 1e-13).magnitude()
            right = -2.0 * mag.log()
            return left.value, right.value, left.error_bound + right.error_bound

        check(f"kronecker/l1-vs-eta-log/{label}", "eq. (1)", 1e-10, series_check)

    def scalar_limit_check():
        # Only the numbers are kept: this check's record carries the tolerance.
        record = target_limit_check(0.0)
        return record.lhs, record.rhs, record.combined_bound

    check("kronecker/scalar-limit-vs-integral", "§3", 1e-8, scalar_limit_check)


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
        return worst, 0.0, bounds[-1] + bounds[-2]

    check("theta/value-at-i-four-routes", "Theorem 1", 1e-10, four_routes)

    for z in _QUOTIENT_POINTS:
        def quotient_check(z=z):
            # Components to a quarter of the default tolerance; the record
            # compares the modulus of the complex mismatch against zero.
            series = theta_uhp(z, 0.25e-12)
            product = eta_quotient(z, 0.25e-12)
            mismatch = abs(series.as_complex() - product.as_complex())
            return mismatch, 0.0, series.error_bound + product.error_bound

        check(f"theta/quotient-identity/z={z.re:g}+{z.im:g}i",
              "§3", 1e-12, quotient_check)

    def shift_check():
        left = eta_uhp(UpperHalfPoint(1.0, 1.0), 1e-13).magnitude()
        right = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-13).magnitude()
        return left.value, right.value, left.error_bound + right.error_bound

    check("theta/eta-shift-modulus", "§3", 0.0, shift_check)

    def series_vs_qseries():
        z = UpperHalfPoint(0.0, 2.0)
        direct = theta_uhp(z, 1e-13)
        q = math.exp(-2.0 * math.pi)
        coeffs = theta_qseries(64).coeffs
        value = math.fsum(c * q ** n for n, c in enumerate(coeffs))
        tail = 3.0 * q ** 65 / (1.0 - q)
        bound = direct.error_bound + tail + 8.0 * EPS
        return direct.re, value, bound

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


def run_suites(
        config: RunConfig) -> tuple[list[VerificationRecord], list[tuple[str, Exception]]]:
    """Run the configured suites in order and build every record.

    Records come sorted by name within each suite.  An engine that gives up
    (NonConvergence) or fails on its input (ArithmeticError, ValueError)
    ends its own check only: the second item lists each such check's name
    with the exception, and every other check still runs.  A tolerance
    override that names no check of the run raises ValueError before any
    check runs.
    """
    if config.tol_overrides:
        names: set[str] = set()
        for suite in config.suites:
            SUITES[suite](config, lambda name, *_: names.add(name))
        unknown = sorted(set(config.tol_overrides) - names)
        if unknown:
            raise ValueError(f"tolerance override names no check in this run: "
                             f"{', '.join(unknown)}")

    records: list[VerificationRecord] = []
    stalls: list[tuple[str, Exception]] = []
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
    return records, stalls
