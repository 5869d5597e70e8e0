"""Limit extrapolation, both sides of the limit identity, and the final
four-route assembly of the theta constant.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaeval import (
    BinaryQuadraticForm,
    UpperHalfPoint,
    L_chi4,
    L_chi4_prime_at_1,
    NonConvergence,
    RunConfig,
    eta_uhp,
    euler_gamma,
    extrapolate_to_zero,
    gamma_integral,
    integral_I,
    kronecker_lhs,
    kronecker_lhs_table,
    kronecker_rhs,
    l1_series,
    run_suites,
    target_limit_check,
    theta_at_i_assembly,
    theta_uhp,
)

FOUR_FORMS = [(1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0)]


class TestExtrapolation:
    def test_reproduces_polynomial_exactly(self):
        # Neville on n nodes is exact for degree n-1
        nodes = [0.1 * 2.0 ** -k for k in range(8)]

        def g(e):
            return 3.0 + 2.0 * e - 5.0 * e ** 2 + e ** 3 - 0.5 * e ** 7

        table = extrapolate_to_zero(nodes, [g(e) for e in nodes])
        assert abs(table.extrapolated - 3.0) <= 1e-12
        assert abs(table.extrapolated - 3.0) <= table.error_bound

    def test_analytic_function(self):
        nodes = [0.1 * 2.0 ** -k for k in range(8)]
        values = [math.exp(2.0 * e) for e in nodes]
        table = extrapolate_to_zero(nodes, values)
        assert abs(table.extrapolated - 1.0) <= table.error_bound

    def test_node_errors_amplified_into_bound(self):
        nodes = [0.1 * 2.0 ** -k for k in range(8)]
        values = [1.0 + e for e in nodes]
        tight = extrapolate_to_zero(nodes, values)
        loose = extrapolate_to_zero(nodes, values, [1e-9] * 8)
        assert loose.error_bound > tight.error_bound + 1e-9

    def test_requires_four_nodes(self):
        with pytest.raises(ValueError):
            extrapolate_to_zero([0.4, 0.2, 0.1], [1.0, 1.0, 1.0])

    def test_requires_decreasing_nodes(self):
        with pytest.raises(ValueError):
            extrapolate_to_zero([0.1, 0.2, 0.05, 0.025], [1.0] * 4)

    def test_table_fields(self):
        table = kronecker_lhs_table(BinaryQuadraticForm(1.0, 0.0, 1.0), 1e-8)
        assert len(table.abscissae) == 8
        assert table.abscissae[0] == 0.1
        assert all(x > y for x, y in zip(table.abscissae, table.abscissae[1:]))


@given(constant=st.floats(min_value=-5.0, max_value=5.0),
       slope=st.floats(min_value=-3.0, max_value=3.0),
       curve=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40)
def test_extrapolation_recovers_quadratic_constant(constant, slope, curve):
    nodes = [0.1 * 2.0 ** -k for k in range(8)]
    values = [constant + slope * e + curve * e * e for e in nodes]
    table = extrapolate_to_zero(nodes, values)
    assert abs(table.extrapolated - constant) <= table.error_bound + 1e-11


class TestKroneckerLimit:
    def test_unit_form_closed_value(self):
        lhs = kronecker_lhs(BinaryQuadraticForm(1.0, 0.0, 1.0), 1e-8)
        eta = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-14).magnitude()
        target = math.log(0.5 / eta.value ** 2)
        assert abs(lhs.value - target) <= lhs.error_bound + 1e-11

    def test_equivalent_forms_share_the_limit(self):
        a = kronecker_lhs(BinaryQuadraticForm(1.0, 0.0, 1.0), 1e-8)
        b = kronecker_lhs(BinaryQuadraticForm(2.0, -2.0, 1.0), 1e-8)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    @pytest.mark.parametrize("coeffs", FOUR_FORMS)
    def test_lhs_matches_rhs(self, coeffs):
        form = BinaryQuadraticForm(*coeffs)
        lhs = kronecker_lhs(form, 1e-8)
        rhs = kronecker_rhs(form, 1e-11)
        assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound + 1e-6

    def test_self_consistency_under_node_halving(self):
        # re-extrapolating from eps0/2 must stay inside the first bound
        form = BinaryQuadraticForm(1.0, 0.0, 2.0)
        base = kronecker_lhs(form, 1e-8)
        halved = kronecker_lhs(form, 1e-8, eps0=0.05)
        assert abs(base.value - halved.value) <= base.error_bound

    def test_rejects_bad_arguments(self):
        form = BinaryQuadraticForm(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kronecker_lhs(form, -1e-8)
        with pytest.raises(ValueError):
            kronecker_lhs(form, 1e-8, eps0=0.7)
        with pytest.raises(ValueError):
            kronecker_lhs(form, 1e-8, depth=2)

    def test_refuses_impossible_tolerance(self):
        with pytest.raises(NonConvergence):
            kronecker_lhs(BinaryQuadraticForm(1.0, 0.0, 1.0), 1e-30)


class TestKroneckerRhs:
    def test_skew_form_equals_unit_form(self):
        # sqrt(a/D) doubles while |eta|^2 grows by sqrt 2 twice; the
        # closed forms collapse to the same number
        a = kronecker_rhs(BinaryQuadraticForm(1.0, 0.0, 1.0), 1e-12)
        b = kronecker_rhs(BinaryQuadraticForm(2.0, -2.0, 1.0), 1e-12)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_unit_form_value(self):
        r = kronecker_rhs(BinaryQuadraticForm(1.0, 0.0, 1.0), 1e-12)
        eta = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-14).magnitude()
        assert abs(r.value - math.log(0.5 / eta.value ** 2)) <= r.error_bound + 1e-13


class TestL1Series:
    @pytest.mark.parametrize("coeffs", FOUR_FORMS)
    def test_equals_minus_log_eta_squared(self, coeffs):
        form = BinaryQuadraticForm(*coeffs)
        series = l1_series(form, 1e-11)
        eta = eta_uhp(form.z_point(), 1e-14).magnitude()
        rhs = -2.0 * eta.log().value
        assert abs(series.value - rhs) <= series.error_bound + 1e-10

    def test_leading_term_dominates_far_up(self):
        # high in the half-plane the product terms die and only the
        # pi sqrt(D) / (12 a) prefactor survives
        form = BinaryQuadraticForm(0.05, 0.0, 20.0)  # z = 20i, D = 4
        series = l1_series(form, 1e-11)
        lead = math.pi * math.sqrt(form.disc) / (12.0 * form.a)
        assert abs(series.value - lead) <= 1e-6


class TestTargetLimit:
    def test_passes_at_spec_tolerance(self):
        record = target_limit_check(1e-8)
        assert record.passed
        assert record.tolerance == 1e-8

    def test_limit_equals_eta_logarithm(self):
        record = target_limit_check(1e-8)
        eta = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-14).magnitude()
        target = -math.log(2.0 * eta.value ** 2)
        assert abs(record.lhs - target) <= record.combined_bound + 1e-10

    def test_limit_equals_scaled_derivative(self):
        record = target_limit_check(1e-8)
        gamma = euler_gamma(1e-13)
        lp = L_chi4_prime_at_1(1e-11)
        derivative = -gamma.value * 0.25 * math.pi + lp.value
        assert abs(record.lhs - (2.0 / math.pi) * derivative) <= 1e-8


class TestThetaAssembly:
    def test_record_passes(self):
        routes = theta_at_i_assembly()
        assert len(routes) == 4
        records, _ = run_suites(RunConfig(suites=("theta",)))
        record = next(r for r in records if r.name == "theta/value-at-i-four-routes")
        assert record.passed
        assert record.rhs == 0.0
        assert record.lhs == max(abs(a.value - b.value) for a in routes for b in routes)

    def test_four_routes_pairwise(self):
        theta = theta_uhp(UpperHalfPoint(0.0, 1.0), 1e-13).magnitude()
        eta = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-13).magnitude()
        g14 = gamma_integral(0.25, 1e-13)
        g34 = gamma_integral(0.75, 1e-13)
        route_a = theta.value
        route_b = math.sqrt(2.0) * eta.value
        route_c = (2.0 * math.pi) ** -0.25 * math.sqrt(g14.value / g34.value)
        route_d = g14.value / (math.pi ** 0.75 * math.sqrt(2.0))
        assert abs(route_a - route_b) <= 1e-12
        assert abs(route_a - route_c) <= 1e-10
        assert abs(route_c - route_d) <= 1e-10

    def test_value_against_series(self):
        # the closed form reproduces the raw series value at i
        g14 = gamma_integral(0.25, 1e-13)
        closed = g14.value / (math.pi ** 0.75 * math.sqrt(2.0))
        series = 1.0 + 2.0 * math.fsum(
            math.exp(-math.pi * n * n) for n in range(1, 6))
        assert abs(closed - series) <= 1e-12
