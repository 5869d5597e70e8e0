"""Limit extrapolation, both sides of the limit identity, and the final
four-route assembly of the theta constant.
"""

import importlib.util
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaeval import (
    BinaryQuadraticForm,
    UpperHalfPoint,
    L_chi4,
    L_chi4_prime_at_1,
    ApproxValue,
    NonConvergence,
    RunConfig,
    eta_uhp,
    euler_gamma,
    gamma_integral,
    integral_I,
    kronecker_lhs,
    kronecker_rhs,
    l1_series,
    run_suites,
    target_limit_check,
    theta_at_i_assembly,
    theta_uhp,
)
from thetaeval.approx import limit_at_zero, pole_constant
from thetaeval.kronecker import pole_gap, scalar_limit_sides

FOUR_FORMS = [(1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0)]

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "limit_table.py"
_spec = importlib.util.spec_from_file_location("limit_table", _SCRIPT)
limit_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(limit_table)


def exact(g):
    # A node function whose values carry no bound of their own.
    return lambda e: ApproxValue(g(e), 0.0)


class TestExtrapolation:
    def test_reproduces_polynomial_exactly(self):
        # Neville on n nodes is exact for degree n-1
        def g(e):
            return 3.0 + 2.0 * e - 5.0 * e ** 2 + e ** 3 - 0.5 * e ** 7

        limit = limit_at_zero(exact(g), 0.1, 8)
        assert abs(limit.value - 3.0) <= 1e-12
        assert abs(limit.value - 3.0) <= limit.error_bound

    def test_analytic_function(self):
        limit = limit_at_zero(exact(lambda e: math.exp(2.0 * e)), 0.1, 8)
        assert abs(limit.value - 1.0) <= limit.error_bound

    def test_node_errors_amplified_into_bound(self):
        tight = limit_at_zero(exact(lambda e: 1.0 + e), 0.1, 8)
        loose = limit_at_zero(lambda e: ApproxValue(1.0 + e, 1e-9), 0.1, 8)
        assert loose.error_bound > tight.error_bound + 1e-9

    def test_requires_four_nodes(self):
        with pytest.raises(ValueError):
            limit_at_zero(exact(lambda e: 1.0), 0.4, 3)

    def test_requires_aligned_finite_nodes(self):
        # The driver lays out its own ladder, so what it refuses is a ladder
        # that does not stay finite and above 0: depth 3, eps0 not finite
        # and positive, or a last node that underflows to 0.  No node is
        # taken before the refusal.
        def node(e):
            raise AssertionError("node taken before the ladder was checked")

        for eps0, depth in ((0.4, 3), (0.0, 8), (-0.1, 8), (math.inf, 8), (math.nan, 8),
                            (1e-300, 100)):
            with pytest.raises(ValueError, match="need depth >= 4"):
                limit_at_zero(node, eps0, depth)

    def test_table_fields(self):
        # The driver's limit is an ApproxValue that carries the summed cost
        # of nodes taken at eps0 2^-k, k < depth.
        seen = []

        def node(eps):
            seen.append(eps)
            return ApproxValue(2.0 + eps, 1e-15, 3)

        limit = limit_at_zero(node, 0.1, 8)
        assert seen == [0.1 * 2.0 ** -k for k in range(8)]
        assert limit.cost == 24
        assert abs(limit.value - 2.0) <= limit.error_bound

    def test_pole_constant_ladder(self):
        # The one ladder at the pole: s = 1 + 0.1 2^-k, k < 8, costs summed.
        seen = []

        def regular(s):
            seen.append(s)
            return ApproxValue(0.5 + (s - 1.0), 1e-15, 5)

        limit = pole_constant(regular)
        assert seen == [1.0 + 0.1 * 2.0 ** -k for k in range(8)]
        assert limit.cost == 40
        assert abs(limit.value - 0.5) <= limit.error_bound


@given(constant=st.floats(min_value=-5.0, max_value=5.0),
       slope=st.floats(min_value=-3.0, max_value=3.0),
       curve=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40)
def test_extrapolation_recovers_quadratic_constant(constant, slope, curve):
    limit = limit_at_zero(exact(lambda e: constant + slope * e + curve * e * e), 0.1, 8)
    assert abs(limit.value - constant) <= limit.error_bound + 1e-11


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
        # re-extrapolating the script's nodes from eps0/2 must stay inside
        # the first bound
        form = BinaryQuadraticForm(1.0, 0.0, 2.0)
        _, base = limit_table.pole_gap_limit(form)
        halved = limit_at_zero(lambda e: pole_gap(form, 1 + e, 1e-8), 0.05, 8)
        assert abs(base.value - halved.value) <= base.error_bound

    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 1e7), (1.0, 0.0, 1e8), (3.0, 1.0, 1e8)])
    def test_elongated_limit_matches_the_eta_log_series(self, coeffs):
        # Past c = 8e6 the eta product underflows, but the limit still
        # certifies: its nodes take its own tolerance.  The log-space eta
        # series gives the right side without underflow.
        form = BinaryQuadraticForm(*coeffs)
        lhs = kronecker_lhs(form, 1e-8)
        rhs = 0.5 * math.log(form.a / form.disc) + l1_series(form, 1e-11)
        assert abs(lhs.value - rhs.value) <= lhs.error_bound + rhs.error_bound

    @pytest.mark.parametrize("coeffs", FOUR_FORMS)
    def test_limit_script_matches_engine(self, coeffs):
        # scripts/limit_table.py builds g(eps) on its own; the two
        # definitions of the limit may not drift apart by a single bit.
        form = BinaryQuadraticForm(*coeffs)
        _, limit = limit_table.pole_gap_limit(form)
        engine = kronecker_lhs(form, 1e-8)
        assert limit.value == engine.value
        assert limit.error_bound == engine.error_bound

    def test_rejects_bad_arguments(self):
        form = BinaryQuadraticForm(1.0, 0.0, 1.0)
        for tol in (-1e-8, 0.0, math.nan):
            with pytest.raises(ValueError):
                kronecker_lhs(form, tol)

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


    def test_cost_is_the_eta_factor_count(self):
        # Forms (1, 0, c) have Im z_Q = sqrt(c): closer to the real line the
        # eta product takes more factors, and the right side inherits them.
        costs = [kronecker_rhs(BinaryQuadraticForm(1.0, 0.0, c)).cost
                 for c in (9.0, 1.0, 0.09, 0.0025)]
        assert costs[0] > 0
        assert costs == sorted(set(costs))


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

    def test_term_cap_stalls_near_the_real_line(self):
        # Im z = 1e-6 would need about 4e6 terms; the cap of 200,000 stops
        # the search before any term is taken.
        with pytest.raises(NonConvergence, match=r"^eta log series at Im z = 1e-06 needs "
                                                 r"more than 200000 terms"):
            l1_series(BinaryQuadraticForm(1.0, 0.0, 1e-12), 1e-13)


class TestTargetLimit:
    def test_passes_at_spec_tolerance(self):
        record = target_limit_check(1e-8)
        assert record.passed
        assert record.tolerance == 1e-8

    def test_suite_record_carries_both_sides(self):
        # The suite hands scalar_limit_sides to its runner; its record has
        # the same numbers as target_limit_check's, the integral's bound
        # counted once.
        lhs, rhs = scalar_limit_sides()
        record = target_limit_check(1e-8)
        records, _ = run_suites(RunConfig(suites=("kronecker",), forms=()))
        (suite_record,) = records
        assert suite_record.name == record.name
        assert (suite_record.lhs, suite_record.rhs) == (record.lhs, record.rhs) == (
            lhs.value, rhs.value)
        assert suite_record.combined_bound == record.combined_bound == (
            lhs.error_bound + rhs.error_bound)

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
