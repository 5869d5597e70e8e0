"""Theta and eta series on the upper half-plane and the quotient identity."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaeval import (
    ComplexApprox,
    RunConfig,
    UpperHalfPoint,
    eta_quotient,
    eta_uhp,
    r_bruteforce,
    run_suites,
    theta_qseries,
    theta_uhp,
)

# scripts/compute_oracles.py: five explicit terms, sixth below 1e-21
ORACLE_THETA_I = 1.086434811213308


class TestUpperHalfPoint:
    def test_rejects_real_axis(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(0.0, 0.0)

    def test_rejects_lower_half(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(1.0, -2.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(math.nan, 1.0)

    def test_complex_round_trip(self):
        z = UpperHalfPoint(0.25, 1.75)
        assert UpperHalfPoint.from_complex(z.as_complex()) == z


class TestComplexApprox:
    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            ComplexApprox(1.0, 0.0, -1e-10)

    def test_magnitude_carries_bound(self):
        c = ComplexApprox(3.0, 4.0, 1e-8)
        m = c.magnitude()
        assert m.value == 5.0
        assert m.error_bound == 1e-8


class TestThetaSeries:
    def test_value_at_i(self):
        r = theta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        assert abs(r.re - ORACLE_THETA_I) <= r.error_bound + 1e-15

    def test_real_and_positive_at_i(self):
        r = theta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        assert r.re > 1.0
        assert abs(r.im) <= r.error_bound

    def test_at_2i_against_qseries(self):
        # the series in q = exp(-2 pi) evaluated from exact coefficients
        r = theta_uhp(UpperHalfPoint(0.0, 2.0), 1e-15)
        q = math.exp(-2.0 * math.pi)
        series = theta_qseries(10)
        expected = math.fsum(c * q ** n for n, c in enumerate(series.coeffs))
        tail = 3.0 * q ** 11 / (1.0 - q)
        assert abs(r.re - expected) <= r.error_bound + tail

    def test_period_two(self):
        for re, im in ((0.3, 0.9), (-1.2, 2.4), (0.0, 0.51)):
            a = theta_uhp(UpperHalfPoint(re, im), 1e-13)
            b = theta_uhp(UpperHalfPoint(re + 2.0, im), 1e-13)
            gap = abs(a.as_complex() - b.as_complex())
            assert gap <= a.error_bound + b.error_bound

    def test_tail_bound_sound_on_random_points(self):
        # adding three more terms must move the value by less than the
        # reported bound; 100 draws, fixed seed
        rng = random.Random(20260816)
        for _ in range(100):
            z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0))
            base = theta_uhp(z, 1e-9)
            n_base = _theta_terms_used(z, 1e-9)
            refined = _theta_partial_sum(z, n_base + 3)
            assert abs(refined - base.as_complex()) <= base.error_bound

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            theta_uhp(UpperHalfPoint(0.0, 1.0), 0.0)


def _theta_terms_used(z, tol):
    # recover the truncation index the engine picked for this tolerance
    n = 1
    while _tail(n, z.im) > tol:
        n += 1
    return n


def _tail(n, y):
    return 2.0 * math.exp(-math.pi * n * n * y) / -math.expm1(-math.pi * (2 * n + 1) * y)


def _theta_partial_sum(z, n_terms):
    zc = z.as_complex()
    return 1.0 + 2.0 * sum(cmath.exp(1j * math.pi * n * n * zc)
                           for n in range(1, n_terms + 1))


class TestEtaProduct:
    def test_real_positive_at_i(self):
        r = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        assert r.re > 0.0
        assert abs(r.im) <= r.error_bound

    def test_sqrt2_eta_equals_theta_at_i(self):
        eta = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        theta = theta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        gap = abs(math.sqrt(2.0) * eta.magnitude().value - theta.re)
        assert gap <= 2.0 * eta.error_bound + theta.error_bound + 1e-15

    def test_half_point_modulus_ratio_is_sqrt2(self):
        num = eta_uhp(UpperHalfPoint(0.5, 0.5), 1e-15).magnitude()
        den = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15).magnitude()
        ratio = (num * num) / (den * den)
        assert abs(ratio.value - math.sqrt(2.0)) <= ratio.error_bound + 1e-14

    def test_unit_shift_preserves_modulus(self):
        rng = random.Random(7)
        for _ in range(20):
            z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0))
            shifted = UpperHalfPoint(z.re + 1.0, z.im)
            a = eta_uhp(z, 1e-13).magnitude()
            b = eta_uhp(shifted, 1e-13).magnitude()
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def _quotient_gap(z, tol):
    """|theta(z) - eta quotient| and the summed bounds, components at tol/4."""
    series = theta_uhp(z, 0.25 * tol)
    product = eta_quotient(z, 0.25 * tol)
    gap = abs(series.as_complex() - product.as_complex())
    return gap, series.error_bound + product.error_bound


@given(re=st.floats(min_value=-2.0, max_value=2.0),
       im=st.floats(min_value=0.5, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_quotient_identity_generic_points(re, im):
    gap, bound = _quotient_gap(UpperHalfPoint(re, im), 1e-11)
    assert gap <= bound + 1e-11


class TestQuotientIdentity:
    @pytest.mark.parametrize("re,im", [(0.0, 1.0), (0.3, 1.7)])
    def test_passes_at_spec_points(self, re, im):
        gap, bound = _quotient_gap(UpperHalfPoint(re, im), 1e-12)
        assert gap <= bound + 1e-12

    def test_purely_imaginary_point(self):
        z = UpperHalfPoint(0.0, 3.0)
        gap, bound = _quotient_gap(z, 1e-12)
        assert gap <= bound + 1e-12
        # both sides are real and positive on the imaginary axis
        theta = theta_uhp(z, 1e-13)
        quotient = eta_quotient(z, 1e-13)
        assert theta.re > 0.0
        assert quotient.re > 0.0
        assert abs(quotient.im) < 1e-12

    def test_record_name_encodes_point(self):
        records, _ = run_suites(RunConfig(suites=("theta",)))
        records = [r for r in records if r.name.startswith("theta/quotient-identity/")]
        assert [r.name for r in records] == ["theta/quotient-identity/z=0+1i",
                                             "theta/quotient-identity/z=0+3i",
                                             "theta/quotient-identity/z=0.3+1.7i"]
        assert all(r.passed and r.rhs == 0.0 for r in records)


@pytest.mark.parametrize("y", [1.0, 2.0])
def test_theta_squared_generating_function(y):
    # 1 + sum of r(n) e^(-pi n y) reproduces theta(iy)^2
    q = math.exp(-math.pi * y)
    partial = 1.0 + math.fsum(r_bruteforce(n) * q ** n for n in range(1, 40))
    # r(n) <= 4 sqrt(2 n) + 4 gives a crude but sufficient tail bound
    tail = math.fsum((4.0 * math.sqrt(2.0 * n) + 4.0) * q ** n for n in range(40, 80))
    theta = theta_uhp(UpperHalfPoint(0.0, y), 1e-15)
    square = theta.re * theta.re
    square_bound = 2.0 * abs(theta.re) * theta.error_bound + theta.error_bound ** 2
    assert abs(partial - square) <= tail + square_bound + 1e-14
