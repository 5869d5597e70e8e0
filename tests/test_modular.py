"""Theta and eta series on the upper half-plane and the quotient identity."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaeval import (
    ApproxValue,
    NonConvergence,
    RunConfig,
    UpperHalfPoint,
    eta_quotient,
    eta_uhp,
    r_bruteforce,
    run_suites,
    theta_qseries,
    theta_uhp,
)
from thetaeval.approx import terms_needed

# scripts/compute_oracles.py: five explicit terms, sixth below 1e-21
ORACLE_THETA_I = 1.086434811213308


def stalled(engine, *args):
    """The value, bound and cost that engine(*args)'s tolerance stall
    carries, as an ApproxValue; fails unless the call stalls."""
    with pytest.raises(NonConvergence,
                       match=r"^(theta series|eta product) at Im z = [^ ]+ stalled above tol=") as info:
        engine(*args)
    return ApproxValue(info.value.value, info.value.error_bound, info.value.cost)


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


class TestComplexApprox:
    """ApproxValue with a complex value."""

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            ApproxValue(1.0 + 0.0j, -1e-10)

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                       complex(math.inf, 1.0), complex(1.0, -math.inf)])
    def test_rejects_non_finite_part(self, value):
        with pytest.raises(ValueError):
            ApproxValue(value, 1e-10)

    def test_magnitude_carries_bound(self):
        m = ApproxValue(3.0 + 4.0j, 1e-8, 17).magnitude()
        assert m.value == 5.0
        assert m.error_bound == 1e-8
        assert m.cost == 17


_part = st.floats(min_value=-4.0, max_value=4.0, allow_subnormal=False)
_radius = st.floats(min_value=0.0, max_value=0.5)
_unit = st.floats(min_value=0.0, max_value=1.0)
_turn = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@given(xr=_part, xi=_part, yr=_part, yi=_part, dx=_radius, dy=_radius,
       fx=_unit, fy=_unit, ax=_turn, ay=_turn)
@example(xr=1.0, xi=0.0, yr=0.7, yi=0.0, dx=0.5, dy=0.5, fx=1.0, fy=1.0, ax=0.0, ay=0.0)
@settings(max_examples=200, deadline=None)
def test_complex_products_and_quotients_stay_in_bound(xr, xi, yr, yi, dx, dy,
                                                       fx, fy, ax, ay):
    # Points sampled inside both balls: their product and quotient lie within
    # the bound propagated from the centres.  Offsets are turned relative to
    # the centres, so at turn 0 and full radius px moves away from 0 and py
    # toward it, where the quotient's bound is attained.  The 1e-11 covers
    # rounding the sampled points, which may leave a ball by an ulp; a
    # quotient is checked where that ulp cannot matter, |centre| - radius > 0.1.
    x, y = ApproxValue(complex(xr, xi), dx), ApproxValue(complex(yr, yi), dy)
    px = x.value + fx * dx * cmath.exp(1j * (cmath.phase(x.value) + ax))
    py = y.value - fy * dy * cmath.exp(1j * (cmath.phase(y.value) + ay))
    product = x * y
    assert abs(px * py - product.value) <= product.error_bound + 1e-11
    margin = abs(y.value) - dy
    if margin <= 0.0:
        with pytest.raises(ValueError):
            x / y
    elif margin > 0.1:
        quotient = x / y
        assert abs(px / py - quotient.value) <= quotient.error_bound + 1e-11


class TestComplexScalars:
    """Complex scalar operands go through + - * /; log, exp and sqrt refuse
    a complex value with ValueError rather than TypeError."""

    X = ApproxValue(1.0 + 1.0j, 1e-3, 5)

    @pytest.mark.parametrize("op, expected, bound", [
        (lambda x: x + 1j, 1.0 + 2.0j, 1e-3),
        (lambda x: 1j + x, 1.0 + 2.0j, 1e-3),
        (lambda x: x - 1j, 1.0 + 0.0j, 1e-3),
        (lambda x: x * 1j, -1.0 + 1.0j, 1e-3),
        (lambda x: 2j * x, -2.0 + 2.0j, 2e-3),
        (lambda x: x / 2j, 0.5 - 0.5j, 0.5e-3),
    ], ids=["add", "radd", "sub", "mul", "rmul", "div"])
    def test_arithmetic(self, op, expected, bound):
        result = op(self.X)
        assert result.value == expected
        assert result.error_bound == bound
        assert result.cost == 5

    @pytest.mark.parametrize("operation", ["log", "exp", "sqrt"])
    def test_transcendentals_refuse_complex_values(self, operation):
        with pytest.raises(ValueError, match=operation):
            getattr(self.X, operation)()

    def test_numpy_complex_keeps_its_imaginary_part(self):
        result = self.X * np.complex64(2j)
        assert type(result.value) is complex
        assert result.value == -2.0 + 2.0j
        assert result.error_bound == 2e-3

    def test_real_scalars_stay_real(self):
        result = (ApproxValue(2.0, 1e-3) + 1) * 3 / 2 - 0.5
        assert type(result.value) is float
        assert result.value == 4.0
        assert result.error_bound == 1e-3 * 3 / 2


class TestThetaSeries:
    def test_value_at_i(self):
        r = theta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        assert abs(r.value.real - ORACLE_THETA_I) <= r.error_bound + 1e-15

    def test_real_and_positive_at_i(self):
        r = theta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        assert r.value.real > 1.0
        assert abs(r.value.imag) <= r.error_bound

    def test_at_2i_against_qseries(self):
        # the series in q = exp(-2 pi) evaluated from exact coefficients
        r = theta_uhp(UpperHalfPoint(0.0, 2.0), 1e-15)
        q = math.exp(-2.0 * math.pi)
        series = theta_qseries(10)
        expected = math.fsum(c * q ** n for n, c in enumerate(series.coeffs))
        tail = 3.0 * q ** 11 / (1.0 - q)
        assert abs(r.value.real - expected) <= r.error_bound + tail

    def test_period_two(self):
        for re, im in ((0.3, 0.9), (-1.2, 2.4), (0.0, 0.51)):
            a = theta_uhp(UpperHalfPoint(re, im), 1e-13)
            b = theta_uhp(UpperHalfPoint(re + 2.0, im), 1e-13)
            gap = abs(a.value - b.value)
            assert gap <= a.error_bound + b.error_bound

    @pytest.mark.parametrize("re, im, shift", [
        (0.0, 1.0, 1e6), (0.25, 1.0, 2.0 ** 40), (-0.75, 1.7, -1e6), (1.5, 0.5, 2.0)])
    def test_far_point_takes_the_reduced_points_value_and_bound(self, re, im, shift):
        # Re z is reduced by the period 2 with math.fmod, which is exact: a
        # point shifted by an even integer gives the same value, bound and
        # cost.  Unreduced, theta(10^6 + i) is 1.9e-11 off theta(i), against
        # a bound of 4.8e-16.
        near = theta_uhp(UpperHalfPoint(re, im), 1e-13)
        far = theta_uhp(UpperHalfPoint(re + shift, im), 1e-13)
        assert (far.value, far.error_bound, far.cost) == (near.value, near.error_bound, near.cost)

    def test_tail_bound_sound_on_random_points(self):
        # adding three more terms must move the value by less than the
        # reported bound; 100 draws, fixed seed
        rng = random.Random(20260816)
        for _ in range(100):
            z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0))
            base = theta_uhp(z, 1e-9)
            n_base = _theta_terms_used(z, 1e-9)
            refined = _theta_partial_sum(z, n_base + 3)
            assert abs(refined - base.value) <= base.error_bound

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            theta_uhp(UpperHalfPoint(0.0, 1.0), 0.0)

    def test_stalls_below_its_rounding_floor(self):
        # At i the tail is met after 4 terms, and the rounding 2 EPS sum |t|
        # brings the bound to 4.8e-16: 1e-15 certifies, 1e-16 stalls and
        # carries the value it reached, which the bound still covers.
        at_i = UpperHalfPoint(0.0, 1.0)
        assert theta_uhp(at_i, 1e-15).error_bound < 1e-15
        r = stalled(theta_uhp, at_i, 1e-16)
        assert 4.8e-16 < r.error_bound < 4.9e-16
        assert abs(r.value - ORACLE_THETA_I) <= r.error_bound
        assert r.cost == 4


def _theta_terms_used(z, tol):
    # recover the truncation index the engine picked for this tolerance
    n = 1
    while _tail(n, z.im) > tol:
        n += 1
    return n


def _tail(n, y):
    return 2.0 * math.exp(-math.pi * n * n * y) / -math.expm1(-math.pi * (2 * n + 1) * y)


def _theta_partial_sum(z, n_terms):
    zc = complex(z.re, z.im)
    return 1.0 + 2.0 * sum(cmath.exp(1j * math.pi * n * n * zc)
                           for n in range(1, n_terms + 1))


@pytest.mark.parametrize("engine", [theta_uhp, eta_uhp], ids=lambda f: f.__name__)
def test_cost_counts_terms_and_grows_toward_the_real_line(engine):
    # At 0.1 + 0.05i eta's rounding floor 4 (n + 2) EPS |eta| is 1.07e-13,
    # so eta stalls there and the cost is the one its stall carries.
    costs = [stalled(engine, UpperHalfPoint(0.1, y), 1e-13).cost
             if engine is eta_uhp and y == 0.05
             else engine(UpperHalfPoint(0.1, y), 1e-13).cost
             for y in (3.0, 1.0, 0.3, 0.05)]
    assert costs[0] > 0
    assert costs == sorted(set(costs))


class TestEtaProduct:
    # 1e-15 is below eta's rounding floor 4 (n + 2) EPS |eta|: 4.8e-15 at i
    # and 1.06e-14 at 0.5 + 0.5i.  These calls stall, and their assertions
    # hold on the value, bound and cost the stall carries.

    def test_real_positive_at_i(self):
        r = stalled(eta_uhp, UpperHalfPoint(0.0, 1.0), 1e-15)
        assert r.value.real > 0.0
        assert abs(r.value.imag) <= r.error_bound

    def test_sqrt2_eta_equals_theta_at_i(self):
        eta = stalled(eta_uhp, UpperHalfPoint(0.0, 1.0), 1e-15)
        theta = theta_uhp(UpperHalfPoint(0.0, 1.0), 1e-15)
        gap = abs(math.sqrt(2.0) * eta.magnitude().value - theta.value.real)
        assert gap <= 2.0 * eta.error_bound + theta.error_bound + 1e-15

    def test_half_point_modulus_ratio_is_sqrt2(self):
        num = stalled(eta_uhp, UpperHalfPoint(0.5, 0.5), 1e-15).magnitude()
        den = stalled(eta_uhp, UpperHalfPoint(0.0, 1.0), 1e-15).magnitude()
        ratio = (num * num) / (den * den)
        assert abs(ratio.value - math.sqrt(2.0)) <= ratio.error_bound + 1e-14

    @pytest.mark.parametrize("re, im, shift", [
        (0.0, 1.0, 2.4e7), (0.5, 0.5, 24.0 * 2.0 ** 35), (-0.25, 2.0, -2.4e7), (23.5, 1.0, 24.0)])
    def test_far_point_takes_the_reduced_points_value_and_bound(self, re, im, shift):
        # Re z is reduced by the period 24 with math.fmod, which is exact.
        # Unreduced, eta(2.4e7 + i) is 3.4e-10 off eta(i), against a bound
        # of 2.2e-14.
        near = eta_uhp(UpperHalfPoint(re, im), 1e-13)
        far = eta_uhp(UpperHalfPoint(re + shift, im), 1e-13)
        assert (far.value, far.error_bound, far.cost) == (near.value, near.error_bound, near.cost)

    def test_unit_shift_preserves_modulus(self):
        rng = random.Random(7)
        for _ in range(20):
            z = UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0))
            shifted = UpperHalfPoint(z.re + 1.0, z.im)
            a = eta_uhp(z, 1e-13).magnitude()
            b = eta_uhp(shifted, 1e-13).magnitude()
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    @pytest.mark.parametrize("im", [2720.0, 1e150])
    def test_underflow_is_refused(self, im):
        # |eta| is about exp(-pi Im z / 12): below the normal range here,
        # and exactly 0 at 1e150, which a zero bound would certify.
        with pytest.raises(NonConvergence, match="Im z"):
            eta_uhp(UpperHalfPoint(0.0, im))

    @pytest.mark.parametrize("im", [1e-20, 8e-18])
    def test_near_the_real_line_is_refused(self, im):
        # exp(-2 pi Im z) rounds to 1 below Im z = 8.8e-18, where the
        # product's tail bound would divide by 1 - 1.
        with pytest.raises(NonConvergence, match=rf"^eta product at Im z = {im:g}: "):
            eta_uhp(UpperHalfPoint(0.0, im))

    def test_near_the_real_line_stalls_rather_than_overflows(self):
        # The cut's expm1 of the log tail overflowed below Im z = 0.0042,
        # and the modulus cap exp(|w| / (1 - |w|)) below about 2.2e-4.  Now
        # the cut is found, and the bound alone decides.
        near = UpperHalfPoint(0.3, 0.001)
        r = stalled(eta_uhp, near, 1e-13)
        assert 2.0e-11 < r.error_bound < 2.01e-11
        assert r.cost == 30932
        assert eta_uhp(near, 1e-10).error_bound < 1e-10
        assert eta_uhp(UpperHalfPoint(0.0, 0.004), 1e-13).cost == 2928
        with pytest.raises(NonConvergence, match=r"^eta product at Im z = 1e-05: "):
            eta_uhp(UpperHalfPoint(0.3, 1e-5))


class TestTermsNeeded:
    # The one truncation search behind theta, eta and the eta log series.

    def test_starts_at_first(self):
        assert terms_needed(lambda n: 0.0, 1e-13, "sum") == 1
        assert terms_needed(lambda n: 0.0, 1e-13, "sum", first=2) == 2

    def test_a_tail_equal_to_the_target_meets_it(self):
        assert terms_needed(lambda n: 2.0 ** -n, 2.0 ** -10, "sum") == 10
        assert terms_needed(lambda n: 2.0 ** -n, 2.0 ** -10 * (1.0 - 2.0 ** -52), "sum") == 11

    def test_limit_is_the_last_index_taken(self):
        def tail(n):
            return 0.0 if n >= 5 else 1.0

        assert terms_needed(tail, 0.5, "sum", limit=5) == 5
        with pytest.raises(NonConvergence,
                           match=r"^eta product at Im z = 0.001 needs more than 4 terms "
                                 r"to reach tail 0.5$"):
            terms_needed(tail, 0.5, "eta product at Im z = 0.001", limit=4)


def test_eta_quotient_inherits_the_eta_stall():
    # At i the numerator's factor eta(0.5 + 0.5i) has a rounding floor of
    # 1.06e-14, so asking the quotient for 1e-15 stalls in eta.
    with pytest.raises(NonConvergence, match=r"^eta product at Im z = 0.5 stalled above tol=1e-15$"):
        eta_quotient(UpperHalfPoint(0.0, 1.0), 1e-15)


@given(im=st.floats(min_value=0.5, max_value=1e300))
@settings(max_examples=60, deadline=None)
def test_eta_never_certifies_an_underflowed_value(im):
    try:
        r = eta_uhp(UpperHalfPoint(0.0, im))
    except NonConvergence:
        return
    assert r.error_bound > 0.0
    assert abs(r.value) > r.error_bound


def _quotient_gap(z, tol):
    """|theta(z) - eta quotient| and the summed bounds, components at tol/4."""
    series = theta_uhp(z, 0.25 * tol)
    product = eta_quotient(z, 0.25 * tol)
    gap = abs(series.value - product.value)
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
        assert theta.value.real > 0.0
        assert quotient.value.real > 0.0
        assert abs(quotient.value.imag) < 1e-12

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
    square = theta.value.real * theta.value.real
    square_bound = 2.0 * abs(theta.value.real) * theta.error_bound + theta.error_bound ** 2
    assert abs(partial - square) <= tail + square_bound + 1e-14
