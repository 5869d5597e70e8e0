"""Zeta, the mod-4 L-series, Euler's constant, and the Gauss product.

The near-pole checks derive the offset as s - 1.0 in double arithmetic
rather than reusing the literal that built s: double(1 + 1e-6) - 1 and
double(1e-6) differ relatively by ~1e-10, which the 1/(s-1) pole
amplifies into an apparent error far above the engine's true one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaeval import (
    L_chi4,
    L_chi4_prime_at_1,
    NonConvergence,
    euler_gamma,
    gamma_gauss,
    gamma_integral,
    gammaL_integral,
    integral_I,
    zeta,
)
from thetaeval.approx import EPS, ApproxValue, limit_at_zero, pole_constant

# frozen from scripts/compute_oracles.py (raw sums / Euler transforms)
ORACLE_GAMMA = 0.57721566490153409
ORACLE_GAMMA_BOUND = 5e-15
ORACLE_ZETA3 = 1.2020569031595942
ORACLE_ZETA4 = 1.0823232337111381
ORACLE_ZETA_BOUND = 5e-15
ORACLE_CATALAN = 0.91596559417721901
ORACLE_LPRIME1 = 0.1929013167969125
ORACLE_SERIES_BOUND = 5e-15


def direct_zeta_sum(s, n=100_000):
    """Tail-corrected raw partial sum, independent of the engine's N=64 path.

    Error is bounded by the first omitted correction s/(12 n^(s+1)).
    """
    partial = math.fsum(float(k) ** -s for k in range(1, n + 1))
    value = partial + float(n) ** (1.0 - s) / (s - 1.0) - 0.5 * float(n) ** -s
    return value, s / (12.0 * float(n) ** (s + 1.0)) + 1e-13


class TestEulerGamma:
    def test_against_harmonic_oracle(self):
        g = euler_gamma(1e-13)
        assert abs(g.value - ORACLE_GAMMA) <= g.error_bound + ORACLE_GAMMA_BOUND

    def test_refuses_impossible_tolerance(self):
        with pytest.raises(NonConvergence):
            euler_gamma(1e-25)


class TestZeta:
    def test_at_two(self):
        z = zeta(2.0, 1e-13)
        assert abs(z.value - math.pi ** 2 / 6.0) <= z.error_bound + 1e-15

    def test_at_three_against_oracle(self):
        z = zeta(3.0, 1e-13)
        assert abs(z.value - ORACLE_ZETA3) <= z.error_bound + ORACLE_ZETA_BOUND

    def test_at_four_against_direct_sum(self):
        z = zeta(4.0, 1e-13)
        oracle, oracle_bound = direct_zeta_sum(4.0, n=1000)
        assert abs(z.value - oracle) <= z.error_bound + oracle_bound
        assert abs(z.value - ORACLE_ZETA4) <= z.error_bound + ORACLE_ZETA_BOUND

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0, 4.0])
    def test_against_direct_summation(self, s):
        z = zeta(s, 1e-12)
        oracle, oracle_bound = direct_zeta_sum(s)
        assert abs(z.value - oracle) <= z.error_bound + oracle_bound

    def test_pole_constant_at_em4(self):
        s = 1.0 + 1e-4
        delta = s - 1.0
        z = zeta(s, 1e-11)
        gamma = euler_gamma(1e-13)
        assert abs(z.value - 1.0 / delta - gamma.value) <= 1e-3

    def test_residue_normalization(self):
        s = 1.0 + 1e-6
        delta = s - 1.0
        z = zeta(s, 1e-8)
        assert abs(delta * z.value - 1.0) <= 1e-5

    def test_rejects_s_at_or_below_one(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(0.5)

    def test_refuses_tolerance_below_roundoff_near_pole(self):
        # zeta(1 + 1e-6) ~ 1e6 comes with a bound of 8.9e-10, above the
        # 1e-17 * 1e6 = 1e-11 that tol 1e-17 allows at that size; the
        # engine must say so, not lie
        with pytest.raises(NonConvergence):
            zeta(1.0 + 1e-6, 1e-17)


def zeta_regular(s):
    # zeta(s) - 1/(s - 1) with s - 1 formed from the rounded s, as the
    # special-values suite forms it.
    d = s - 1.0
    return zeta(s, 1e-11) - ApproxValue(1.0 / d, EPS / d)


def test_pole_constant_of_zeta_is_euler_gamma():
    limit = pole_constant(zeta_regular)
    assert abs(limit.value - ORACLE_GAMMA) <= limit.error_bound + ORACLE_GAMMA_BOUND
    assert limit.error_bound < 1e-10


@given(eps0=st.floats(min_value=0.05, max_value=0.3), depth=st.integers(6, 8))
@settings(max_examples=40, deadline=None)
def test_pole_ladders_land_within_their_bound(eps0, depth):
    # Any halving ladder from eps0, not only pole_constant's, must bound its
    # own error: the limit of zeta(s) - 1/(s - 1) at s = 1 is Euler's constant.
    limit = limit_at_zero(lambda eps: zeta_regular(1.0 + eps), eps0, depth)
    assert abs(limit.value - ORACLE_GAMMA) <= limit.error_bound + ORACLE_GAMMA_BOUND


@given(s=st.floats(min_value=1.01, max_value=30.0))
@settings(max_examples=40, deadline=None)
def test_zeta_decreasing_above_one(s):
    a = zeta(s, 1e-9)
    b = zeta(s + 0.25, 1e-9)
    assert a.value > b.value


class TestLChi4:
    def test_at_one(self):
        r = L_chi4(1.0, 1e-13)
        assert abs(r.value - 0.25 * math.pi) <= r.error_bound + 1e-15

    def test_at_two_is_catalan(self):
        r = L_chi4(2.0, 1e-13)
        assert abs(r.value - ORACLE_CATALAN) <= r.error_bound + ORACLE_SERIES_BOUND

    def test_at_three_against_quadrature(self):
        series = L_chi4(3.0, 1e-13)
        quad = gammaL_integral(3.0, 1e-13) * 0.5
        assert abs(series.value - quad.value) <= series.error_bound + quad.error_bound

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            L_chi4(0.0)

    def test_partial_sums_bracket_the_value(self):
        # alternating series with decreasing terms: consecutive partial
        # sums bracket the limit
        r = L_chi4(1.7, 1e-13)
        partial = 0.0
        for k in range(25):
            prev = partial
            partial += (-1.0) ** k * (2.0 * k + 1.0) ** -1.7
            lo, hi = sorted((prev, partial))
            if k:
                assert lo <= r.value <= hi


class TestLPrimeAtOne:
    def test_against_euler_transform_oracle(self):
        r = L_chi4_prime_at_1(1e-11)
        assert abs(r.value - ORACLE_LPRIME1) <= r.error_bound + ORACLE_SERIES_BOUND

    def test_product_rule_identity(self):
        # d/ds at 1 of Gamma(s) L(s) is -gamma L(1) + L'(1), and the
        # half-line integral form makes that (pi/2) I
        gamma = euler_gamma(1e-13)
        lp = L_chi4_prime_at_1(1e-11)
        lhs = -gamma.value * 0.25 * math.pi + lp.value
        i_val = integral_I(1e-12)
        rhs = 0.5 * math.pi * i_val.value
        assert abs(lhs - rhs) <= 1e-10

    def test_central_difference_of_quadrature(self):
        h = 1e-4
        hi = gammaL_integral(1.0 + h, 1e-13)
        lo = gammaL_integral(1.0 - h, 1e-13)
        fd = (hi.value - lo.value) / (2.0 * h)
        gamma = euler_gamma(1e-13)
        lp = L_chi4_prime_at_1(1e-11)
        assert abs(fd - (-gamma.value * 0.25 * math.pi + lp.value)) <= 1e-6

    def test_sign_is_consistent_with_negative_I(self):
        lp = L_chi4_prime_at_1(1e-11)
        gamma = euler_gamma(1e-13)
        i_val = integral_I(1e-12)
        assert i_val.value < 0.0
        assert lp.value > 0.0
        assert -gamma.value * 0.25 * math.pi + lp.value < 0.0


class TestGammaGauss:
    def test_at_one(self):
        g = gamma_gauss(1.0, 1e-9)
        assert abs(g.value - 1.0) <= g.error_bound

    def test_at_half(self):
        g = gamma_gauss(0.5, 1e-9)
        assert abs(g.value - math.sqrt(math.pi)) <= g.error_bound

    def test_reflection_product(self):
        p = gamma_gauss(0.25, 1e-9) * gamma_gauss(0.75, 1e-9)
        assert abs(p.value - math.pi * math.sqrt(2.0)) <= p.error_bound

    # Above 1 the product sees only s - k in (0, 1], so at tol 1e-9 every s
    # up to the 171 limit certifies.
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 11.5, 11.75, 20.0,
                                   100.0, 170.5, 171.0])
    def test_agrees_with_quadrature(self, s):
        gauss = gamma_gauss(s, 1e-9)
        quad = gamma_integral(s, 1e-13)
        assert abs(gauss.value - quad.value) <= gauss.error_bound + quad.error_bound

    @pytest.mark.parametrize("s, cost", [(0.25, 4080), (0.75, 4080), (1.0, 4080),
                                         (1.5, 4080), (2.0, 4080), (3.0, 4080),
                                         (11.75, 4080), (171.0, 4080)])
    def test_ladder_starts_at_a_node_scaled_to_s(self, s, cost):
        # The product runs only at s in (0, 1], on the nodes 16 2^k, k < 8,
        # so every s costs 16 (1 + 2 + ... + 128) = 4,080 summed terms.
        assert gamma_gauss(s, 1e-9).cost == cost

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            gamma_gauss(-0.5)

    @pytest.mark.parametrize("s", [172.0, 200.0, 5e-324, 1e-310, math.inf, math.nan])
    def test_rejects_s_where_gamma_leaves_the_double_range(self, s):
        # Gamma(s) overflows past 171.62 and, as about 1/s, below about
        # 5.6e-309: both routes refuse s up front through one range check,
        # not by an OverflowError from exp, a tolerance the lift forms or
        # an infinite value.
        for engine in (gamma_gauss, gamma_integral):
            with pytest.raises(ValueError, match=r"^need 2\^-1022 <= s <= 171, as Gamma\(s\) "
                                                 r"leaves the double range"):
                engine(s)

    def test_refuses_impossible_tolerance(self):
        with pytest.raises(NonConvergence):
            gamma_gauss(0.5, 1e-20)

    def test_recurrence_stall_names_s_and_carries_the_partial_gamma(self):
        # Gamma(1) stalls at tol 1e-20; the stall is reported against the
        # s asked for, with 19! times Gamma(1)'s partial value and bound.
        with pytest.raises(NonConvergence, match=r"^gamma_gauss stalled at s=20 above "
                                                 r"tol=1e-20$") as info:
            gamma_gauss(20.0, 1e-20)
        exact = math.factorial(19)
        assert abs(info.value.value - exact) <= info.value.error_bound
        assert 1e-20 * exact < info.value.error_bound < 1e-12 * exact
        assert info.value.cost == 4080


@given(s=st.floats(min_value=1e-3, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_gamma_gauss_recurrence_and_quadrature(s):
    # Gamma(s + 1) = s Gamma(s).  On the Gauss side this is exact
    # arithmetic, as above 1 gamma_gauss is (s-1)...(s-k) times the product
    # at s - k; s + 1 <= 5 rounds by at most 2 EPS, which moves Gamma(s + 1)
    # by under 3 EPS of itself (|psi| < 1.6 on [1, 5]).  The extrapolated
    # bound is an a-posteriori estimate, so the comparison with the
    # quadrature carries the check.
    here = gamma_gauss(s, 1e-9)
    up = gamma_gauss(s + 1.0, 1e-9)
    gap = abs(up.value - s * here.value)
    assert gap <= up.error_bound + s * here.error_bound + 4.0 * EPS * up.value
    for point, gauss in ((s, here), (s + 1.0, up)):
        quad = gamma_integral(point, 1e-12)
        assert abs(gauss.value - quad.value) <= gauss.error_bound + quad.error_bound


def test_gamma_integral_small_s_against_gauss():
    # Gamma(1/32) is about 31.5.  Integrated directly, the steep t^(s-1) at
    # 0 leaves an error about 100 times the rule's own estimate at this tol.
    quad = gamma_integral(1.0 / 32.0, 1e-9)
    gauss = gamma_gauss(1.0 / 32.0, 1e-9)
    assert abs(quad.value - gauss.value) <= quad.error_bound + gauss.error_bound


class TestGammaLProduct:
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    def test_product_matches_integral(self, s):
        product = gamma_gauss(s, 1e-9) * L_chi4(s, 1e-13)
        integral = gammaL_integral(s, 1e-13)
        assert abs(product.value - integral.value) <= (
            product.error_bound + integral.error_bound)


@pytest.mark.parametrize("engine", [
    lambda tol: zeta(2.0, tol),
    lambda tol: L_chi4(1.0, tol),
    L_chi4_prime_at_1,
    euler_gamma,
    lambda tol: gamma_gauss(0.5, tol),
], ids=["zeta", "L_chi4", "L_chi4_prime_at_1", "euler_gamma", "gamma_gauss"])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, -0.0])
def test_refuses_a_tolerance_that_is_not_positive_and_finite(engine, tol):
    # As every other engine does, rather than certifying to nan or inf, or
    # failing inside the term count with a ZeroDivisionError or a domain error.
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got "):
        engine(tol)
