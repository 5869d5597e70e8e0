"""Exact q-series arithmetic: the square-indicator series, the product
expansion, and the representation counts read off the squared series.

Everything in this file is integer-exact; there are no tolerances.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaeval import (
    NonConvergence,
    QSeries,
    qs_mul,
    r_bruteforce,
    r_divisor,
    r_from_theta_squared,
    theta_qseries,
    triple_product_qseries,
)
from thetaeval.qseries import _log_derivative, _solve


class TestThetaQSeries:
    def test_order_10_coefficients(self):
        assert theta_qseries(10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)

    def test_order_zero(self):
        assert theta_qseries(0).coeffs == (1,)

    def test_coefficient_at_nine(self):
        # n = +-3 contribute one each
        assert theta_qseries(16).coeffs[9] == 2

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            theta_qseries(-1)

    @given(st.integers(min_value=0, max_value=300))
    def test_coefficients_are_square_indicator(self, order):
        series = theta_qseries(order)
        for n, c in enumerate(series.coeffs):
            root = round(n ** 0.5)
            is_square = root * root == n
            expected = 1 if n == 0 else (2 if is_square else 0)
            assert c == expected


class TestTripleProduct:
    def test_order_10_matches_theta(self):
        assert triple_product_qseries(10).coeffs == theta_qseries(10).coeffs

    def test_order_zero_is_one(self):
        assert triple_product_qseries(0).coeffs == (1,)

    def test_order_200_matches_theta(self):
        assert triple_product_qseries(200).coeffs == theta_qseries(200).coeffs

    def test_order_4096_matches_theta(self):
        coeffs = triple_product_qseries(4096).coeffs
        assert coeffs == theta_qseries(4096).coeffs
        assert all(type(c) is int for c in coeffs)

    @given(st.integers(min_value=0, max_value=128))
    @settings(max_examples=25, deadline=None)
    def test_matches_theta_at_any_order(self, order):
        assert triple_product_qseries(order).coeffs == theta_qseries(order).coeffs

    def test_order_16384_matches_theta(self):
        assert triple_product_qseries(16384).coeffs == theta_qseries(16384).coeffs


def _reference_log_derivative(order):
    # One range per factor m: c_k of q P'/P, element by element.
    c = [0] * (order + 1)
    for m in range(1, order + 1):
        if m % 2:
            for k in range(m, order + 1, 2 * m):
                c[k] += 2 * m
            for k in range(2 * m, order + 1, 2 * m):
                c[k] -= 2 * m
        else:
            for k in range(m, order + 1, m):
                c[k] -= m
    return c


def _reference_solve(c):
    # n p_n = sum c_k p_(n-k): each nonzero p_n rebuilds the tail of the
    # running sums as a list of exact ints.
    p = c[:]
    p[0] = 1
    for n in range(1, len(c)):
        p[n] = pn = p[n] // n
        if pn:
            p[n + 1:] = [s + pn * ck for s, ck in zip(p[n + 1:], c[1:])]
    return p


class TestAgainstTheElementwiseReference:
    """The hyperbola sieve and the lane recurrence against the plain loops."""

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=30, deadline=None)
    @example(0)
    @example(1)
    @example(255)
    @example(256)
    @example(257)
    def test_log_derivative_and_product_at_any_order(self, order):
        c = _reference_log_derivative(order)
        assert _log_derivative(order) == c
        assert triple_product_qseries(order).coeffs == tuple(_reference_solve(c))

    @pytest.mark.parametrize("order", [4095, 4096, 4097, 8192])
    def test_log_derivative_and_product_at_deep_orders(self, order):
        c = _reference_log_derivative(order)
        assert _log_derivative(order) == c
        assert triple_product_qseries(order).coeffs == tuple(_reference_solve(c))

    def test_log_derivative_at_order_65536(self):
        # The sieve alone, 16 powers of two deep, without the slow solver.
        assert _log_derivative(65536) == _reference_log_derivative(65536)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=700))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_on_any_small_c(self, c):
        # Signed p_n, negative running sums and floor divisions that are
        # not exact: the lanes still give the list's ints.
        assert _solve(c) == _reference_solve(c)

    def test_recurrence_past_the_dead_lane_trim(self):
        # 11 blocks of lanes, so the dead lanes are dropped at least once.
        rng = random.Random(30)
        c = [rng.randint(-3, 3) for _ in range(2600)]
        assert _solve(c) == _reference_solve(c)

    @pytest.mark.parametrize("c, cost", [
        ([0] + [2 ** 20] * 600, 3),   # p_3 is about 2^57: 2 S M passes 2^63
        ([0, 2 ** 63, 1], 0),         # c + M would not fit a lane
    ])
    def test_running_sums_past_the_lanes_stall(self, c, cost):
        with pytest.raises(NonConvergence) as info:
            _solve(c)
        exc = info.value
        assert "64-bit lanes" in str(exc)
        assert exc.cost == cost
        assert exc.error_bound >= 2.0 ** 63
        assert exc.value == float(_reference_solve(c[:cost + 1])[cost])


class TestQsMul:
    def test_difference_of_squares(self):
        one_plus = QSeries((1, 1, 0))
        one_minus = QSeries((1, -1, 0))
        assert qs_mul(one_plus, one_minus).coeffs == (1, 0, -1)

    def test_multiplicative_identity(self):
        s = QSeries((3, -1, 4, 1, -5))
        one = QSeries((1,) + (0,) * 4)
        assert qs_mul(s, one).coeffs == s.coeffs

    def test_theta_squared_coefficient_of_q5(self):
        t = theta_qseries(16)
        # (+-1, +-2) and (+-2, +-1): eight ordered pairs with m^2 + k^2 = 5
        assert qs_mul(t, t).coeffs[5] == 8

    def test_truncates_to_smaller_order(self):
        a = QSeries((1, 1, 1, 1, 1))
        b = QSeries((1, 2))
        assert qs_mul(a, b).order == 1

    def test_operator_matches_function(self):
        a = QSeries((2, 3, 5))
        b = QSeries((1, -1, 2))
        assert (a * b).coeffs == qs_mul(a, b).coeffs


small_series = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=1, max_size=12
).map(lambda cs: QSeries(tuple(cs)))


sparse_series = st.lists(
    st.one_of(st.just(0), st.integers(-(10**20), 10**20)),
    min_size=1, max_size=40,
).map(lambda cs: QSeries(tuple(cs)))


@given(sparse_series, sparse_series)
@example(QSeries((0,) * 7), QSeries((0,) * 3))
@example(QSeries((0, 0, 5)), QSeries((0,) * 9 + (1,)))
def test_qs_mul_matches_naive_cauchy_product(a, b):
    order = min(a.order, b.order)
    naive = tuple(sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
                  for k in range(order + 1))
    assert qs_mul(a, b).coeffs == naive


@given(small_series, small_series)
def test_qs_mul_commutative(a, b):
    assert qs_mul(a, b).coeffs == qs_mul(b, a).coeffs


@given(small_series, small_series, small_series)
def test_qs_mul_associative_to_common_order(a, b, c):
    left = qs_mul(qs_mul(a, b), c)
    right = qs_mul(a, qs_mul(b, c))
    order = min(left.order, right.order)
    assert left.coeffs[: order + 1] == right.coeffs[: order + 1]


class TestRFromThetaSquared:
    def test_zero_has_one_representation(self):
        assert r_from_theta_squared(0, 32) == 1

    def test_five(self):
        assert r_from_theta_squared(5, 32) == 8

    def test_twenty_five(self):
        # (+-5, 0), (0, +-5), (+-3, +-4), (+-4, +-3)
        assert r_from_theta_squared(25, 32) == 12

    def test_rejects_index_beyond_order(self):
        for n in (33, -1):
            with pytest.raises(ValueError):
                r_from_theta_squared(n, 32)

    def test_equals_the_full_square_up_to_512(self):
        theta = theta_qseries(512)
        square = qs_mul(theta, theta).coeffs
        assert [r_from_theta_squared(n, 512) for n in range(513)] == list(square)

    def test_agrees_with_integer_counts_up_to_512(self):
        order = 512
        for n in range(1, order + 1):
            expected = r_bruteforce(n)
            assert r_from_theta_squared(n, order) == expected
            assert r_divisor(n) == expected


class TestQSeriesValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QSeries(())

    def test_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            QSeries((1, 2.0))

    def test_rejects_bool_coefficients(self):
        with pytest.raises(TypeError):
            QSeries((True,))

    def test_rejects_one_bad_coefficient_among_many(self):
        for bad in (0.0, False):
            with pytest.raises(TypeError):
                QSeries((1,) * 4096 + (bad,) + (2,) * 10)

    def test_accepts_int_subclasses_other_than_bool(self):
        class Count(int):
            pass

        assert QSeries((1, Count(2), 3)).coeffs[1] == 2
