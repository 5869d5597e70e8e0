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

    def test_product_at_order_65536_matches_theta(self):
        # 256 nonzero p_n = 2 scattered from one held multiple 2 C over 256
        # windows, with the dead lanes trimmed every eight of them.
        assert triple_product_qseries(65536).coeffs == theta_qseries(65536).coeffs

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=700))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_on_any_small_c(self, c):
        # Signed p_n, negative running sums and floor divisions that are
        # not exact: the lanes still give the list's ints.
        assert _solve(c) == _reference_solve(c)

    # The scatter: one multiple k C of the packed c is held for k = |p_n|,
    # and a negative p_n subtracts its shifted lanes.

    @pytest.mark.parametrize("order, nonzero", [
        (2, {1: -1, 2: 1}),         # c = [0, -1, 1]: p = 1, -1, 1
        (600, {3: -6}),             # p_n = -2, 2, -2, 1, -1: each k with both signs
        (600, {3: -6, 256: 512}),   # then 2, -4, 4, -4, 2, -2 past a window edge
    ])
    def test_signed_p_n_from_one_held_multiple(self, order, nonzero):
        # Shifting p_n C itself would floor a negative p_n's dropped lanes.
        c = [0] * (order + 1)
        for k, ck in nonzero.items():
            c[k] = ck
        p = _solve(c)
        assert p == _reference_solve(c)
        assert all(-pn in p for pn in p[1:] if pn)

    @pytest.mark.parametrize("order", [255, 256, 511, 512])
    def test_lanes_packed_by_whole_blocks_and_a_tail(self, order):
        # 256 and 512 lanes fill whole blocks of words; 257 and 513 leave
        # a tail of one lane.
        rng = random.Random(order)
        c = [rng.randint(-3, 3) for _ in range(order + 1)]
        assert _solve(c) == _reference_solve(c)

    def test_recurrence_past_the_dead_lane_trim(self):
        # 11 blocks of lanes, so the dead lanes are dropped at least once.
        rng = random.Random(30)
        c = [rng.randint(-3, 3) for _ in range(2600)]
        assert _solve(c) == _reference_solve(c)

    # The scan: each window of lanes is XORed with the offset in every lane,
    # and the first lane that differs is read off the highest set bit.

    @pytest.mark.parametrize("order, nonzero", [
        (255, {}), (256, {}), (600, {}),
        (600, {300: 300}),          # a first window of zero lanes, then p_300 = 1
    ])
    def test_windows_whose_lanes_are_all_zero(self, order, nonzero):
        c = [0] * (order + 1)
        for k, ck in nonzero.items():
            c[k] = ck
        assert _solve(c) == _reference_solve(c)

    @pytest.mark.parametrize("order, n", [
        (600, 1), (600, 257), (600, 513),      # the first lane of a window
        (600, 256), (600, 512),                # its last lane
        (255, 255), (257, 257), (511, 511), (513, 513), (767, 767), (769, 769),
        (257, 256), (511, 256),
    ])
    @pytest.mark.parametrize("scale", [2, -1])
    def test_first_nonzero_p_n_on_a_window_edge(self, order, n, scale):
        # c_n = scale n makes p_n = scale the first nonzero p_n past p_0.
        c = [0] * (order + 1)
        c[n] = scale * n
        p = _solve(c)
        assert p == _reference_solve(c)
        assert p[n] == scale and not any(p[1:n])

    def test_lanes_that_differ_from_the_offset_but_floor_to_zero(self):
        # Each c_k = k - 1 (and c_11 = 1) leaves 0 < s - offset < k on its
        # lane, so p_k = 0 there and the scan goes on past it, also on a
        # window's last lane (256); p_20 = 1 and p_200 = -1 follow.
        c = [0] * 601
        for k in (10, 129, 256, 257, 512, 600):
            c[k] = k - 1
        c[11], c[20], c[200] = 1, 20, -1
        p = _solve(c)
        assert p == _reference_solve(c)
        assert p[10] == p[11] == p[256] == 0 and p[20] == 1 and p[200] == -1

    @pytest.mark.parametrize("c", [
        [0] + [2 ** 20] * 600,                       # p_3 is about 2^57
        [0] * 300 + [300 * 2 ** 40] + [0] * 300,     # after a window of zero lanes
    ])
    def test_the_lane_guard_stalls_at_the_first_sum_past_the_lanes(self, c):
        # The guard 2 S M < 2^63 fails first at a nonzero p_n; the stall
        # carries that p_n, 2 S M and n.
        p, big = _reference_solve(c), max(map(abs, c))
        bounds = [2 * big * sum(map(abs, p[:n + 1])) for n in range(len(c))]
        n = next(n for n, bound in enumerate(bounds) if bound >= 1 << 63)
        with pytest.raises(NonConvergence) as info:
            _solve(c)
        exc = info.value
        assert f"at n={n}" in str(exc)
        assert (exc.value, exc.error_bound, exc.cost) == (float(p[n]), float(bounds[n]), n)

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


def _naive_product(a, b):
    return tuple(sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
                 for k in range(min(a.order, b.order) + 1))


@given(sparse_series, sparse_series)
@example(QSeries((0,) * 7), QSeries((0,) * 3))
@example(QSeries((0, 0, 5)), QSeries((0,) * 9 + (1,)))
def test_qs_mul_matches_naive_cauchy_product(a, b):
    assert qs_mul(a, b).coeffs == _naive_product(a, b)


@given(st.integers(0, 30), sparse_series, st.integers(0, 30), sparse_series)
@example(3, QSeries((-(2 ** 200), 0, 0, 7)), 0, QSeries((0, 0, 2 ** 200, 0, -1)))
@example(40, QSeries((1,)), 0, QSeries((1,) * 41))
def test_qs_mul_with_leading_zeros_matches_naive_cauchy_product(zeros_a, a, zeros_b, b):
    # Only the nonzero coefficients of either factor are visited.
    a, b = QSeries((0,) * zeros_a + a.coeffs), QSeries((0,) * zeros_b + b.coeffs)
    assert qs_mul(a, b).coeffs == _naive_product(a, b)


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
