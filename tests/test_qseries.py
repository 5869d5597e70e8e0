"""Exact q-series arithmetic: the square-indicator series, the product
expansion, and the representation counts read off the squared series.

Everything in this file is integer-exact; there are no tolerances.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaeval import (
    QSeries,
    qs_mul,
    r_bruteforce,
    r_divisor,
    r_from_theta_squared,
    theta_qseries,
    triple_product_qseries,
)
from thetaeval.qseries import _times_binomial


class TestThetaQSeries:
    def test_order_10_coefficients(self):
        assert theta_qseries(10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)

    def test_order_zero(self):
        assert theta_qseries(0).coeffs == (1,)

    def test_coefficient_at_nine(self):
        # n = +-3 contribute one each
        assert theta_qseries(16).coefficient(9) == 2

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
        # The deepest order whose steps all stay in int64 under the budget.
        coeffs = triple_product_qseries(4096).coeffs
        assert coeffs == theta_qseries(4096).coeffs
        assert all(type(c) is int for c in coeffs)

    @given(st.integers(min_value=0, max_value=128))
    @settings(max_examples=25, deadline=None)
    def test_matches_theta_at_any_order(self, order):
        assert triple_product_qseries(order).coeffs == theta_qseries(order).coeffs

    def test_matches_theta_past_the_promotion_point(self):
        # Intermediate coefficients pass 2**62 near order 6000, so this order
        # runs partly in int64 and partly in Python ints.
        coeffs = triple_product_qseries(6000).coeffs
        assert coeffs == theta_qseries(6000).coeffs
        assert all(type(c) is int for c in coeffs)


def _binomial_reference(coeffs, k, e):
    return [c + e * coeffs[i - k] if i >= k else c for i, c in enumerate(coeffs)]


int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestTimesBinomial:
    @pytest.mark.parametrize("coeffs, k, e", [
        ([2**62, 2**62, 0], 1, 1),               # 2**63 would wrap
        ([-(2**62) - 5, 2**62 + 5], 1, -1),      # 2**63 + 10 would wrap
        ([-(2**62), -(2**62), -(2**62)], 2, 1),  # exactly at the threshold
        ([2**63 - 1, 1, 2**63 - 1], 1, 1),
    ])
    def test_promotes_before_a_step_that_could_wrap(self, coeffs, k, e):
        out, _ = _times_binomial(np.array(coeffs, dtype=np.int64), k, e)
        assert out.dtype == object
        result = out.tolist()
        assert result == _binomial_reference(coeffs, k, e)
        assert all(type(c) is int for c in result)

    def test_stays_int64_below_the_threshold(self):
        coeffs = [2**62 - 1, 2**62 - 1, -(2**62) + 1]
        out, _ = _times_binomial(np.array(coeffs, dtype=np.int64), 1, 1)
        assert out.dtype == np.int64
        assert out.tolist() == _binomial_reference(coeffs, 1, 1)

    @given(st.lists(int64s, min_size=2, max_size=12), st.data())
    def test_matches_python_ints(self, coeffs, data):
        k = data.draw(st.integers(min_value=1, max_value=len(coeffs) - 1))
        e = data.draw(st.sampled_from((1, -1)))
        out, _ = _times_binomial(np.array(coeffs, dtype=np.int64), k, e)
        assert out.tolist() == _binomial_reference(coeffs, k, e)

    def test_keeps_going_in_python_ints(self):
        coeffs = [2**100, -(2**100), 3]
        out, _ = _times_binomial(np.array(coeffs, dtype=object), 2, -1)
        assert out.tolist() == _binomial_reference(coeffs, 2, -1)


class TestOverflowBudget:
    """After an exact max M the next 63 - M.bit_length() binomials are
    proven not to wrap; the max is taken again only when they are spent."""

    @pytest.mark.parametrize("bits", [1, 2, 33, 60, 61, 62])
    def test_budget_after_a_measured_step(self, bits):
        # The measured step itself spends one of the 63 - bits steps.
        coeffs = [2**bits - 1, 0, 0]
        out, budget = _times_binomial(np.array(coeffs, dtype=np.int64), 1, 1)
        assert out.dtype == np.int64
        assert budget == 62 - bits
        assert out.tolist() == _binomial_reference(coeffs, 1, 1)

    @pytest.mark.parametrize("top", [2**62, 2**63 - 1])
    def test_sixty_three_bits_promote_at_once(self, top):
        out, _ = _times_binomial(np.array([top, -5, 3], dtype=np.int64), 1, -1)
        assert out.dtype == object
        assert out.tolist() == _binomial_reference([top, -5, 3], 1, -1)

    def test_an_unspent_budget_skips_the_scan(self):
        # A budget the caller still holds is trusted: no promotion here,
        # although a fresh scan would promote.
        out, budget = _times_binomial(np.array([2**62, 0], dtype=np.int64), 1, -1, 1)
        assert out.dtype == np.int64
        assert budget == 0

    @pytest.mark.parametrize("bits", [61, 62, 63])
    def test_doubling_chain_promotes_before_it_could_wrap(self, bits):
        # (1 + q) on a constant array doubles its max each step.  The max
        # starts at bits - 4 bits and sits at exactly `bits` bits after four
        # steps, reaching 2**62 only after several; a budget off by one
        # (62 - bit_length, spent at exactly 0) misses a scan at 62 bits
        # and lets a later step wrap.
        start = (2**bits - 1) >> 4
        coeffs = [start] * 16
        out, budget = np.array(coeffs, dtype=np.int64), 0
        for step in range(10):
            before = max(abs(c) for c in out.tolist())
            was_int64 = out.dtype == np.int64
            out, budget = _times_binomial(out, 1, 1, budget)
            coeffs = _binomial_reference(coeffs, 1, 1)
            assert out.tolist() == coeffs, f"step {step}"
            if step == 3:
                assert max(coeffs).bit_length() == bits
            if was_int64 and before >= 2**62:
                assert out.dtype == object, f"int64 step from {before} at step {step}"
        assert out.dtype == object
        assert all(type(c) is int for c in out.tolist())


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
        assert qs_mul(t, t).coefficient(5) == 8

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

    def test_coefficient_bounds_checked(self):
        s = QSeries((1, 2, 3))
        with pytest.raises(IndexError):
            s.coefficient(3)
