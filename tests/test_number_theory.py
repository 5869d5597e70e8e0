"""The character mod 4 and the two ways of counting two-square representations."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaeval import chi4, r_bruteforce, r_bruteforce_table, r_divisor, r_divisor_table


class TestChi4:
    def test_one(self):
        assert chi4(1) == 1

    def test_even_is_zero(self):
        assert chi4(6) == 0

    def test_three_mod_four(self):
        assert chi4(7) == -1

    def test_periodic_on_negatives(self):
        for n in range(-20, 21):
            assert chi4(n) == chi4(n + 4)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            chi4(1.0)

    def test_complete_multiplicativity_exhaustive_mod_4(self):
        # chi4 only depends on the residue class, so all residue pairs
        # cover every integer pair
        for a in range(4):
            for b in range(4):
                assert chi4(a) * chi4(b) == chi4(a * b)


@given(st.integers(min_value=-10_000, max_value=10_000),
       st.integers(min_value=-10_000, max_value=10_000))
def test_chi4_multiplicative(n, m):
    assert chi4(n) * chi4(m) == chi4(n * m)


class TestBruteForceCount:
    def test_one(self):
        assert r_bruteforce(1) == 4

    def test_three_has_none(self):
        assert r_bruteforce(3) == 0

    def test_twenty_five(self):
        assert r_bruteforce(25) == 12

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            r_bruteforce(0)
        with pytest.raises(ValueError):
            r_bruteforce(-7)

    def test_matches_exhaustive_pair_enumeration(self):
        # independent quadratic-time count over a small box
        table = r_bruteforce_table(199)
        for n in range(1, 200):
            count = sum(
                1
                for x in range(-15, 16)
                for y in range(-15, 16)
                if x * x + y * y == n
            )
            assert r_bruteforce(n) == count
            assert table[n] == count


class TestDivisorCount:
    def test_one(self):
        assert r_divisor(1) == 4

    def test_two(self):
        # divisors 1 and 2 contribute 1 + 0
        assert r_divisor(2) == 4

    def test_sixty_five(self):
        assert r_divisor(65) == 16

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            r_divisor(0)

    def test_agrees_with_bruteforce_up_to_2000(self):
        for n in range(1, 2001):
            assert r_divisor(n) == r_bruteforce(n)


@given(st.integers(min_value=1, max_value=50_000))
def test_divisor_equals_bruteforce(n):
    assert r_divisor(n) == r_bruteforce(n)


@given(st.integers(min_value=1, max_value=50_000))
def test_count_is_multiple_of_four(n):
    # (x, y) -> (-y, x) acts freely on representations of n >= 1
    assert r_bruteforce(n) % 4 == 0


@lru_cache(maxsize=None)
def _scalar_counts() -> list[int]:
    # r(0..3000) from the per-n functions, which must agree.
    counts = [r_divisor(n) for n in range(1, 3001)]
    assert counts == [r_bruteforce(n) for n in range(1, 3001)]
    return [1] + counts


@pytest.mark.parametrize("table", [r_bruteforce_table, r_divisor_table],
                         ids=lambda f: f.__name__)
class TestTables:
    def test_equals_the_scalar_count_up_to_2000(self, table):
        result = table(2000)
        assert type(result) is tuple and all(type(r) is int for r in result)
        assert list(result) == _scalar_counts()[:2001]

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 24, 25, 26])
    def test_small_orders_and_squares(self, table, order):
        # The point count's box turns at isqrt(order).
        assert list(table(order)) == _scalar_counts()[: order + 1]

    @pytest.mark.parametrize("order", [-1, 2.0, True, None])
    def test_rejects_bad_orders(self, table, order):
        with pytest.raises(ValueError):
            table(order)


@given(st.integers(min_value=16, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_tables_equal_scalar_counts_at_any_order(order):
    expected = _scalar_counts()[: order + 1]
    assert list(r_bruteforce_table(order)) == expected
    assert list(r_divisor_table(order)) == expected
