"""Binary quadratic forms, both lattice-sum engines, and the incomplete
gamma kernel.

The two engines are validated against each other and against closed
forms; the incomplete gamma function is checked branch by branch against
direct quadrature of its defining integral, since the accelerated
engine's correctness funnels through it.
"""

import hashlib
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetaeval import (
    BinaryQuadraticForm,
    L_chi4,
    NonConvergence,
    epstein_accelerated,
    epstein_direct,
    gamma_integral,
    upper_incomplete_gamma,
    zeta,
)
from thetaeval import approx, epstein
from thetaeval.approx import EPS, ApproxValue
from thetaeval.epstein import _MAX_POINTS, _block_sum, _cf_upper, _count_bound, _level_set
from thetaeval.quadrature import _halfline
from reference_quadrature import reference_finite

# scripts/compute_oracles.py: Simpson after t = 1 + w^2
ORACLE_GAMMA_HALF_ONE = 0.27880558528066196
# scripts/compute_oracles.py: raw sum of (x^2 + y^2)^-3 over the box of
# radius 10^4, its truncation and rounding together below 5.02e-14
ORACLE_UNIT_LATTICE_AT_THREE = 4.6589136156038435
ORACLE_UNIT_LATTICE_BOUND = 5.02e-14

FOUR_FORMS = [(1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0)]


class TestFormType:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            BinaryQuadraticForm(1.0, 3.0, 1.0)

    def test_rejects_negative_leading(self):
        with pytest.raises(ValueError):
            BinaryQuadraticForm(-1.0, 0.0, -1.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="not positive definite"):
            BinaryQuadraticForm(1.0, 2.0, 1.0)

    @pytest.mark.parametrize("triple", [(1e200, 0.0, 1e200), (1e-200, 0.0, 1e-200),
                                        (1e200, 1e200, 1e200)])
    def test_rejects_discriminant_outside_double_range(self, triple):
        # Positive definite, but 4ac - b^2 overflows, underflows or is inf - inf.
        with pytest.raises(ValueError, match="discriminant 4ac - b\\^2 = (inf|0.0|nan), "
                                             "not a finite positive double"):
            BinaryQuadraticForm(*triple)

    def test_discriminant(self):
        assert BinaryQuadraticForm(2.0, -2.0, 1.0).disc == 4.0
        assert BinaryQuadraticForm(1.0, 0.0, 2.0).disc == 8.0

    def test_evaluate_examples(self):
        assert BinaryQuadraticForm(1.0, 0.0, 1.0)(3.0, 4.0) == 25.0
        assert BinaryQuadraticForm(2.0, -2.0, 1.0)(1.0, 1.0) == 1.0

    def test_unimodular_change_of_variable(self):
        # (x, y) -> (x, x - y) carries the skew form onto the unit form
        skew = BinaryQuadraticForm(2.0, -2.0, 1.0)
        unit = BinaryQuadraticForm(1.0, 0.0, 1.0)
        rng = random.Random(11)
        for _ in range(50):
            x = rng.randint(-40, 40)
            y = rng.randint(-40, 40)
            assert skew(x, y) == unit(x, x - y)

    def test_z_point_satisfies_form_equations(self):
        for coeffs in FOUR_FORMS:
            form = BinaryQuadraticForm(*coeffs)
            point = form.z_point()
            z = complex(point.re, point.im)
            assert z.imag > 0.0
            assert abs(form.a * (z * z.conjugate()).real - form.c) < 1e-12
            assert abs(form.a * (2.0 * z.real) + form.b) < 1e-12

    def test_adjugate_swaps_outer_and_flips_middle(self):
        # The dual form (c, -b, a) is the form turned a quarter turn,
        # Q'(w1, w2) = Q(w2, -w1), with the same discriminant.
        form = BinaryQuadraticForm(2.0, -2.0, 1.0)
        adj = BinaryQuadraticForm(form.c, -form.b, form.a)
        assert adj.disc == form.disc == 4.0
        for w1 in range(-5, 6):
            for w2 in range(-5, 6):
                assert adj(w1, w2) == form(w2, -w1)


form_triples = st.tuples(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.3, max_value=4.0),
)


@given(form_triples, st.floats(min_value=0.0, max_value=400.0))
@settings(max_examples=150, deadline=None)
def test_count_bound_random_forms(triple, t):
    # |#{v != 0 : Q(v) <= t} - (2 pi / sqrt D) t| <= alpha sqrt(t) + beta,
    # which every level-set tail bound rests on.
    a, b, c = triple
    assume(4.0 * a * c - b * b > 0.05)
    form = BinaryQuadraticForm(a, b, c)
    count = len(_box_values(form, t))
    alpha, beta = _count_bound(form)
    assert abs(count - 2.0 * math.pi / math.sqrt(form.disc) * t) <= alpha * math.sqrt(t) + beta


def _box_values(form, level):
    # Q over every v != 0 of the box that holds the ellipse Q <= level,
    # kept where Q <= level: the brute-force level set.
    xmax = math.ceil(math.sqrt(4.0 * form.c * level / form.disc)) + 1
    ymax = math.ceil(math.sqrt(4.0 * form.a * level / form.disc)) + 1
    x = np.arange(-xmax, xmax + 1, dtype=float)[:, None]
    y = np.arange(-ymax, ymax + 1, dtype=float)[None, :]
    q = form.a * x * x + form.b * x * y + form.c * y * y
    q[xmax, ymax] = np.inf
    return q[q <= level]


sheared_forms = st.tuples(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=-0.99, max_value=0.99),
    st.floats(min_value=0.0, max_value=8.0).map(lambda e: 10.0 ** e),
)


@given(sheared_forms, st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=-30, max_value=30), st.integers(min_value=0, max_value=3))
@settings(max_examples=200, deadline=None)
def test_level_set_matches_box_filter(triple, shear, x, y):
    # b is the shear relative to its limit 2 sqrt(ac).  The level is the
    # value of a lattice point, so Q == level occurs, or a fraction of it;
    # the enumerator keeps one value of each +-v pair.
    a, b, c = triple
    form = BinaryQuadraticForm(a, b * 2.0 * math.sqrt(a * c), c)
    assume((x, y) != (0, 0))
    level = form(float(x), float(y))
    level *= 1.0 if shear < 0.5 else shear
    assume(16.0 * level * math.sqrt(a * c) / form.disc <= 2e6)  # box size
    got = np.sort(np.concatenate([*_level_set(form, level), np.empty(0)]))
    want = np.sort(_box_values(form, level))
    assert want.tolist() == np.repeat(got, 2).tolist()


integer_forms = st.tuples(st.integers(1, 20), st.integers(-20, 20), st.integers(1, 20)) \
    .filter(lambda abc: 4 * abc[0] * abc[2] > abc[1] ** 2)


@given(integer_forms, st.integers(min_value=1, max_value=400))
@settings(max_examples=200, deadline=None)
def test_adjugate_level_set_takes_the_same_values(triple, level):
    # Q'(w1, w2) = Q(w2, -w1), so the accelerated engine's dual side may sum
    # over the form's own level set.  Integer forms give exact values, and
    # integer levels put lattice points on the boundary.
    form = BinaryQuadraticForm(*map(float, triple))
    values = [np.sort(np.concatenate([*_level_set(q, float(level)), np.empty(0)])).tolist()
              for q in (form, BinaryQuadraticForm(form.c, -form.b, form.a))]
    assert values[0] == values[1]


def test_level_set_streams_bounded_blocks():
    # A long row (c = 1e8) and many short ones (a = 1e4) both split into blocks.
    for coeffs, level in (((1.0, 0.3, 1e8), 1e8), ((1e4, 0.3, 1.0), 1e7)):
        form = BinaryQuadraticForm(*coeffs)
        blocks = list(_level_set(form, level))
        assert len(blocks) > 1
        assert max(len(q) for q in blocks) <= 4096
        assert sum(len(q) for q in blocks) == len(_box_values(form, level)) // 2


# Each block's length and the first 16 hex digits of the SHA-256 of its
# bytes.  Both engines add their terms block by block, so their bits rest
# on this partition as well as on the values.  The last level set has 5479
# rows, more than one batch of _BLOCK rows.
LEVEL_SET_BLOCKS = [
    ((1.0, 0.0, 1.0), 25000.0, [
        (4046, "e19b0f1429becba7"), (4044, "4f641449be6d704c"), (4044, "05783f247ab2ec64"),
        (4046, "733bd76e4d21e89f"), (4040, "83272e965bd3719b"), (4040, "e7ff68e592f0b319"),
        (4034, "b3c9b2e95aa45471"), (4028, "f376c14c620c7e90"), (4018, "868a53009bb6cb6b"),
        (2934, "8392fe9d8c0f01d3"),
    ]),
    ((1.0, 0.3, 1e8), 1e8, [
        (4096, "e188da802acbaa11"), (4096, "aad8f051d0c22a26"), (1809, "6e2283c9c45209e9"),
    ]),
    ((1e4, 0.3, 1.0), 1e7, [
        (3852, "8c0f5dfd52a8dc47"), (3852, "45b5a75ebb61d386"), (3852, "e0f934e1fd5f58df"),
        (3848, "77d4e0ad9d563b61"), (3852, "6d983babc08a38dc"), (3852, "468138db631ce360"),
        (3852, "6c4936305cc47eeb"), (3852, "4c69115c96ef6cfe"), (3852, "477dfe7abdc729b2"),
        (3852, "c185e98b3cfeb83a"), (3844, "39b6b9506a2fb4bf"), (3844, "089a5e7575f2a96f"),
        (3844, "2acfbf29c5996b44"), (3844, "9737a31a31959fa3"), (3844, "72798847f60b6b91"),
        (3844, "51fd7756a4c394ea"), (3836, "50e9010bca69fe57"), (3836, "563bdd2c021738d3"),
        (3836, "64ca3bbbd7ee5e0e"), (3836, "8ea4a42d92c9c6ac"), (3830, "5d2be51494ef20e3"),
        (3826, "7ca210a936934d33"), (3828, "7ef39f1446f2f3db"), (3820, "ef203960989c10e6"),
        (3820, "679e49fa4d2352c8"), (3816, "f07940390bd67575"), (3808, "d5b8374d235af18c"),
        (3808, "e1048ec676820c7d"), (3800, "7f80af64c97f4c3f"), (3796, "d1246a060d946261"),
        (3788, "cd5f7dbbcfbc7a0a"), (3780, "e842678aa6d705a8"), (3772, "978c35c88292d346"),
        (3760, "ce4f5e45c3265eb3"), (3748, "ca3d456814a95a16"), (3732, "5eebf1dc195499ea"),
        (3712, "b8912af7fd4a86f8"), (3688, "6c5748d7322d125c"), (3648, "a9feee7ed6981296"),
        (3592, "103085e5144ab95e"), (3460, "ef6e5d94d0f12a25"), (1346, "c83590e2edc59395"),
    ]),
    ((1e6, 0.7, 1.0), 3e7, [
        (3004, "d79be5cff724d86a"), (3004, "ffb9de16ede260cf"), (3004, "7fb343aa438e2b46"),
        (3004, "b571535f2725ec0d"), (3004, "83ed73d11de07df3"), (3003, "dc27f775119d508c"),
        (3003, "78feae02e754f8a6"), (3003, "94c24f9da44ef62f"), (2867, "bb6c5402715478aa"),
        (2836, "4dafa38bc692be92"), (2836, "cddda5adb0a2d34f"), (2836, "71dd22d58eec2772"),
        (2828, "1dbd508d672ead58"), (2392, "a190a6acafbf4b13"), (2606, "4c0bad50bebb2fc5"),
        (2378, "105c069ee8beda37"), (1922, "d3d2dfadb79c0d05"), (36, "3f2a26cd3a6004d8"),
    ]),
]


@pytest.mark.parametrize("coeffs, level, blocks", LEVEL_SET_BLOCKS,
                         ids=["unit", "long-row", "short-rows", "two-row-batches"])
def test_level_set_blocks_are_pinned(coeffs, level, blocks):
    got = [(len(q), hashlib.sha256(q.tobytes()).hexdigest()[:16])
           for q in _level_set(BinaryQuadraticForm(*coeffs), level)]
    assert got == blocks


def test_level_set_refuses_work_past_the_cap():
    # Q <= 1e7 on the unit form holds about 3e7 points; both engines refuse
    # such a request at once instead of running it.
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match=str(_MAX_POINTS)):
        next(_level_set(BinaryQuadraticForm(1.0, 0.0, 1.0), 1e7))
    with pytest.raises(NonConvergence, match=str(_MAX_POINTS)):
        epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.25, 1e-9)
    with pytest.raises(NonConvergence, match=str(_MAX_POINTS)):
        epstein_accelerated(BinaryQuadraticForm(1.0, 0.3, 1e30), 1.5, 1e-10)
    assert time.perf_counter() - start < 1.0


def _sum_or_error(add, terms):
    try:
        return add(terms)
    except OverflowError as exc:
        return repr(exc)


def _fsum_of_floats(terms):
    return math.fsum(terms.tolist())


@given(st.integers(0, 4096), st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 12.0),
       st.floats(0.0, 15.0), st.floats(1.0001, 12.0))
@settings(max_examples=200, deadline=None)
def test_block_sum_is_fsum(n, seed, low, decades, s):
    # Values Q spread over up to 15 decades, as blocks of the direct engine.
    q = 10.0 ** np.random.default_rng(seed).uniform(low, low + decades, n)
    terms = q ** -s
    assert _block_sum(terms) == _fsum_of_floats(terms)


@pytest.mark.parametrize("terms", [
    np.empty(0),
    np.array([0.3]),
    np.full(4096, 0.1),
    np.full(4096, 1e305),                              # 2 n max and the sum overflow
    np.concatenate([[1e305], np.full(4095, 1e-300)]),  # 2 n max overflows, the sum does not
    np.array([1.5 * 2.0 ** 1021]),                     # sigma = 2^1023, the largest split
    np.array([math.inf, 1.0]),
    np.array([5e-324, 1e-310, 2.0 ** -1022]),
], ids=["empty", "one", "equal", "overflow", "huge-max", "largest-sigma", "inf", "subnormal"])
def test_block_sum_edge_cases(terms):
    assert _sum_or_error(_block_sum, terms) == _sum_or_error(_fsum_of_floats, terms)


class TestDirectEngine:
    def test_rejects_s_at_one(self):
        with pytest.raises(ValueError):
            epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.0)

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError):
                epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 2.0, tol)

    def test_deterministic(self):
        form = BinaryQuadraticForm(1.0, 1.0, 1.0)
        a = epstein_direct(form, 1.5, 1e-3)
        b = epstein_direct(form, 1.5, 1e-3)
        assert a.value == b.value and a.error_bound == b.error_bound

    def test_unimodular_forms_agree(self):
        a = epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.5, 1e-3)
        b = epstein_direct(BinaryQuadraticForm(2.0, -2.0, 1.0), 1.5, 1e-3)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_dirichlet_value_at_two(self):
        # 4 zeta(2) L(2); the proven bound falls like T^(-3/2), so 1e-8
        # takes a level near 1e6
        d = epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 2.0, 1e-8)
        assert d.error_bound <= 1e-8
        rhs = 4.0 * zeta(2.0, 1e-13).value * L_chi4(2.0, 1e-13).value
        assert abs(d.value - rhs) <= 1e-8

    def test_bruteforce_oracle_at_three(self):
        # raw no-tail lattice sum to radius 10^4, frozen; its own error is
        # far inside the engine bound
        d = epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 3.0, 1e-10)
        assert ORACLE_UNIT_LATTICE_BOUND < 1e-12
        assert abs(d.value - ORACLE_UNIT_LATTICE_AT_THREE) <= d.error_bound + 1e-12


class TestAcceleratedEngine:
    def test_matches_direct_engine(self):
        form = BinaryQuadraticForm(1.0, 0.0, 1.0)
        fast = epstein_accelerated(form, 1.5, 1e-12)
        slow = epstein_direct(form, 1.5, 1e-3)
        assert abs(fast.value - slow.value) <= fast.error_bound + slow.error_bound

    def test_near_one_dirichlet_value(self):
        # the value here is ~3218 (the pole is close), so 1e-10 absolute
        # is already a relative ask of 3e-14
        s = 1.0 + 2.0 ** -10
        fast = epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), s, 1e-10)
        rhs = 4.0 * zeta(s, 1e-12).value * L_chi4(s, 1e-13).value
        assert abs(fast.value - rhs) <= 1e-10

    def test_swap_symmetry(self):
        # (x, y) -> (y, x) swaps a and c; (1,1,1) is its own image
        sym = epstein_accelerated(BinaryQuadraticForm(1.0, 1.0, 1.0), 1.5, 1e-12)
        swapped = epstein_accelerated(BinaryQuadraticForm(1.0, 1.0, 1.0), 1.5, 1e-12)
        assert sym.value == swapped.value
        lopsided = epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 2.0), 1.5, 1e-12)
        back = epstein_accelerated(BinaryQuadraticForm(2.0, 0.0, 1.0), 1.5, 1e-12)
        assert abs(lopsided.value - back.value) <= lopsided.error_bound + back.error_bound

    @pytest.mark.parametrize("mu", [2.0, 5.0])
    def test_scaling_law(self, mu):
        base = epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), 2.0, 1e-12)
        scaled = epstein_accelerated(
            BinaryQuadraticForm(mu, 0.0, mu), 2.0, 1e-12)
        target = mu ** -2.0 * base.value
        assert abs(scaled.value - target) <= scaled.error_bound + base.error_bound

    def test_unimodular_invariance(self):
        a = epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.5, 1e-12)
        b = epstein_accelerated(BinaryQuadraticForm(2.0, -2.0, 1.0), 1.5, 1e-12)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_rejects_s_at_one(self):
        with pytest.raises(ValueError):
            epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.0, 1e-10)

    def test_refuses_impossible_tolerance(self):
        with pytest.raises(NonConvergence):
            epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.5, 1e-60)

    def test_deterministic(self):
        form = BinaryQuadraticForm(1.0, 1.0, 1.0)
        a = epstein_accelerated(form, 2.5, 1e-12)
        b = epstein_accelerated(form, 2.5, 1e-12)
        assert a.value == b.value and a.error_bound == b.error_bound

    @pytest.mark.parametrize("s", [5.8786] + [5.0 + 0.25 * k for k in range(13)])
    def test_certifies_where_gamma_passes_six(self, s):
        # Gamma(s) is taken down to s <= 4 by its recurrence before the
        # quadrature, whose rounding floor passes 1e-14 once Gamma(s) > 21;
        # s = 5.8786 used to stall there.
        fast = epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), s, 1e-12)
        rhs = 4.0 * (zeta(s, 1e-13) * L_chi4(s, 1e-13))
        assert abs(fast.value - rhs.value) <= fast.error_bound + rhs.error_bound

    @pytest.mark.parametrize("coeffs", FOUR_FORMS)
    def test_engine_agreement_spot_checks(self, coeffs):
        form = BinaryQuadraticForm(*coeffs)
        fast = epstein_accelerated(form, 2.0, 1e-11)
        slow = epstein_direct(form, 2.0, 1e-4)
        assert abs(fast.value - slow.value) <= fast.error_bound + slow.error_bound


@given(s=st.floats(min_value=1.05, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_accelerated_tracks_dirichlet_product(s):
    fast = epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), s, 1e-11)
    z = zeta(s, 1e-12)
    ell = L_chi4(s, 1e-12)
    rhs = 4.0 * z * ell
    assert abs(fast.value - rhs.value) <= fast.error_bound + rhs.error_bound + 1e-11


def _result_or_partial(engine, *args):
    # The engine's value, or the partial value and bound of its stall.
    try:
        return engine(*args)
    except NonConvergence as exc:
        return ApproxValue(exc.value, exc.error_bound, exc.cost)


@given(sheared_forms, st.floats(min_value=1.1, max_value=4.0),
       st.floats(min_value=0.25, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_direct_bound_holds_against_accelerated(triple, s, depth):
    # The direct tolerance runs from 10^-(s-1) down to 10^-(4 (s-1)) or
    # 1e-9, which keeps the level set small.  Where an engine cannot
    # certify its tolerance (large values near a degenerate form, or s just
    # above 2, where the incomplete gamma recurrence divides by 2 - s), its
    # partial value and bound stand in.
    a, b, c = triple
    form = BinaryQuadraticForm(a, b * 2.0 * math.sqrt(a * c), c)
    slow = _result_or_partial(
        epstein_direct, form, s, max(10.0 ** (-4.0 * depth * (s - 1.0)), 1e-9))
    fast = _result_or_partial(epstein_accelerated, form, s, 1e-13)
    assert abs(slow.value - fast.value) <= slow.error_bound + fast.error_bound


class TestUpperIncompleteGamma:
    def test_exponential_case(self):
        r = upper_incomplete_gamma(1.0, 2.0)
        assert abs(r.value - math.exp(-2.0)) <= r.error_bound + 1e-16

    def test_half_at_one(self):
        r = upper_incomplete_gamma(0.5, 1.0)
        assert abs(r.value - ORACLE_GAMMA_HALF_ONE) <= r.error_bound + 1e-15
        quad = _tail_integral(0.5, 1.0)
        assert abs(r.value - quad.value) <= r.error_bound + quad.error_bound

    def test_additivity_with_lower_part(self):
        s, x = 1.5, 2.0
        upper = upper_incomplete_gamma(s, x)
        lower = reference_finite(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x, 1e-12)
        whole = gamma_integral(s, 1e-13)
        gap = abs(upper.value + lower.value - whole.value)
        assert gap <= upper.error_bound + lower.error_bound + whole.error_bound

    def test_continued_fraction_branch(self):
        r = upper_incomplete_gamma(1.5, 3.0)
        quad = _tail_integral(1.5, 3.0)
        assert abs(r.value - quad.value) <= r.error_bound + quad.error_bound

    def test_series_branch_small_x(self):
        r = upper_incomplete_gamma(1.5, 0.5)
        quad = _tail_integral(1.5, 0.5)
        assert abs(r.value - quad.value) <= r.error_bound + quad.error_bound

    def test_exponential_integral_branch(self):
        r = upper_incomplete_gamma(0.0, 0.7)
        quad = _tail_integral(0.0, 0.7)
        assert abs(r.value - quad.value) <= r.error_bound + quad.error_bound

    def test_negative_order_recurrence_branch(self):
        r = upper_incomplete_gamma(-0.5, 0.5)
        quad = _tail_integral(-0.5, 0.5)
        assert abs(r.value - quad.value) <= r.error_bound + quad.error_bound

    @pytest.mark.parametrize("s", [0.002, 0.03125, -0.96875])
    def test_order_near_zero(self, s):
        # Gamma(s) near s = 0 is about 1/s; the series branch must still
        # certify it, directly or through the recurrence from s - 1.
        r = upper_incomplete_gamma(s, 0.99)
        quad = _tail_integral(s, 0.99)
        assert abs(r.value - quad.value) <= r.error_bound + quad.error_bound

    def test_order_just_above_zero_away_from_one(self):
        # The series complement needs Gamma(2^-10), which used to be asked of
        # the quadrature below its rounding floor and stalled.
        r = upper_incomplete_gamma(2.0 ** -10, 0.3)
        quad = _tail_integral(2.0 ** -10, 0.3)
        assert abs(r.value - quad.value) <= r.error_bound + quad.error_bound

    def test_monotone_decreasing_in_x(self):
        values = [upper_incomplete_gamma(0.75, x).value for x in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)


_T = 2.0 ** -10
# (s, x, value.hex(), error_bound.hex(), cost) of upper_incomplete_gamma,
# value and bound recorded before the continued fraction became a per-point
# float loop and the lift a loop: the rows guard bit identity only (the
# quadrature oracles above guard the values).  The cost counts kernel
# steps, as the lattice sums do: the fraction's, series' and lift's, with
# nothing for the whole Gamma the series complement takes from
# gamma_integral.  Rows by branch: continued fraction (x >= max(1, s + 1)),
# series complement, E1, lift.
GAMMA_PINS = [
    (1.5, 3.0, '0x1.9524bc3c75cb3p-4', '0x1.9524bc3c75cb3p-52', 29),
    (1.5, 2.5, '0x1.37cf8187b688ap-3', '0x1.37cf8187b688ap-51', 33),
    (1.5, 40.0, '0x1.f5c3f94ebc270p-56', '0x1.f5c3f94ebc270p-104', 6),
    (1.5, 10000.0, '0x0.0p+0', '0x1.6789e3750f791p-1017', 2),
    (2.0, 3.0, '0x1.97db0ccceb0b0p-3', '0x1.97db0ccceb0b0p-51', 2),
    (3.0, 4.0, '0x1.e7a2b4b36030bp-2', '0x1.e7a2b4b36030bp-50', 3),
    (3.0, 60.0, '0x1.3b3538fcb97e0p-75', '0x1.3b3538fcb97e0p-123', 3),
    (0.5, 1.0, '0x1.1d7f361ae3ec0p-2', '0x1.c2dfc48da77b5p-48', 19),
    (-0.5, 1.0, '0x1.6cd8b51fac1c3p-3', '0x1.6cd8b51fac1c3p-51', 85),
    (-0.5, 1000.0, '0x0.0p+0', '0x1.6789e3750f791p-1017', 3),
    (-_T, 1.0, '0x1.c11a49495dad2p-3', '0x1.c11a49495dad2p-51', 82),
    (-_T, 1.0 + _T, '0x1.c05e1daa6ba74p-3', '0x1.c05e1daa6ba74p-51', 82),
    (-1.0, 1.5, '0x1.8f3a4e9fe2cbcp-5', '0x1.8f3a4e9fe2cbcp-53', 60),
    (-2.0, 1.0, '0x1.c14c5d3bf8f66p-4', '0x1.c14c5d3bf8f66p-52', 83),
    (-2.0, 30.0, '0x1.d22e91717cc25p-59', '0x1.d22e91717cc25p-107', 9),
    (1.5, 0.5, '0x1.6b910e20f7e0dp-1', '0x1.5d3309e24d9c6p-49', 15),
    (1.5, 2.4375, '0x1.48d8468bf3b98p-3', '0x1.5d3309e24d9c6p-49', 24),
    (2.0, 0.01, '0x1.fff97d6bdf829p-1', '0x1.81b423ab4e6bdp-49', 7),
    (3.0, 3.9375, '0x1.faaf722f48794p-2', '0x1.61471ac07ad0dp-48', 28),
    (0.03125, 0.3, '0x1.ca0c34f617180p-1', '0x1.bc37ab2ba00e1p-44', 14),
    (0.5, 0.99, '0x1.214adcccf8b6cp-2', '0x1.c2dfc48da77b5p-48', 19),
    (0.0, 0.5, '0x1.1e9aa50574b81p-1', '0x1.a06f148b74efap-49', 16),
    (0.0, 0.999, '0x1.c20d6e981b013p-3', '0x1.1c50ff05cbb93p-49', 20),
    (-0.5, 0.5, '0x1.2e6f1748e562cp-1', '0x1.065628404dfc5p-46', 16),
    (-1.0, 0.25, '0x1.0913ec416c67ep+1', '0x1.33bfdac6e43acp-47', 15),
    (-2.0, 0.7, '0x1.5b08b037f98a8p-2', '0x1.5de697cf0a265p-49', 20),
    (-2.0, 0.999, '0x1.c2cee2efcdc8dp-4', '0x1.a9f59dfbc1cc7p-50', 22),
    (-_T, 0.99, '0x1.c8b67e3d1b800p-3', '0x1.b17999035ecdfp-39', 19),
    (-1.5, 0.001, '0x1.4873bfa8bd0a3p+14', '0x1.497a2607c5a24p-35', 7),
    (-1.0, 0.9990234375, '0x1.30db0af2f40aap-3', '0x1.5e8be18efd2aep-49', 21),
]

# (form, s, value.hex(), error_bound.hex(), cost) of epstein_accelerated at
# tol 1e-12, value and bound recorded as GAMMA_PINS were.  The cost is
# Gamma(s)'s quadrature plus the kernel steps the split takes: once per
# distinct argument of a block, with no Gamma charged per point.
ACCELERATED_PINS = [
    ((1.0, 0.0, 1.0), 1.25, '0x1.e7a05770a6dc1p+3', '0x1.86ad3d9bd841ep-45', 379),
    ((1.0, 0.0, 1.0), 1.5, '0x1.21136dc7ab5cap+3', '0x1.e9051d9d0180cp-46', 381),
    ((1.0, 0.0, 1.0), 2.0, '0x1.81b749d8676b8p+2', '0x1.69b1595f4c229p-46', 312),
    ((1.0, 0.0, 1.0), 3.0, '0x1.2a2ba4037a169p+2', '0x1.9f6a312af15c0p-46', 357),
    ((2.0, -2.0, 1.0), 1.25, '0x1.e7a05770a6dc1p+3', '0x1.86ad3d9bb584fp-45', 379),
    ((2.0, -2.0, 1.0), 1.5, '0x1.21136dc7ab5cap+3', '0x1.e9051d9ce79dbp-46', 381),
    ((2.0, -2.0, 1.0), 2.0, '0x1.81b749d8676b8p+2', '0x1.69b1595f599d8p-46', 312),
    ((2.0, -2.0, 1.0), 3.0, '0x1.2a2ba4037a169p+2', '0x1.9f6a312ae4c50p-46', 357),
    ((1.0, 0.0, 2.0), 1.25, '0x1.442164114ad59p+3', '0x1.323898b3e68dcp-45', 487),
    ((1.0, 0.0, 2.0), 1.5, '0x1.6c8d76f466d85p+2', '0x1.8e38f2ec1d693p-46', 488),
    ((1.0, 0.0, 2.0), 2.0, '0x1.c05ce5df76ff8p+1', '0x1.1f79040727992p-46', 419),
    ((1.0, 0.0, 2.0), 3.0, '0x1.3c41ee5d79ac6p+1', '0x1.b4b1728eab257p-47', 435),
    ((1.0, 1.0, 1.0), 1.25, '0x1.21ec5745a3c8fp+4', '0x1.ccdcd3b680275p-45', 324),
    ((1.0, 1.0, 1.0), 1.5, '0x1.6117f7b5f8d40p+3', '0x1.257dbde7ccd6bp-45', 326),
    ((1.0, 1.0, 1.0), 2.0, '0x1.ed836964610e0p+2', '0x1.bdd510f9ca0adp-46', 276),
    ((1.0, 1.0, 1.0), 3.0, '0x1.980e718024badp+2', '0x1.2549f1f226219p-45', 308),
    ((1.0, 0.53, 10000.0), 1.25, '0x1.5905f7222bceap+1', '0x1.269416f56d42cp-46', 1304),
    ((1.0, 0.53, 10000.0), 1.5, '0x1.33cf8fd4874c7p+1', '0x1.ec7788aff335ap-47', 1312),
    ((1.0, 0.53, 10000.0), 2.0, '0x1.1513425a46794p+1', '0x1.a237a913067a8p-47', 1062),
    ((1.0, 0.53, 10000.0), 3.0, '0x1.0470984c8f760p+1', '0x1.67692f6a29626p-47', 1173),
]


@pytest.mark.parametrize("s, x, value, bound, cost", GAMMA_PINS)
def test_incomplete_gamma_pinned_bits(s, x, value, bound, cost):
    g = upper_incomplete_gamma(s, x)
    assert (g.value.hex(), g.error_bound.hex(), g.cost) == (value, bound, cost)


@pytest.mark.parametrize("coeffs, s, value, bound, cost", ACCELERATED_PINS)
def test_accelerated_pinned_bits(coeffs, s, value, bound, cost):
    r = epstein_accelerated(BinaryQuadraticForm(*coeffs), s, 1e-12)
    assert (r.value.hex(), r.error_bound.hex(), r.cost) == (value, bound, cost)


def _bits(r):
    return r.value.hex(), r.error_bound.hex(), r.cost


class TestAcceleratedCaches:
    # Outside a run the accelerated sum is taken afresh on every call, and
    # in a run it shares Gamma values: its bits may not depend on what ran
    # before it.

    def test_cached_sum_still_refuses_a_tighter_tolerance(self):
        # A bound that meets one tolerance is refused at a tol that allows
        # half of it, with the same value, bound and cost carried by the stall.
        form = BinaryQuadraticForm(1.0, 0.0, 2.0)
        loose = epstein_accelerated(form, 1.5, 1e-10)
        with pytest.raises(NonConvergence, match="accelerated lattice sum stalled") as stall:
            epstein_accelerated(form, 1.5, loose.error_bound / (2.0 * abs(loose.value)))
        assert (stall.value.value, stall.value.error_bound, stall.value.cost) \
            == (loose.value, loose.error_bound, loose.cost)

    @pytest.mark.parametrize("order", ["ascending", "descending", "fresh"])
    def test_pins_hold_in_any_call_order(self, order):
        # "ascending" and "descending" take the pins in one run's memo, where
        # a sum takes the Gamma values an earlier one computed; "fresh" calls
        # outside a run, where each pin computes its Gamma values anew.
        pins = sorted(ACCELERATED_PINS, key=lambda pin: pin[1], reverse=order == "descending")
        token = approx._RUN_MEMO.set(None if order == "fresh" else {})
        try:
            for coeffs, s, value, bound, cost in pins:
                r = epstein_accelerated(BinaryQuadraticForm(*coeffs), s, 1e-12)
                assert _bits(r) == (value, bound, cost)
        finally:
            approx._RUN_MEMO.reset(token)

    def test_level_set_runs_once_per_uncached_sum(self, monkeypatch):
        # Both sides sum over the form's own level set, never the dual
        # form's: one enumeration per call, whatever the tol.
        enumerated = []
        real = epstein._level_set

        def counted(form, level):
            enumerated.append(form)
            return real(form, level)

        monkeypatch.setattr(epstein, "_level_set", counted)
        form = BinaryQuadraticForm(1.0, 0.53, 1e4)
        orders = (3.0, 2.0, 1.5, 1.25, 1.0 + 2.0 ** -4, 1.0 + 2.0 ** -10)
        for s in orders:
            for tol in (1e-10, 1e-12):
                _result_or_partial(epstein_accelerated, form, s, tol)
        assert enumerated == [form] * (2 * len(orders))

    def test_integer_and_float_orders_give_the_same_bits(self):
        form = BinaryQuadraticForm(1.0, 0.53, 1e4)
        pinned = next(pin[2:] for pin in ACCELERATED_PINS if pin[:2] == ((1.0, 0.53, 1e4), 2.0))
        assert _bits(epstein_accelerated(form, 2, 1e-12)) == pinned
        assert _bits(epstein_accelerated(form, 2.0, 1e-12)) == pinned

    def test_integer_order_sum_takes_euler_gamma_from_the_module(self, monkeypatch):
        # At s = 2 the dual side lifts order -1 to the E1 branch, which reads
        # Euler's constant computed once at import instead of per point.
        calls = {"_e1_series": 0, "euler_gamma": 0}

        def counted(name):
            real = getattr(epstein, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(epstein, name, counted(name))
        pinned = next(pin[2:] for pin in ACCELERATED_PINS if pin[:2] == ((1.0, 0.53, 1e4), 2.0))
        assert _bits(epstein_accelerated(BinaryQuadraticForm(1.0, 0.53, 1e4), 2, 1e-12)) \
            == pinned
        assert calls["_e1_series"] > 0 and calls["euler_gamma"] == 0


def _kernel_arguments(monkeypatch, form, s):
    # The (order, x) of every kernel evaluation in one accelerated sum, and
    # the (order, lambda Q) of every point of its level set, in order.
    evaluated, points = [], []
    lam = 2.0 * math.pi / math.sqrt(form.disc)

    def counted(order, x, whole):
        evaluated.append((order, x))
        return kernel(order, x, whole)

    def level_set(form, level):
        for q in real_level_set(form, level):
            points.extend((order, x) for order in (s, 1.0 - s) for x in (lam * q).tolist())
            yield q

    real_level_set, kernel = epstein._level_set, epstein._incomplete_gamma
    monkeypatch.setattr(epstein, "_level_set", level_set)
    monkeypatch.setattr(epstein, "_incomplete_gamma", counted)
    epstein_accelerated(form, s, 1e-12)
    return evaluated, points


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
@pytest.mark.parametrize("s", [1.25, 2.0, 3.0])
def test_kernel_runs_once_per_distinct_argument(monkeypatch, coeffs, s):
    # The symmetric forms repeat lambda Q under their automorphisms: each
    # block evaluates every distinct (order, lambda Q) once (these level
    # sets fit in one block), and a second call evaluates them all again.
    form = BinaryQuadraticForm(*coeffs)
    evaluated, points = _kernel_arguments(monkeypatch, form, s)
    assert len(points) // 2 <= epstein._BLOCK
    assert len(evaluated) == len(set(evaluated)) < len(points)
    assert set(evaluated) == set(points)
    monkeypatch.undo()
    again, _ = _kernel_arguments(monkeypatch, form, s)
    assert again == evaluated


def test_kernel_runs_once_per_point_without_repeats(monkeypatch):
    # A sheared form repeats no value: one evaluation per point and order.
    evaluated, points = _kernel_arguments(monkeypatch, BinaryQuadraticForm(1.0, 0.53, 1e4), 1.5)
    assert evaluated == points


def test_whole_gamma_is_taken_once_per_block_side(monkeypatch):
    # Outside a run the series complement's whole Gamma, which depends on
    # the order alone, is taken once per block side: the sheared form's one
    # block asks Gamma(1.5) and the dual side's lifted Gamma(0.5) once each,
    # beside the division's Gamma(1.5), not once per series-branch point.
    calls = []

    def counted(*args):
        calls.append(args)
        return gamma_integral(*args)

    monkeypatch.setattr(epstein, "gamma_integral", counted)
    form = BinaryQuadraticForm(1.0, 0.53, 1e4)
    assert approx._RUN_MEMO.get() is None
    epstein_accelerated(form, 1.5, 1e-12)
    assert sorted(calls) == [(0.5, 1e-14), (1.5, 1e-14), (1.5, 1e-14)]


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 100.0), (1.5, 0.0, 100.0), (1.0, 0.53, 1e4)])
def test_accelerated_certifies_just_below_two(coeffs):
    # The dual side lifts order -1 + 2^-10 to 2^-10, and Gamma(2^-10) used to
    # be asked of the quadrature below its rounding floor.
    form = BinaryQuadraticForm(*coeffs)
    fast = epstein_accelerated(form, 2.0 - 2.0 ** -10, 1e-10)
    slow = epstein_direct(form, 2.0 - 2.0 ** -10, 1e-5)
    assert abs(fast.value - slow.value) <= fast.error_bound + slow.error_bound


def test_continued_fraction_stall_names_its_point():
    with pytest.raises(NonConvergence, match=r"stalled at s=1.5, x=nan$"):
        _cf_upper(1.5, math.nan)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_incomplete_gamma_refuses_non_finite_order(s):
    with pytest.raises(ValueError, match="finite order"):
        upper_incomplete_gamma(s, 2.0 if s > 0 else 0.5)


@pytest.mark.parametrize("engine", [epstein_direct, epstein_accelerated])
@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_engines_refuse_non_finite_order(engine, s):
    with pytest.raises(ValueError, match="finite s > 1"):
        engine(BinaryQuadraticForm(1.0, 0.0, 1.0), s)


def test_incomplete_gamma_refuses_orders_past_gamma_overflow():
    # The series complement needs Gamma(s), which overflows past s = 171.62;
    # before the check, reducing s = 1e300 by one never ended.
    with pytest.raises(ValueError, match=r"need 2\^-1022 <= s <= 171"):
        upper_incomplete_gamma(1e300, 2.0)
    with pytest.raises(ValueError, match=r"need 2\^-1022 <= s <= 171"):
        epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), 200.0)


def test_deep_negative_order_lift_ends():
    # One recurrence step per unit of order, in a loop: 0.5^-5000.5 leaves
    # the double range, near x = 1 the lift ends in a value, and an order
    # whose lift would never end is refused.
    with pytest.raises(OverflowError):
        upper_incomplete_gamma(-5000.5, 0.5)
    deep = upper_incomplete_gamma(-5000.5, 0.9999)
    assert deep.cost > 5000 and 0.0 < deep.error_bound < 1e-12 * deep.value
    with pytest.raises(ValueError, match=r"10\^5 recurrence steps"):
        upper_incomplete_gamma(-1e300, 0.5)


def _ring(r):
    return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
            if max(abs(x), abs(y)) == r]


def _gaussian_ring_tail(rate, prefactor, r):
    # Bound for sum over rings beyond r of (prefactor / r') exp(-rate r'^2):
    # first omitted ring times the geometric envelope of the rest.
    head = (prefactor / (r + 1.0)) * math.exp(-rate * (r + 1.0) ** 2)
    ratio = math.exp(-rate * (2.0 * r + 3.0))
    return head / (1.0 - ratio)


def _accelerated_point_by_point(form, s, tol):
    """The accelerated lattice sum over max-norm rings, with one
    upper_incomplete_gamma call per lattice point, one fsum per ring and
    Gaussian ring tails, without the final stall check: an independent
    reference for the level-set engine."""
    sqrt_d = math.sqrt(form.disc)
    lam = 2.0 * math.pi / sqrt_d
    gamma_whole = gamma_integral(s, 1e-14)
    budget = 0.25 * tol * gamma_whole.value
    # smallest eigenvalue of the Gram matrix, without cancellation
    lam_min = form.disc / (2.0 * (form.a + form.c + math.hypot(form.a - form.c, form.b)))
    adj = BinaryQuadraticForm(form.c, -form.b, form.a)
    beta_scale = 4.0 * math.pi ** 2 / form.disc
    primal_rate = lam * lam_min
    dual_rate = beta_scale * lam_min / lam

    def radius_for(rate, prefactor):
        r = max(2, math.ceil(math.sqrt(max(2.0 * s, 2.0) / rate)))
        while _gaussian_ring_tail(rate, prefactor, r) > budget:
            r += 1
        return r

    primal_pref = 16.0 * lam ** (s - 1.0) / lam_min
    dual_pref = 16.0 * math.pi * lam ** s / (sqrt_d * beta_scale * lam_min)
    pieces, bounds, cost = [], [], 0
    r1 = radius_for(primal_rate, primal_pref)
    for r in range(1, r1 + 1):
        ring = []
        for v in _ring(r):
            qv = form(float(v[0]), float(v[1]))
            g = upper_incomplete_gamma(s, lam * qv)
            ring.append(qv ** -s * g.value)
            bounds.append(qv ** -s * g.error_bound)
            cost += g.cost
        pieces.append(math.fsum(ring))
    bounds.append(_gaussian_ring_tail(primal_rate, primal_pref, r1))
    pieces.append((2.0 * math.pi / sqrt_d) * lam ** (s - 1.0) / (s - 1.0))
    pieces.append(-lam ** s / s)
    r2 = radius_for(dual_rate, dual_pref)
    for r in range(1, r2 + 1):
        ring = []
        for w in _ring(r):
            beta = beta_scale * adj(float(w[0]), float(w[1]))
            g = upper_incomplete_gamma(1.0 - s, beta / lam)
            front = 2.0 * math.pi / sqrt_d * beta ** (s - 1.0)
            ring.append(front * g.value)
            bounds.append(front * g.error_bound)
            cost += g.cost
        pieces.append(math.fsum(ring))
    bounds.append(_gaussian_ring_tail(dual_rate, dual_pref, r2))
    total = math.fsum(pieces)
    total_bound = math.fsum(bounds) + 8.0 * EPS * abs(total)
    return ApproxValue(total, total_bound, cost) / gamma_whole


@pytest.mark.parametrize("coeffs", FOUR_FORMS + [(1.0, 0.53, 1e4)])
@pytest.mark.parametrize("s", [1.0 + 2.0 ** -10, 1.25, 1.5, 2.0, 3.0])
def test_accelerated_matches_point_by_point_loop(coeffs, s):
    # At s = 2 and 3 the dual side takes the E1 and recurrence branches.
    form = BinaryQuadraticForm(*coeffs)
    tol = 1e-12
    fast = _result_or_partial(epstein_accelerated, form, s, tol)  # stalls near the pole
    slow = _accelerated_point_by_point(form, s, tol)
    assert abs(fast.value - slow.value) <= fast.error_bound + slow.error_bound


def _tail_integral(s, x):
    return _halfline(lambda r: (x + r) ** (s - 1.0) * math.exp(-(x + r)), 1e-13)


def test_dual_split_closed_form_against_quadrature():
    """The elementary + dual-sum terms of the accelerated split, checked
    as an antiderivative: g(lam) - g(t0) must equal the integral of
    t^(s-1) (Theta(t) - 1) over [t0, lam], with Theta the full lattice
    sum.  This is the most formula-dense block in the package, so it
    gets an oracle of its own.
    """
    s = 2.0
    form = BinaryQuadraticForm(1.0, 0.0, 1.0)
    root_d = math.sqrt(form.disc)
    lam = 2.0 * math.pi / root_d
    beta_scale = 4.0 * math.pi ** 2 / form.disc
    adj = BinaryQuadraticForm(form.c, -form.b, form.a)

    def theta_lattice(t):
        # radius chosen so the dropped terms are below exp(-50); here
        # Q(x, y) = x^2 + y^2
        r = int(math.ceil(math.sqrt(51.0 / t))) + 1
        return math.fsum(
            math.exp(-t * form(x, y))
            for x in range(-r, r + 1)
            for y in range(-r, r + 1))

    def g(x):
        dual = math.fsum(
            beta_scale * adj(wx, wy) ** (s - 1.0)
            * upper_incomplete_gamma(1.0 - s, beta_scale * adj(wx, wy) / x).value
            for wx in range(-8, 9)
            for wy in range(-8, 9)
            if (wx, wy) != (0, 0))
        return (2.0 * math.pi / root_d) * x ** (s - 1.0) / (s - 1.0) \
            - x ** s / s + (2.0 * math.pi / root_d) * dual

    t0 = 0.4
    quad = reference_finite(lambda t: t ** (s - 1.0) * (theta_lattice(t) - 1.0), t0, lam, 1e-11)
    closed = g(lam) - g(t0)
    assert abs(quad.value - closed) <= quad.error_bound + 1e-12
