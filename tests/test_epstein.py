"""Binary quadratic forms, both lattice-sum engines, and the incomplete
gamma kernel.

The two engines are validated against each other and against closed
forms; the incomplete gamma function is checked branch by branch against
direct quadrature of its defining integral, since the accelerated
engine's correctness funnels through it.
"""

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
    evaluate,
    gamma_integral,
    upper_incomplete_gamma,
    zeta,
)
from thetaeval.approx import EPS, ApproxValue
from thetaeval.epstein import _MAX_POINTS, _cf_upper, _count_bound, _level_set
from thetaeval.quadrature import _finite, _halfline

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
        assert evaluate(BinaryQuadraticForm(1.0, 0.0, 1.0), (3.0, 4.0)) == 25.0
        assert evaluate(BinaryQuadraticForm(2.0, -2.0, 1.0), (1.0, 1.0)) == 1.0

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
            z = form.z_point().as_complex()
            assert z.imag > 0.0
            assert abs(form.a * (z * z.conjugate()).real - form.c) < 1e-12
            assert abs(form.a * (2.0 * z.real) + form.b) < 1e-12

    def test_adjugate_swaps_outer_and_flips_middle(self):
        adj = BinaryQuadraticForm(2.0, -2.0, 1.0).adjugate()
        assert (adj.a, adj.b, adj.c) == (1.0, 2.0, 2.0)
        assert adj.disc == 4.0


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
    level = evaluate(form, (float(x), float(y)))
    level *= 1.0 if shear < 0.5 else shear
    assume(16.0 * level * math.sqrt(a * c) / form.disc <= 2e6)  # box size
    got = np.sort(np.concatenate([*_level_set(form, level), np.empty(0)]))
    want = np.sort(_box_values(form, level))
    assert want.tolist() == np.repeat(got, 2).tolist()


def test_level_set_streams_bounded_blocks():
    # A long row (c = 1e8) and many short ones (a = 1e4) both split into blocks.
    for coeffs, level in (((1.0, 0.3, 1e8), 1e8), ((1e4, 0.3, 1.0), 1e7)):
        form = BinaryQuadraticForm(*coeffs)
        blocks = list(_level_set(form, level))
        assert len(blocks) > 1
        assert max(len(q) for q in blocks) <= 4096
        assert sum(len(q) for q in blocks) == len(_box_values(form, level)) // 2


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
        lower = _finite(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x, 1e-12)
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

    def test_monotone_decreasing_in_x(self):
        values = [upper_incomplete_gamma(0.75, x).value for x in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)


@given(s=st.floats(min_value=-2.0, max_value=4.0),
       offsets=st.lists(st.one_of(st.floats(min_value=0.0, max_value=50.0),
                                  st.floats(min_value=1000.0, max_value=9000.0)),
                        min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_array_fraction_matches_one_element_calls(s, offsets):
    # Each element stops at its own iteration, so the array kernel must give
    # bit for bit what one-element calls give, whatever its neighbours.
    x = np.array([max(1.0, s + 1.0) + d for d in offsets])
    values, bounds, counts = _cf_upper(s, x)
    for k, xk in enumerate(x.tolist()):
        one = _cf_upper(s, np.array([xk]))
        assert values[k].hex() == one[0][0].hex()
        assert bounds[k].hex() == one[1][0].hex()
        assert counts[k] == one[2][0]
        scalar = upper_incomplete_gamma(s, xk)
        assert (scalar.value, scalar.error_bound, scalar.cost) == (
            values[k], bounds[k], counts[k])


def test_array_fraction_stall_names_the_first_stalled_x():
    # nan and inf never converge; the message names the first in array order.
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonConvergence, match=r"stalled at s=1.5, x=nan$"):
            _cf_upper(1.5, np.array([2.0, math.nan, 3.0, math.inf]))


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
    adj = form.adjugate()
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
            qv = evaluate(form, (float(v[0]), float(v[1])))
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
            beta = beta_scale * evaluate(adj, (float(w[0]), float(w[1])))
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
    adj = form.adjugate()

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
    quad = _finite(lambda t: t ** (s - 1.0) * (theta_lattice(t) - 1.0), t0, lam, 1e-11)
    closed = g(lam) - g(t0)
    assert abs(quad.value - closed) <= quad.error_bound + 1e-12
