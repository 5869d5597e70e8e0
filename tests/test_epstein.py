"""Binary quadratic forms, both lattice-sum engines, and the incomplete
gamma kernel.

The two engines are validated against each other and against closed
forms; the incomplete gamma function is checked branch by branch against
direct quadrature of its defining integral, since the accelerated
engine's correctness funnels through it.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetaeval import (
    BinaryQuadraticForm,
    IntegralSpec,
    L_chi4,
    NonConvergence,
    epstein_accelerated,
    epstein_direct,
    evaluate,
    gamma_integral,
    integrate,
    upper_incomplete_gamma,
    zeta,
)
from thetaeval.approx import EPS, ApproxValue
from thetaeval.epstein import _cf_upper, _gaussian_ring_tail

# scripts/compute_oracles.py: Simpson after t = 1 + w^2
ORACLE_GAMMA_HALF_ONE = 0.27880558528066196

FOUR_FORMS = [(1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0)]


class TestFormType:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            BinaryQuadraticForm(1.0, 3.0, 1.0)

    def test_rejects_negative_leading(self):
        with pytest.raises(ValueError):
            BinaryQuadraticForm(-1.0, 0.0, -1.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BinaryQuadraticForm(1.0, 2.0, 1.0)

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

    def test_lambda_min_is_a_lower_bound(self):
        form = BinaryQuadraticForm(2.0, -2.0, 1.0)
        lam = form.lambda_min
        assert lam > 0.0
        for x in range(-5, 6):
            for y in range(-5, 6):
                assert form(x, y) >= lam * (x * x + y * y) - 1e-12

    def test_adjugate_swaps_outer_and_flips_middle(self):
        adj = BinaryQuadraticForm(2.0, -2.0, 1.0).adjugate()
        assert (adj.a, adj.b, adj.c) == (1.0, 2.0, 2.0)
        assert adj.disc == 4.0


form_triples = st.tuples(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.3, max_value=4.0),
)


@given(form_triples,
       st.integers(min_value=-20, max_value=20),
       st.integers(min_value=-20, max_value=20))
@settings(max_examples=150)
def test_lambda_min_bound_random_forms(triple, x, y):
    a, b, c = triple
    assume(4.0 * a * c - b * b > 0.05)
    form = BinaryQuadraticForm(a, b, c)
    assert form(x, y) >= form.lambda_min * (x * x + y * y) - 1e-9


class TestDirectEngine:
    def test_rejects_s_at_one(self):
        with pytest.raises(ValueError):
            epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.0)

    def test_rejects_small_radius(self):
        with pytest.raises(ValueError):
            epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 2.0, radius=7)

    def test_deterministic(self):
        form = BinaryQuadraticForm(1.0, 1.0, 1.0)
        a = epstein_direct(form, 1.5, radius=64)
        b = epstein_direct(form, 1.5, radius=64)
        assert a.value == b.value and a.error_bound == b.error_bound

    def test_unimodular_forms_agree(self):
        a = epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 1.5, radius=256)
        b = epstein_direct(BinaryQuadraticForm(2.0, -2.0, 1.0), 1.5, radius=256)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_dirichlet_value_at_two(self):
        # 4 zeta(2) L(2); the integral tail leaves a corner bias ~ 0.57/H^2,
        # so reaching 1e-8 takes a large radius
        d = epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 2.0, radius=8000)
        rhs = 4.0 * zeta(2.0, 1e-13).value * L_chi4(2.0, 1e-13).value
        assert abs(d.value - rhs) <= 1e-8

    def test_bruteforce_oracle_at_three(self):
        # raw no-tail lattice sum to radius 10^4; its own truncation error
        # is below 4e-16, far inside the engine bound at radius 256
        brute = _bruteforce_sum(1.0, 0.0, 1.0, 3.0, 10_000)
        d = epstein_direct(BinaryQuadraticForm(1.0, 0.0, 1.0), 3.0, radius=256)
        assert abs(d.value - brute) <= d.error_bound + 1e-12


def _bruteforce_sum(a, b, c, s, radius):
    y = np.arange(-radius, radius + 1, dtype=float)
    total = []
    for x0 in range(-radius, radius + 1, 500):
        x = np.arange(x0, min(x0 + 500, radius + 1), dtype=float)[:, None]
        q = a * x * x + b * x * y[None, :] + c * y[None, :] * y[None, :]
        if x0 <= 0 <= x0 + 499:
            q[int(0 - x0), radius] = np.inf  # drop the origin
        total.append(float(np.sum(q ** -s)))
    return math.fsum(total)


class TestAcceleratedEngine:
    def test_matches_direct_engine(self):
        form = BinaryQuadraticForm(1.0, 0.0, 1.0)
        fast = epstein_accelerated(form, 1.5, 1e-12)
        slow = epstein_direct(form, 1.5, radius=256)
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

    @pytest.mark.parametrize("coeffs", FOUR_FORMS)
    def test_engine_agreement_spot_checks(self, coeffs):
        form = BinaryQuadraticForm(*coeffs)
        fast = epstein_accelerated(form, 2.0, 1e-11)
        slow = epstein_direct(form, 2.0, radius=128)
        assert abs(fast.value - slow.value) <= fast.error_bound + slow.error_bound


@given(s=st.floats(min_value=1.05, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_accelerated_tracks_dirichlet_product(s):
    fast = epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 1.0), s, 1e-11)
    z = zeta(s, 1e-12)
    ell = L_chi4(s, 1e-12)
    rhs = 4.0 * z * ell
    assert abs(fast.value - rhs.value) <= fast.error_bound + rhs.error_bound + 1e-11


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
        lower = integrate(IntegralSpec(
            lambda t: t ** (s - 1.0) * math.exp(-t), (0.0, x)))
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


def _accelerated_point_by_point(form, s, tol):
    """The accelerated lattice sum with one upper_incomplete_gamma call per
    lattice point and one fsum per ring, without the final stall check."""
    sqrt_d = math.sqrt(form.disc)
    lam = 2.0 * math.pi / sqrt_d
    gamma_whole = gamma_integral(s, 1e-14)
    budget = 0.25 * tol * gamma_whole.value
    lam_min = form.lambda_min
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
    try:
        fast = epstein_accelerated(form, s, tol)
    except NonConvergence as exc:
        fast = ApproxValue(exc.value, exc.error_bound, exc.cost)
    slow = _accelerated_point_by_point(form, s, tol)
    assert fast.value.hex() == slow.value.hex()
    assert fast.error_bound.hex() == slow.error_bound.hex()
    assert fast.cost == slow.cost


def _tail_integral(s, x):
    return integrate(IntegralSpec(
        lambda r: (x + r) ** (s - 1.0) * math.exp(-(x + r)), (0.0, math.inf),
        target_tol=1e-13))


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
        # radius chosen so the dropped terms are below exp(-50)
        r = int(math.ceil(math.sqrt(51.0 / (form.lambda_min * t)))) + 1
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
    quad = integrate(IntegralSpec(
        lambda t: t ** (s - 1.0) * (theta_lattice(t) - 1.0), (t0, lam),
        target_tol=1e-11))
    closed = g(lam) - g(t0)
    assert abs(quad.value - closed) <= quad.error_bound + 1e-12
