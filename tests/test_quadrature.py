"""Adaptive quadrature engine and the named integrals built on it.

Frozen oracle constants come from scripts/compute_oracles.py, which
rederives them with composite Simpson rules and raw series (methods
disjoint from the tanh-sinh engine under test).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaeval import (
    ApproxValue,
    BinaryQuadraticForm,
    NonConvergence,
    eta_uhp,
    f_form,
    f_form_derivative_at_1,
    gamma_gauss,
    gamma_integral,
    gammaL_integral,
    integral_I,
    L_chi4,
    UpperHalfPoint,
)
from thetaeval import quadrature
from thetaeval.quadrature import _halfline
from reference_quadrature import reference_halfline, reference_vertex_integral

# scripts/compute_oracles.py: composite Simpson, 10^6 panels per piece
ORACLE_I = -0.16580304006210941
ORACLE_I_BOUND = 5e-15
# scripts/compute_oracles.py: Euler transform of the alternating series
ORACLE_CATALAN = 0.91596559417721901
ORACLE_SERIES_BOUND = 5e-15
# Euler's constant: the integral of log(t) exp(-t) over (0, inf) is its negative
EULER_GAMMA = 0.57721566490153286
# sqrt(pi) to 48 digits, as an exact fraction: it moves a Gamma oracle by
# under 1e-47 relative, far below any bound it is held to.
SQRT_PI = Fraction("1.77245385090551602729816748334114518279754945612")


def test_exponential_halfline():
    r = _halfline(lambda t: math.exp(-t), 1e-12)
    assert abs(r.value - 1.0) <= r.error_bound


def test_sech_halfline():
    # antiderivative arctan(sinh t) gives pi/2 at infinity
    r = _halfline(lambda t: 1.0 / math.cosh(t), 1e-12)
    assert abs(r.value - 0.5 * math.pi) <= r.error_bound


def test_shifted_halfline_lower_endpoint():
    r = _halfline(lambda r: math.exp(-(2.0 + r)), 1e-12)
    assert abs(r.value - math.exp(-2.0)) <= r.error_bound


def test_log_singular_endpoint():
    r = _halfline(lambda t: math.log(t) * math.exp(-t), 1e-12)
    assert abs(r.value + EULER_GAMMA) <= r.error_bound + 1e-13


def test_nonconvergence_carries_partial_result():
    # a kink integrand at an interior point defeats the endpoint
    # clustering, so an absurd tolerance must fail loudly
    with pytest.raises(NonConvergence) as info:
        _halfline(lambda t: abs(t - 0.337) * math.exp(-t), 1e-15)
    assert info.value.value is not None
    assert info.value.error_bound > 1e-15
    assert abs(info.value.value - (0.337 - 1.0 + 2.0 * math.exp(-0.337))) < 1e-6


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_integrand_value_stalls(bad):
    # The integrand is bad below 1e-30, which only the clustered nodes
    # reach; counted as 0, those values give 1 with a bound of 3.7e-14, a
    # wrong value that looks certified.
    def spiked(t):
        return bad if t < 1e-30 else math.exp(-t)

    with pytest.raises(NonConvergence, match=rf"^integrand is {bad} at t=\d"):
        _halfline(spiked, 1e-10)


@pytest.mark.parametrize("integral, args, message", [
    (gamma_integral, (20.0, 1e-16), r"^gamma_integral stalled at s=20 above tol=1e-16$"),
    (gamma_integral, (10.0, 1e-16), r"^gamma_integral stalled at s=10 above tol=1e-16$"),
    (f_form, (BinaryQuadraticForm(0.0254, -0.0797, 0.0806), 3.23, 1e-16),
     r"^quadrature stalled above tol="),
], ids=["gamma-20", "gamma-10", "f-form-3.23"])
def test_roundoff_floor_above_tol_stalls(integral, args, message):
    # The level gap meets tol, but the floor 4.5e-16 (1 + |value|) exceeds
    # the tol |value| that tol 1e-16 allows: the half-line integral behind
    # this f(3.23) ~ -4.0e5 came back with 9.1e-11.  Gamma(10) and Gamma(20)
    # meet the floor at Gamma(4) = 6 behind the recurrence, which names s.
    with pytest.raises(NonConvergence, match=message):
        integral(*args)


class TestIntegralI:
    def test_against_composite_rule_oracle(self):
        r = integral_I(1e-12)
        assert abs(r.value - ORACLE_I) <= r.error_bound + ORACLE_I_BOUND

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-15])
    def test_one_rule_holds_its_tol(self, tol):
        # The single half-line rule, log singularity at t = 0 and all.
        r = integral_I(tol)
        assert r.error_bound <= tol
        assert abs(r.value - ORACLE_I) <= r.error_bound + ORACLE_I_BOUND

    def test_exponential_form(self):
        # exp(I) equals the gamma quotient times sqrt(2 pi)
        i_val = integral_I(1e-12)
        g34 = gamma_integral(0.75, 1e-13)
        g14 = gamma_integral(0.25, 1e-13)
        lhs = math.exp(i_val.value)
        rhs = g34.value / g14.value * math.sqrt(2.0 * math.pi)
        assert abs(lhs - rhs) <= 1e-12

    def test_eta_logarithm_form(self):
        # -I equals log(2 |eta(i)|^2)
        i_val = integral_I(1e-12)
        eta_mag = eta_uhp(UpperHalfPoint(0.0, 1.0), 1e-14).magnitude()
        rhs = (2.0 * eta_mag * eta_mag).log()
        assert abs(-i_val.value - rhs.value) <= i_val.error_bound + rhs.error_bound

    def test_negative(self):
        assert integral_I(1e-10).value < 0.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integral_I(-1e-12)


class TestGammaIntegral:
    def test_at_one(self):
        r = gamma_integral(1.0, 1e-13)
        assert abs(r.value - 1.0) <= r.error_bound

    def test_quarter_product_is_pi_sqrt2(self):
        p = gamma_integral(0.25, 1e-13) * gamma_integral(0.75, 1e-13)
        assert abs(p.value - math.pi * math.sqrt(2.0)) <= p.error_bound + 1e-12

    def test_against_gauss_product(self):
        quad = gamma_integral(0.25, 1e-13)
        gauss = gamma_gauss(0.25, 1e-9)
        assert abs(quad.value - gauss.value) <= quad.error_bound + gauss.error_bound

    @pytest.mark.parametrize("s", [0.25, 0.75, 1.5, 2.5])
    def test_functional_equation(self, s):
        left = gamma_integral(s + 1.0, 1e-13)
        right = gamma_integral(s, 1e-13) * s
        assert abs(left.value - right.value) <= left.error_bound + right.error_bound + 1e-14

    def test_lift_stall_names_the_callers_request(self):
        # The lift asks Gamma(1 + 2^-10) for s * tol = 9.8e-18, below the
        # quadrature's rounding floor.  The stall names s and the caller's
        # tol, not the s * tol the lift asks of Gamma(s + 1), and carries the
        # partial Gamma(s).
        with pytest.raises(NonConvergence) as info:
            gamma_integral(2.0 ** -10, 1e-14)
        message = str(info.value)
        assert "gamma_integral" in message and "s=0.000976562" in message
        assert "tol=1e-14" in message and "9.76562e-18" not in message
        assert abs(info.value.value - 1023.4237) < 1e-3
        assert info.value.error_bound > 1e-14

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            gamma_integral(0.0)

    @pytest.mark.parametrize("s", [171.5, 1e300, math.inf])
    def test_rejects_s_past_gamma_overflow(self, s):
        with pytest.raises(ValueError, match=r"^need 2\^-1022 <= s <= 171, as Gamma\(s\) "
                                             r"leaves the double range"):
            gamma_integral(s)

    @pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-8])
    @pytest.mark.parametrize("s", [5.0, 11.0, 18.5, 27.5, 41.0, 80.0, 111.0, 112.0,
                                   150.0, 170.5, 171.0])
    def test_recurrence_meets_exact_factorials(self, s, tol):
        # Above 4 the value is (s-1)...(s-k) Gamma(s - k).  Against the
        # exact Gamma(n) = (n-1)! and Gamma(n + 1/2) = (2n)! sqrt(pi) /
        # (4^n n!), compared as fractions, every s returns a certified value
        # whose bound holds.  The half-line rule alone stalls at s = 11,
        # 18.5, 27.5, 41 and 80 and overflows from s = 111.5 on.
        r = gamma_integral(s, tol)
        assert r.error_bound <= tol * r.value
        n = int(s)
        if s == n:
            exact = Fraction(math.factorial(n - 1))
        else:
            exact = Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n)) * SQRT_PI
        assert abs(Fraction(r.value) - exact) <= Fraction(r.error_bound)

    def test_recurrence_stall_carries_the_partial_gamma(self):
        # Gamma(4) meets its rounding floor at tol 1e-16; the stall is
        # reported against s = 20, with 19!/6 times Gamma(4)'s partial.
        with pytest.raises(NonConvergence) as info:
            gamma_integral(20.0, 1e-16)
        exact = math.factorial(19)
        assert abs(info.value.value - exact) <= info.value.error_bound
        assert 1e-16 * exact < info.value.error_bound < 1e-14 * exact


class TestGammaLIntegral:
    def test_at_one(self):
        r = gammaL_integral(1.0, 1e-13)
        assert abs(r.value - 0.25 * math.pi) <= r.error_bound + 1e-14

    def test_at_two_is_catalan(self):
        r = gammaL_integral(2.0, 1e-13)
        assert abs(r.value - ORACLE_CATALAN) <= r.error_bound + ORACLE_SERIES_BOUND
        series = L_chi4(2.0, 1e-13)
        assert abs(r.value - series.value) <= r.error_bound + series.error_bound

    def test_at_three(self):
        r = gammaL_integral(3.0, 1e-13)
        series = L_chi4(3.0, 1e-13) * 2.0
        assert abs(r.value - series.value) <= r.error_bound + series.error_bound

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            gammaL_integral(-1.0)

    @pytest.mark.parametrize("s", [111.5, 112.0, 150.0])
    def test_overflowing_integrand_stalls_naming_the_node(self, s):
        # t ** (s - 1) leaves the double range at the rule's far nodes,
        # where the integrand itself is still finite.
        with pytest.raises(NonConvergence, match=r"^integrand overflows at t=\d+\.\d+$"):
            gammaL_integral(s, 1e-14)

    def test_largest_s_below_the_overflow_keeps_its_value_and_bound(self):
        # Gamma(111) beta(111), with beta(111) = 1 - 3^-111 + ...: 110! to
        # well inside the bound, and the value and bound bit for bit.
        r = gammaL_integral(111.0, 1e-14)
        assert (r.value.hex(), r.error_bound.hex()) == ("0x1.f5af14bdc4730p+591",
                                                        "0x1.fc5c7ce9b5c70p+540")
        exact = math.factorial(110)
        assert abs(Fraction(r.value) - exact) <= Fraction(r.error_bound) + Fraction(exact, 3 ** 111)


FORM_CASES = [
    ((1.0, 0.0, 1.0), 4.0),
    ((2.0, -2.0, 1.0), 4.0),
    ((1.0, 0.0, 2.0), 8.0),
]


class TestFForm:
    @pytest.mark.parametrize("coeffs,disc", FORM_CASES)
    def test_value_at_one(self, coeffs, disc):
        form = BinaryQuadraticForm(*coeffs)
        r = f_form(form, 1.0, 1e-12)
        assert abs(r.value + 2.0 * math.pi / math.sqrt(disc)) <= r.error_bound + 1e-13

    def test_at_s_two_unit_form(self):
        # int dx / (x^2 + 1)^2 = pi / 2
        r = f_form(BinaryQuadraticForm(1.0, 0.0, 1.0), 2.0, 1e-12)
        assert abs(r.value + 0.5 * math.pi) <= r.error_bound + 1e-13

    def test_rejects_s_at_half(self):
        with pytest.raises(ValueError):
            f_form(BinaryQuadraticForm(1.0, 0.0, 1.0), 0.5)

    @pytest.mark.parametrize("coeffs,disc", FORM_CASES)
    def test_derivative_closed_form(self, coeffs, disc):
        form = BinaryQuadraticForm(*coeffs)
        r = f_form_derivative_at_1(form, 1e-12)
        target = -(4.0 * math.pi / math.sqrt(disc)) * math.log(math.sqrt(coeffs[0] / disc))
        assert abs(r.value - target) <= r.error_bound + 1e-11

    def test_derivative_matches_finite_difference(self):
        form = BinaryQuadraticForm(1.0, 1.0, 1.0)
        h = 1e-5
        hi = f_form(form, 1.0 + h, 1e-13)
        lo = f_form(form, 1.0 - h, 1e-13)
        fd = (hi.value - lo.value) / (2.0 * h)
        direct = f_form_derivative_at_1(form, 1e-12)
        # f(s) = -integral p^-s, so f'(1) = +integral log(p)/p
        assert abs(fd - direct.value) <= 1e-8

    # A false convergence: on these forms both integrals certify a value near
    # 0 with a bound of 9e-16, where f(1) = -pi (-5.2e-23 and -1.9e-23) and
    # f'(1) = 2174 and 1813 (3.6e-20 and 1.3e-20).  The mass sits at
    # u ~ sqrt(a/c), below the smallest node offset 6.1e-276; ROADMAP item 11.
    @pytest.mark.xfail(strict=True, reason="the vertex map's mass lies below every node")
    @pytest.mark.parametrize("coeffs", [(1e-300, 0.0, 1e300), (1e-250, 0.0, 1e250)])
    def test_wide_flat_form_meets_its_closed_forms(self, coeffs):
        form = BinaryQuadraticForm(*coeffs)
        value = f_form(form, 1.0, 1e-12)
        slope = f_form_derivative_at_1(form, 1e-11)
        target = -(2.0 * form.lam) * math.log(math.sqrt(form.a / form.disc))
        assert abs(value.value + form.lam) <= value.error_bound
        assert abs(slope.value - target) <= slope.error_bound


@given(s=st.floats(min_value=0.6, max_value=4.0))
@settings(max_examples=15, deadline=None)
def test_f_form_negative_and_decreasing_in_s(s):
    form = BinaryQuadraticForm(1.0, 0.0, 1.0)
    r = f_form(form, s, 1e-10)
    assert r.value < 0.0
    # |f| shrinks as s grows since the integrand p^-s does pointwise (p >= 1)
    r2 = f_form(form, s + 0.5, 1e-10)
    assert abs(r2.value) < abs(r.value) + r.error_bound + r2.error_bound


def test_cost_counts_evaluations():
    calls = 0

    def f(t):
        nonlocal calls
        calls += 1
        return math.exp(-t * t)

    r = _halfline(f, 1e-12)
    assert r.cost == calls


def test_approx_value_division_guard():
    with pytest.raises(ValueError):
        ApproxValue(1.0, 0.0) / ApproxValue(1e-9, 1e-8)


def _outcome(call):
    # Everything a caller can see: value, bound and cost bits, or the
    # stall's type, message, carried numbers and cause.
    try:
        r = call()
    except (NonConvergence, ArithmeticError, ValueError) as exc:
        cause = exc.__cause__
        carried = [getattr(exc, name, None) for name in ("value", "error_bound", "cost")]
        return (type(exc).__name__, str(exc),
                [x.hex() if isinstance(x, float) else x for x in carried],
                None if cause is None else (type(cause).__name__, str(cause)))
    return r.value.hex(), r.error_bound.hex(), r.cost


BIT_TOLS = [1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 1e-15]
BIT_FORMS = [(1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0),
             (1.0, 0.0, 1e6), (1.0, 0.0, 1e-6), (3.0, 1.0, 7.0), (0.0254, -0.0797, 0.0806)]
_KINK = 0.337


def _mixed_faults(t):
    # On level 0 the second node's lower point (t ~ 11.4) is nan, and its
    # upper point (t ~ 1.1e-5) overflows after it: the nan is the first fault.
    if t < 1e-3:
        raise OverflowError("mixed")
    return math.nan if t > 5.0 else math.exp(-t)


HALFLINE_CASES = {
    "exp": lambda t: math.exp(-t),
    "sech": lambda t: 1.0 / math.cosh(t),
    "gamma-0.3": lambda t: t ** -0.7 * math.exp(-t),
    "gamma-2.5": lambda t: t ** 1.5 * math.exp(-t),
    "log-sech": lambda t: math.log(t) / math.cosh(t),
    "kink": lambda t: abs(t - _KINK) * math.exp(-t),
    "nan-far": lambda t: math.nan if t > 30.0 else math.exp(-t),
    "inf-near": lambda t: math.inf if t < 1e-40 else math.exp(-t),
    "overflow": lambda t: t ** 400.0 * math.exp(-t),
    "mixed": _mixed_faults,
    "centre-nan": lambda t: math.nan if abs(t - math.log(2.0)) < 1e-12 else math.exp(-t),
    "big": lambda t: 1e300,
}


def _big_stops_on_level_0():
    # f(t) = 1e300 is finite, but its (0, 1) value f(t) / v is not where
    # v < 1e-8: first at level 0's third node, lower side (t ~ 31.47).  The
    # rule stops there, after the centre, level 0's 12 values and the
    # rescan's 5, not after all 11 levels' 24,577.
    calls = []
    try:
        _halfline(lambda t: calls.append(t) or 1e300, 1e-10)
    finally:
        assert len(calls) == 1 + 12 + 5


class TestBitIdentityWithThePerNodeLoop:
    @pytest.mark.parametrize("name", HALFLINE_CASES)
    def test_halfline(self, name):
        f = HALFLINE_CASES[name]
        for tol in BIT_TOLS:
            assert _outcome(lambda: _halfline(f, tol)) \
                == _outcome(lambda: reference_halfline(f, tol)), tol

    @pytest.mark.parametrize("engine, args", [
        (integral_I, ()),
        *((gamma_integral, (s,)) for s in (0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 4.0, 7.5, 111.0)),
        *((gammaL_integral, (s,)) for s in (0.31, 0.5, 1.0, 1.0625, 2.0, 7.0, 111.5)),
        *((f_form, (BinaryQuadraticForm(*form), s)) for form in BIT_FORMS
          for s in (0.75, 1.0, 2.0, 3.23)),
        *((f_form_derivative_at_1, (BinaryQuadraticForm(*form),)) for form in BIT_FORMS),
        (f_form, (BinaryQuadraticForm(1.0, 0.0, 1e-310), 1.0)),  # the overflow stall
    ])
    def test_engine(self, engine, args, monkeypatch):
        new = [_outcome(lambda: engine(*args, tol)) for tol in BIT_TOLS]
        monkeypatch.setattr(quadrature, "_halfline", reference_halfline)
        monkeypatch.setattr(quadrature, "_vertex_integral", reference_vertex_integral)
        assert new == [_outcome(lambda: engine(*args, tol)) for tol in BIT_TOLS]

    @pytest.mark.parametrize("integral, message", [
        (lambda: _halfline(HALFLINE_CASES["nan-far"], 1e-10), r"^integrand is nan at t=\d"),
        (lambda: _halfline(HALFLINE_CASES["mixed"], 1e-10), r"^integrand is nan at t=11\."),
        (lambda: _halfline(HALFLINE_CASES["centre-nan"], 1e-10),
         r"^integrand is nan at t=0\.6931471805599453$"),
        (lambda: quadrature._vertex_integral(BinaryQuadraticForm(1.0, 0.0, 1.0),
                                             lambda p: math.inf if p > 4.0 else 1.0 / p, 1e-10),
         r"^integrand is inf at x=0\.[0-4]"),
        (lambda: _halfline(HALFLINE_CASES["overflow"], 1e-10), r"^integrand overflows at t=\d"),
        # p ** -1 overflows at the parabola's minimum p0 = 1e-310, which
        # level 0's first upper point reaches: u = 1 - q rounds to 1, r = 0.
        (lambda: f_form(BinaryQuadraticForm(1.0, 0.0, 1e-310), 1.0, 1e-10),
         r"^integrand overflows at x=1\.0$"),
        (lambda: _halfline(HALFLINE_CASES["kink"], 1e-15), r"^quadrature stalled above tol=1e-15 "),
        (_big_stops_on_level_0, r"^integrand is inf at t=31\.47"),
    ], ids=["nan-t", "first-fault-t", "centre-t", "vertex-inf-x", "overflow-t", "overflow-x",
            "level-11", "big-value-t"])
    def test_stalls_name_the_first_faulty_node(self, integral, message):
        with pytest.raises(NonConvergence, match=message) as info:
            integral()
        if "stalled" in message:
            carried = (info.value.value, info.value.error_bound, info.value.cost)
            assert all(x is not None for x in carried) and info.value.cost == 1 + 2 * sum(
                len(quadrature._level_nodes(level)) for level in range(quadrature._MAX_LEVEL + 1))


FAULT_KINDS = {
    "nan": (lambda: math.nan, "is nan"),
    "inf": (lambda: math.inf, "is inf"),
    "-inf": (lambda: -math.inf, "is -inf"),
    "raised-overflow": (lambda: math.exp(1e3), "overflows"),
    "value-overflow": (lambda: 1e308, "is inf"),  # finite until the (0, 1) map divides it
}


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_both_rules_stall_alike_on_every_fault_kind(kind):
    # Faults far out on each rule's line: t > 20 for the half-line rule and
    # p > 1e6 for the vertex rule on x^2 + 1.  Both rules first reach them
    # at level 0's third node, on its lower side (t = 31.47, u = 1.126e-05),
    # and name it, as the per-node loop does.
    fault, wording = FAULT_KINDS[kind]

    def half(t):
        return fault() if t > 20.0 else math.exp(-t)

    def vertex(p):
        return fault() if p > 1e6 else 1.0 / (p * p)

    form = BinaryQuadraticForm(1.0, 0.0, 1.0)
    for engine, reference, point in (
            (lambda: _halfline(half, 1e-10), lambda: reference_halfline(half, 1e-10),
             "t=31.472082276532355"),
            (lambda: quadrature._vertex_integral(form, vertex, 1e-10),
             lambda: reference_vertex_integral(form, vertex, 1e-10), "x=1.1261403769203559e-05")):
        with pytest.raises(NonConvergence) as info:
            engine()
        assert str(info.value) == f"integrand {wording} at {point}"
        assert _outcome(engine) == _outcome(reference)


def test_node_tables_are_columns():
    # A table holds a few tuples per level and none per node, so building
    # one mid-run adds nothing for the garbage collector to count.
    for table in (quadrature._halfline_nodes(6), quadrature._vertex_nodes(6)):
        assert len(table) == 5
        assert all(len(column) == 192 and all(type(x) is float for x in column)
                   for column in table)
