"""The one tolerance rule: a result passes when error_bound <= tol * max(1, |value|).

ApproxValue.certified states the rule and is every engine's exit, so each
public engine that takes a tol either returns a result that meets the rule
or raises NonConvergence, on a tol grid from 1e-6 down past its rounding
floor.  kronecker_rhs and eta_quotient are left out: they are ApproxValue
arithmetic on a certified eta, and their tol is eta's.
"""

import pytest

from thetaeval import (
    ApproxValue,
    BinaryQuadraticForm,
    L_chi4,
    L_chi4_prime_at_1,
    NonConvergence,
    UpperHalfPoint,
    epstein_accelerated,
    epstein_direct,
    eta_uhp,
    euler_gamma,
    f_form,
    f_form_derivative_at_1,
    gammaL_integral,
    gamma_gauss,
    gamma_integral,
    integral_I,
    kronecker_lhs,
    l1_series,
    theta_uhp,
    zeta,
)

TOLS = [10.0 ** -k for k in range(6, 18)]

UNIT = BinaryQuadraticForm(1.0, 0.0, 1.0)
THIN = BinaryQuadraticForm(1.0, 0.0, 1e-6)
SKEW = BinaryQuadraticForm(0.0254, -0.0797, 0.0806)
FAR = BinaryQuadraticForm(1.0, 0.3, 1e12)

ENGINES = {
    "theta_uhp(i)": lambda tol: theta_uhp(UpperHalfPoint(0.0, 1.0), tol),
    "theta_uhp(0.3+1.7i)": lambda tol: theta_uhp(UpperHalfPoint(0.3, 1.7), tol),
    "eta_uhp(i)": lambda tol: eta_uhp(UpperHalfPoint(0.0, 1.0), tol),
    "eta_uhp(0.5+0.5i)": lambda tol: eta_uhp(UpperHalfPoint(0.5, 0.5), tol),
    "l1_series(1,0,1)": lambda tol: l1_series(UNIT, tol),
    "l1_series(1,0.3,1e12)": lambda tol: l1_series(FAR, tol),
    "kronecker_lhs(1,0,1)": lambda tol: kronecker_lhs(UNIT, tol),
    "kronecker_lhs(2,-2,1)": lambda tol: kronecker_lhs(BinaryQuadraticForm(2.0, -2.0, 1.0), tol),
    "epstein_accelerated(1,0,2;1.5)":
        lambda tol: epstein_accelerated(BinaryQuadraticForm(1.0, 0.0, 2.0), 1.5, tol),
    "epstein_direct(1,0,1;4)": lambda tol: epstein_direct(UNIT, 4.0, tol),
    "integral_I": integral_I,
    **{f"gamma_integral({s})": (lambda tol, s=s: gamma_integral(s, tol))
       for s in (0.1, 0.25, 0.4, 0.75, 2.0, 10.0, 20.0, 80.0, 150.0, 171.0)},
    **{f"gammaL_integral({s})": (lambda tol, s=s: gammaL_integral(s, tol))
       for s in (0.5, 1.5, 3.0)},
    "f_form(1,0,1;1)": lambda tol: f_form(UNIT, 1.0, tol),
    "f_form(1,0,1e-6;1)": lambda tol: f_form(THIN, 1.0, tol),
    "f_form(skew;3.23)": lambda tol: f_form(SKEW, 3.23, tol),
    "f_form_derivative_at_1(1,0,1)": lambda tol: f_form_derivative_at_1(UNIT, tol),
    "f_form_derivative_at_1(1,0,1e-6)": lambda tol: f_form_derivative_at_1(THIN, tol),
    "euler_gamma": euler_gamma,
    **{f"zeta({s})": (lambda tol, s=s: zeta(s, tol)) for s in (1.0 + 1e-6, 1.5, 2.0)},
    **{f"L_chi4({s})": (lambda tol, s=s: L_chi4(s, tol)) for s in (1.0, 1.5)},
    "L_chi4_prime_at_1": L_chi4_prime_at_1,
    **{f"gamma_gauss({s})": (lambda tol, s=s: gamma_gauss(s, tol)) for s in (0.25, 3.0, 170.5)},
}


@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
def test_engine_meets_the_rule_or_stalls(engine):
    passed, stalled = [], []
    for tol in TOLS:
        try:
            r = engine(tol)
        except NonConvergence:
            stalled.append(tol)
            continue
        assert r.error_bound <= tol * max(1.0, abs(r.value)), (tol, r)
        passed.append(tol)
    # The grid reaches both sides of the engine's rounding floor.
    assert TOLS[0] in passed and TOLS[-1] in stalled, (passed, stalled)


@pytest.mark.parametrize("value, bound, meets", [
    (0.5, 1e-10, True),          # |value| <= 1: tol is absolute
    (0.5, 1.0000001e-10, False),
    (-4.0, 4e-10, True),         # beyond 1: tol is relative
    (-4.0, 4.000001e-10, False),
    (3j, 3e-10, True),           # the modulus of a complex value
    (3j, 3.000001e-10, False),
])
def test_certified_states_the_rule(value, bound, meets):
    x = ApproxValue(value, bound, 7)
    if meets:
        assert x.certified(1e-10, "x") is x
    else:
        with pytest.raises(NonConvergence, match=r"^x stalled above tol=1e-10$") as stall:
            x.certified(1e-10, "x")
        assert (stall.value.value, stall.value.error_bound, stall.value.cost) == (value, bound, 7)
