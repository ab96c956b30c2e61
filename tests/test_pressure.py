"""Pressure module: closed forms, quadrature, derivatives, ODE residual,
and the Legendre-transform rate function."""

import math

import pytest
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

from treeldp import (
    PressureEval,
    RatePoint,
    mean_slope,
    ode_residual,
    pressure,
    pressure_derivatives,
    rate,
    sigma_sq,
)


def test_closed_form_values():
    e = math.e
    assert pressure(PressureEval(2.0), 1.0) == pytest.approx(
        math.log((e - 1) ** 2 / (2 * (e - 2))), abs=1e-12
    )
    assert pressure(PressureEval(1.0), 1.0) == pytest.approx(math.log(e - 1), abs=1e-12)


def test_pressure_zero_at_origin():
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.7):
        assert pressure(PressureEval(alpha), 0.0) == 0.0


def test_half_alpha_branches_finite():
    ev = PressureEval(0.5)
    up = pressure(ev, 2.0)
    down = pressure(ev, -2.0)
    assert math.isfinite(up) and math.isfinite(down)
    assert down < 0 < up  # strictly increasing through 0


def test_taylor_patch_is_continuous():
    # the jump across the series/direct switch must be just the slope term
    for alpha in (0.5, 1.0, 2.0, 1.5):
        ev = PressureEval(alpha)
        below = pressure(ev, 9.9e-5)
        above = pressure(ev, 1.01e-4)
        d1, _ = pressure_derivatives(ev, 0.0)
        assert abs((above - below) - d1 * 2e-6) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    lam=st.floats(min_value=-4.0, max_value=4.0),
)
def test_quadrature_matches_closed_form(alpha, lam):
    ev_q = PressureEval(alpha, method="quadrature")
    ev_c = PressureEval(alpha)
    assert pressure(ev_q, lam) == pytest.approx(pressure(ev_c, lam), abs=1e-9)


def test_derivative_constants_at_zero():
    assert pressure_derivatives(PressureEval(2.0), 0.0) == (2 / 3, 1 / 9)
    d1, d2 = pressure_derivatives(PressureEval(0.5), 0.0)
    assert d1 == pytest.approx(1 / 3, abs=1e-15)
    assert d2 == pytest.approx(2 / 45, abs=1e-15)


def test_derivatives_match_finite_differences():
    h1, h2 = 1e-6, 1e-4  # wider step for the 2nd difference: h^-2 roundoff
    for alpha, lam in ((2.0, 1.0), (1.5, 0.7), (0.5, -1.2)):
        ev = PressureEval(alpha)
        d1, d2 = pressure_derivatives(ev, lam)
        fd1 = (pressure(ev, lam + h1) - pressure(ev, lam - h1)) / (2 * h1)
        fd2 = (pressure(ev, lam + h2) - 2 * pressure(ev, lam) + pressure(ev, lam - h2)) / h2**2
        assert d1 == pytest.approx(fd1, abs=1e-6)
        assert d2 == pytest.approx(fd2, abs=1e-6)


def test_ode_residual_examples():
    assert abs(ode_residual(PressureEval(2.0), 1.0)) <= 1e-6
    assert abs(ode_residual(PressureEval(1.0), -2.0)) <= 1e-6
    assert abs(ode_residual(PressureEval(0.5), 0.5)) <= 1e-6
    with pytest.raises(ValueError):
        ode_residual(PressureEval(2.0), 0.0)


def test_rate_at_mean_and_boundary():
    ev = PressureEval(2.0)
    pt = rate(ev, 2 / 3)
    assert pt.rate == pytest.approx(0.0, abs=1e-10)
    assert pt.lambda_star == pytest.approx(0.0, abs=1e-8)
    top = rate(ev, 1.0)
    assert top.rate == pytest.approx(math.log(2), abs=1e-12)
    assert rate(PressureEval(1.0), 0.5).rate == pytest.approx(0.0, abs=1e-10)
    assert rate(PressureEval(1.0), 1.0).rate == math.inf


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_rate_legendre_duality(alpha, frac):
    # achievable slopes top out at alpha when alpha < 1 (cherries <= leaves/2)
    hi = 0.9 * alpha if alpha < 1 else 0.95
    x = 0.05 + frac * (hi - 0.05)
    ev = PressureEval(alpha)
    pt = rate(ev, x)
    d1, _ = pressure_derivatives(ev, pt.lambda_star)
    assert d1 == pytest.approx(x, abs=1e-9)
    assert pt.rate == pytest.approx(
        pt.lambda_star * x - pressure(ev, pt.lambda_star), abs=1e-9
    )
    assert pt.rate >= -1e-12
    if abs(x - mean_slope(alpha)) > 1e-3:
        assert pt.rate > 0


def test_rate_domain():
    ev = PressureEval(2.0)
    with pytest.raises(ValueError):
        rate(ev, 0.0)
    with pytest.raises(ValueError):
        rate(ev, 1.5)
    # for alpha < 1 slopes beyond alpha are unreachable (Z_n <= s_n): +inf,
    # as at x = 1
    for alpha, x in ((0.5, 0.6), (0.5, 0.9), (0.75, 0.76), (0.3, 0.99), (0.99, 0.995)):
        assert rate(PressureEval(alpha), x) == RatePoint(x, math.inf, math.inf)
    assert rate(PressureEval(0.5), 1.0) == RatePoint(1.0, math.inf, math.inf)


def test_rate_at_alpha_below_one():
    # for alpha < 1 the reachable slopes end at x = alpha, where the rate is
    # log(alpha pi / sin(pi alpha)): log(pi/2) at alpha = 1/2
    assert rate(PressureEval(0.5), 0.5) == RatePoint(0.5, math.inf, math.log(math.pi / 2))
    pt = rate(PressureEval(0.75), 0.75)
    assert pt.lambda_star == math.inf
    assert pt.rate == pytest.approx(math.log(3 * math.pi / (2 * math.sqrt(2))), rel=1e-14)
    # the finite rates below the edge approach it
    assert rate(PressureEval(0.5), 0.499999).rate == pytest.approx(math.log(math.pi / 2), abs=1e-4)


def test_constants_formulas():
    assert mean_slope(3.0) == 0.75
    assert sigma_sq(2.0) == pytest.approx(1 / 9, abs=1e-15)
    assert sigma_sq(0.5) == pytest.approx(2 / 45, abs=1e-15)


def test_method_scope_and_validation():
    assert PressureEval(2.0).scope == "proven"
    assert PressureEval(1.5).scope == "proven"
    assert PressureEval(1.0).scope == "proven"
    assert PressureEval(0.5).scope == "proven"
    assert PressureEval(0.8).scope == "extrapolated"
    with pytest.raises(ValueError):
        PressureEval(1.0, method="closed_form_two")
    with pytest.raises(ValueError):
        PressureEval(-1.0)


def test_quadrature_methods_agree_on_general_alpha():
    # no closed form at alpha = 1.5: check the ODE instead
    ev = PressureEval(1.5)
    for lam in (-3.0, -0.4, 0.9, 3.0):
        assert abs(ode_residual(ev, lam)) <= 1e-8


def _rate_reference(ev, x):
    """rate as it was before Lambda' got its own kernel: brentq on the
    first component of pressure_derivatives, unmemoized."""

    def f(lam):
        return pressure_derivatives(ev, lam)[0] - x

    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        lo *= 2.0
    while f(hi) < 0.0:
        hi *= 2.0
    lam_star = 0.0 if abs(f(0.0)) < 1e-15 else brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return lam_star, lam_star * x - pressure(ev, lam_star)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 20.0])
def test_rate_is_bit_identical_to_the_full_derivative_route(alpha):
    ev = PressureEval(alpha)
    xs = [0.05 + 0.9 * k / 13 for k in range(14)] + [mean_slope(alpha), 0.5 * mean_slope(alpha)]
    for x in xs:
        if x >= min(alpha, 1.0) - 0.02:
            continue
        r = rate(ev, x)
        assert (r.lambda_star, r.rate) == _rate_reference(ev, x), x
