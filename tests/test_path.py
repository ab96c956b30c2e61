"""Trajectory-level rate functional and the Euler-Lagrange boundary solver."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from hypothesis import given, settings
from hypothesis import strategies as st

from treeldp import path as path_mod
from treeldp import (
    PathFunction,
    PressureEval,
    euler_solve,
    local_cost,
    path_rate,
    rate,
)


# ------------------------------------------------------------- PathFunction


def test_path_function_validation():
    with pytest.raises(ValueError):
        PathFunction([0.0, 0.5], [0.0, 0.25])  # last knot must be 1
    with pytest.raises(ValueError):
        PathFunction([0.1, 1.0], [0.0, 0.5])  # first knot must be 0
    with pytest.raises(ValueError):
        PathFunction([0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.2, 0.5])  # repeated knot
    with pytest.raises(ValueError):
        PathFunction([0.0, 1.0], [0.1, 0.5])  # phi(0) != 0
    with pytest.raises(ValueError):
        PathFunction([0.0, 0.5, 1.0], [0.0, 0.4, 0.2])  # negative slope
    with pytest.raises(ValueError):
        PathFunction([0.0, 0.5, 1.0], [0.0, 0.7, 0.8])  # slope 1.4 > 1
    with pytest.raises(ValueError):
        PathFunction([0.0, 1.0], [0.0, 1.1])  # phi > t


def test_path_function_line_and_refine():
    phi = PathFunction.line(0.6)
    assert phi(0.5) == pytest.approx(0.3)
    assert list(phi.slopes()) == [pytest.approx(0.6)]
    fine = phi.refine()
    assert len(fine.knots) == 3
    tt = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(fine(tt), phi(tt), atol=1e-15)


# --------------------------------------------------------------- local cost


def test_local_cost_values():
    # on the mean line the integrand vanishes
    assert local_cost(1.0, 1.0, 0.5, 2.0) == 0.0
    # generic interior point, alpha = 1
    expect = 0.5 * math.log(2.0 / 3.0) + 0.5 * math.log(2.0)
    assert local_cost(1.0, 0.25, 0.5, 1.0) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.14384, abs=5e-6)
    # moving off x = 0 with slope < 1 is infinitely expensive
    assert local_cost(0.5, 0.0, 0.3, 2.0) == math.inf
    assert local_cost(0.5, 0.0, 1.0, 2.0) == 0.0
    # riding the upper edge with positive slope likewise
    assert local_cost(0.5, 1.0, 0.2, 2.0) == math.inf
    assert local_cost(0.5, 1.0, 0.0, 2.0) == pytest.approx(math.log(1.0), abs=1e-12)


def test_local_cost_domain():
    with pytest.raises(ValueError):
        local_cost(0.0, 0.1, 0.5, 2.0)
    with pytest.raises(ValueError):
        local_cost(1.0, 0.5, 1.2, 2.0)
    with pytest.raises(ValueError):
        local_cost(1.0, 2.5, 0.5, 2.0)  # x beyond alpha t


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=1.0),
    xf=st.floats(min_value=0.05, max_value=0.95),
    y=st.floats(min_value=0.0, max_value=1.0),
    alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_local_cost_nonnegative_zero_on_mean(t, xf, y, alpha):
    x = xf * alpha * t
    val = local_cost(t, x, y, alpha)
    assert val >= -1e-13
    # the minimising slope turns the integrand off
    y_star = 1.0 - x / (alpha * t)
    assert local_cost(t, x, y_star, alpha) <= 1e-13


# ---------------------------------------------------------------- path rate


def test_path_rate_lln_line_is_free():
    for alpha in (2.0, 1.0, 0.5, 3.0):
        lln = alpha / (alpha + 1.0)
        assert path_rate(PathFunction.line(lln), alpha) == pytest.approx(0.0, abs=1e-12)


def test_path_rate_extreme_lines():
    # phi = t forces an up-move every step
    assert path_rate(PathFunction.line(1.0), 2.0) == pytest.approx(math.log(2.0), abs=1e-10)
    # phi = t/2 at alpha = 2: constant integrand
    assert path_rate(PathFunction.line(0.5), 2.0) == pytest.approx(
        0.5 * math.log(4.0 / 3.0), abs=1e-10
    )
    # a line's integrand is constant, and the line is one admissible path;
    # the grid keeps off the LLN points, where the cost is 0
    for alpha in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        ev = PressureEval(alpha)
        for x in (0.02, 0.13, 0.3, 0.45, 0.55, 0.7, 0.85, 0.97, 1.0):
            if x >= alpha:
                continue
            want = local_cost(1.0, x, x, alpha)
            for npts in (2, 7, 1001):
                got = path_rate(PathFunction.line(x, npts), alpha)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                assert got >= rate(ev, x).rate - 1e-12


def test_path_rate_infinite_cases():
    # leaving the admissible cone phi <= alpha t
    assert path_rate(PathFunction.line(1.0), 0.5) == math.inf
    # riding the upper boundary phi = alpha t with positive slope
    assert path_rate(PathFunction([0.0, 1.0], [0.0, 0.5]), 0.5) == math.inf
    # a flat start never leaves zero: slope 0 at x = 0 diverges
    assert path_rate(PathFunction([0.0, 0.5, 1.0], [0.0, 0.0, 0.5]), 2.0) == math.inf


def test_path_rate_refine_invariance():
    phi = PathFunction([0.0, 0.3, 0.7, 1.0], [0.0, 0.25, 0.5, 0.6])
    base = path_rate(phi, 2.0)
    assert math.isfinite(base)
    assert path_rate(phi.refine(), 2.0) == pytest.approx(base, abs=1e-14)
    assert path_rate(phi.refine().refine(), 2.0) == pytest.approx(base, abs=1e-14)


def test_path_rate_rejects_bad_alpha():
    with pytest.raises(ValueError):
        path_rate(PathFunction.line(0.5), 0.0)


@settings(max_examples=20, deadline=None)
@given(
    s1=st.floats(min_value=0.05, max_value=1.0),
    s2=st.floats(min_value=0.0, max_value=1.0),
    s3=st.floats(min_value=0.0, max_value=1.0),
)
def test_path_rate_nonnegative(s1, s2, s3):
    vals = np.concatenate([[0.0], np.cumsum([s1, s2, s3]) / 3.0])
    phi = PathFunction([0.0, 1 / 3, 2 / 3, 1.0], vals)
    assert path_rate(phi, 2.0) >= 0.0


# --------------------------------------------------------------- euler solve


def test_euler_mean_target_is_free():
    sol = euler_solve(2.0, 2.0 / 3.0)
    assert sol.cost == 0.0
    assert sol.terminal_gap == 0.0 and sol.shoot_param == 2.0 / 3.0
    tt = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(sol.path(tt), 2.0 / 3.0 * tt, atol=1e-15)


@pytest.mark.parametrize("x", [0.13, 0.85])
def test_euler_matches_legendre_rate(x):
    sol = euler_solve(2.0, x)
    pt = rate(PressureEval(2.0), x)
    assert sol.cost == pytest.approx(pt.rate, abs=1e-8)
    assert sol.terminal_gap <= 1e-9
    # the minimiser is genuinely curved, not the chord to (1, x)
    tt = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(sol.path(tt) - x * tt)) > 1e-3
    # and it leaves the origin along the mean slope
    assert sol.shoot_param == pytest.approx(2.0 / 3.0, abs=0.01)


def test_euler_continuity_toward_one():
    sol = euler_solve(2.0, 0.97)
    pt = rate(PressureEval(2.0), 0.97)
    assert sol.cost == pytest.approx(pt.rate, abs=1e-7)
    assert sol.cost < math.log(2.0)
    assert rate(PressureEval(2.0), 1.0).rate == pytest.approx(math.log(2.0), abs=1e-12)


def test_euler_solution_invariants():
    sol = euler_solve(2.0, 0.4)
    assert sol.alpha == 2.0 and sol.x_target == 0.4
    assert math.isfinite(sol.cost) and sol.cost > 0.0
    slopes = sol.path.slopes()
    assert np.all(slopes >= -1e-12) and np.all(slopes <= 1.0 + 1e-12)


def test_euler_domain():
    with pytest.raises(ValueError):
        euler_solve(1.0, 0.5)  # needs alpha > 1
    with pytest.raises(ValueError):
        euler_solve(2.0, 0.0)
    with pytest.raises(ValueError):
        euler_solve(2.0, 1.0)
    # a solve costs time linear in alpha: refused above the cap
    with pytest.raises(ValueError, match="refuses alpha > 10000; got alpha=10000.000000000002"):
        euler_solve(math.nextafter(path_mod._ALPHA_MAX, math.inf), 0.5)


@pytest.mark.parametrize("alpha", [1.01, 1.25, 1.5, 2.0, 3.0, 5.0, 20.0])
def test_euler_matches_rate_across_alpha(alpha):
    ev = PressureEval(alpha)
    for x in (0.13, 0.5, 0.85):
        sol = euler_solve(alpha, x)
        target = rate(ev, x).rate
        assert sol.terminal_gap <= 1e-9
        assert sol.cost == pytest.approx(target, abs=1e-9)
        assert path_rate(sol.path, alpha) == pytest.approx(target, abs=1e-4)


# phi(t) at t = 0.01, 0.1, 0.5, 0.9 from the brentq shooter (launch at
# t = 1e-8, bracket doubling on the launch scale) that the one-shot
# manifold route replaced
_SHOOTER_PATHS = {
    (2.0, 0.13): (0.006196426665040161, 0.049394328022238254, 0.121249369248292, 0.1296519860921662),
    (2.0, 0.85): (0.00695631117598653, 0.07480336595325691, 0.4076910279666274, 0.7602033799477702),
    (3.0, 0.5): (0.007134711519059399, 0.06611028417636072, 0.2852636108040093, 0.4612693983578484),
}


@pytest.mark.parametrize("alpha, x", sorted(_SHOOTER_PATHS))
def test_euler_path_matches_the_shooter(alpha, x):
    sol = euler_solve(alpha, x)
    got = sol.path(np.array([0.01, 0.1, 0.5, 0.9]))
    np.testing.assert_allclose(got, _SHOOTER_PATHS[alpha, x], rtol=0.0, atol=1e-9)
    assert sol.path.values[-1] == sol.endpoint


def test_euler_integrates_once_per_call(monkeypatch):
    calls = []

    def counting_solve_ivp(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(path_mod, "solve_ivp", counting_solve_ivp)
    for alpha, x in [(2.0, 0.13), (2.0, 0.85), (1.5, 0.5), (3.0, 0.5), (20.0, 0.02)]:
        before = len(calls)
        euler_solve(alpha, x)
        assert len(calls) - before == 1
    # the LLN target is the straight line and integrates nothing
    euler_solve(2.0, 2.0 / 3.0)
    assert len(calls) == 5


def _project_admissible_loop(knots, values):
    """The projection as one Python step per knot."""
    out = values.copy()
    for i in range(1, len(out)):
        dt = knots[i] - knots[i - 1]
        out[i] = min(max(out[i], out[i - 1]), out[i - 1] + dt, knots[i])
    return out


def test_projection_equals_the_knot_loop(monkeypatch):
    project, knots, raw = path_mod._project_admissible, path_mod._KNOTS, []
    monkeypatch.setattr(path_mod, "_project_admissible", lambda k, v: raw.append(v.copy()) or project(k, v))
    for alpha, x in [(2.0, 0.13), (2.0, 0.5), (2.0, 0.85), (1.5, 0.5), (3.0, 0.5), (2.0, 1e-8)]:
        sol = euler_solve(alpha, x)
        assert np.array_equal(sol.path.values, _project_admissible_loop(knots, raw[-1])), (alpha, x)
    # a path on every edge of the admissible set (phi = t, flat, slope 1)
    # with 1e-15 dust on every knot, or from knot 700 on
    edges = np.minimum(knots, 0.2) + np.maximum(knots - 0.6, 0.0)
    dust = edges + np.random.default_rng(4).choice([-1e-15, 0.0, 1e-15], len(knots))
    dust[0] = 0.0
    for values in (dust, np.where(np.arange(len(knots)) >= 700, dust, edges)):
        want = _project_admissible_loop(knots, values)
        assert not np.array_equal(want, values)
        assert np.array_equal(project(knots, values), want)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("offset", [1e-9, -1e-9, 1e-6, -1e-6])
def test_euler_near_the_lln_target(alpha, offset):
    # the launch scales with |x - alpha/(alpha+1)|, so it never starts
    # beyond a target this close
    x = alpha / (alpha + 1.0) + offset
    sol = euler_solve(alpha, x)
    assert sol.terminal_gap <= 1e-9
    assert sol.cost == pytest.approx(rate(PressureEval(alpha), x).rate, abs=1e-12)
    assert sol.cost >= 0.0


@pytest.mark.parametrize("alpha, x", [(2.0, 0.02), (2.0, 1.0 - 1e-9), (2.0, 1e-8), (100.0, 0.02)])
def test_euler_edge_targets(alpha, x):
    sol = euler_solve(alpha, x)
    assert sol.terminal_gap <= 1e-9
    assert math.isfinite(sol.cost) and sol.cost > 0.0
    assert sol.cost == pytest.approx(rate(PressureEval(alpha), x).rate, abs=1e-9)
    if (alpha, x) == (2.0, 0.02):
        # lambda* = -51 here; rate() answers I = 3.5851701859880913
        assert sol.cost == pytest.approx(3.5851701859880913, abs=1e-9)
    if (alpha, x) == (2.0, 1e-8):
        # lambda* = -1 - 1/x and e^lambda* underflows, so at alpha = 2
        # I(x) = log(2/x) - 1 - x to double precision
        assert sol.cost == pytest.approx(math.log(2.0 / x) - 1.0 - x, abs=1e-8)


def test_euler_reaches_the_far_lower_tail():
    # the manifold reaches u = 1e-200 at log-time 460 past the launch;
    # rate(): I = 460.2101657793691 (lambda* about -1e200)
    sol = euler_solve(2.0, 1e-200)
    assert sol.terminal_gap <= 1e-210
    assert sol.cost == pytest.approx(rate(PressureEval(2.0), 1e-200).rate, abs=1e-9)
    assert sol.cost == pytest.approx(460.2101657793691, abs=1e-9)


def test_euler_refuses_targets_beyond_the_integration():
    # below about 1e-307 the costate overflows before u gets this low
    for x in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="beyond the reach of the integration"):
            euler_solve(2.0, x)


def _path_rate_reference(phi, alpha):
    """Adaptive quadrature of local_cost along every linear piece, under
    path_rate's +inf rules."""
    slopes = np.clip(phi.slopes(), 0.0, 1.0)
    total = 0.0
    for i, y in enumerate(slopes.tolist()):
        ta, tb = float(phi.knots[i]), float(phi.knots[i + 1])
        xa = 0.0 if i == 0 else float(phi.values[i])
        xb = xa + y * (tb - ta)
        ua, ub = alpha * ta, alpha * tb
        if xa > ua + 1e-13 or xb > ub + 1e-13:
            return math.inf
        if xa <= 1e-9 and y <= 0.0:
            return math.inf
        if abs(xa - ua) <= 1e-14 and abs(y - alpha) <= 1e-14 and y > 0.0:
            return math.inf

        def f(t, ta=ta, xa=xa, y=y):
            return local_cost(t, min(max(xa + y * (t - ta), 0.0), alpha * t), y, alpha)

        total += quad(f, ta, tb, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
    return total


def _random_paths():
    rng = np.random.default_rng(3)
    paths = []
    for _ in range(60):
        k = int(rng.integers(2, 60))
        t = np.concatenate([[0.0], np.sort(rng.random(k - 2)), [1.0]])
        s = rng.random(k - 1) * rng.choice([1.0, 0.5, 0.2])
        s[rng.integers(0, k - 1, 2)] = rng.choice([0.0, 1.0], 2)
        phi = PathFunction(t, np.concatenate([[0.0], np.cumsum(s * np.diff(t))]))
        paths.append((phi, float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))))
    return paths


# quad flags roundoff at a request this close to double precision; its
# error estimates stay about 1e-14 relative
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_path_rate_matches_adaptive_quadrature_piece_by_piece():
    cases = [(euler_solve(2.0, 0.13).path, 2.0)]
    cases += [(PathFunction.line(x, 7), a) for a in (0.5, 1.0, 2.0) for x in (0.0, 0.1, 0.5, 1.0)]
    cases += [
        (PathFunction([0.0, 0.5, 1.0], [0.0, 0.0, 0.5]), 2.0),  # leaves the zero line: singular
        (PathFunction([0.0, 0.3, 0.6, 1.0], [0.0, 0.3, 0.6, 0.7]), 1.0),  # on phi = t: singular
        (PathFunction([0.0, 0.2, 0.6, 1.0], [0.0, 0.1, 0.1, 0.5]), 2.0),
        (PathFunction([0.0, 0.5, 1.0], [0.0, 0.25, 0.5]), 0.5),  # rides alpha t: inf
        (PathFunction([0.0, 0.4, 1.0], [0.0, 0.0, 0.0]), 2.0),  # lingers on zero: inf
    ]
    cases += _random_paths()
    finite = 0
    for phi, alpha in cases:
        got, want = path_rate(phi, alpha), _path_rate_reference(phi, alpha)
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
            finite += 1
    assert len(cases) == 78 and finite == 58


# I(phi) of the piecewise-linear path itself by mpmath at 30 digits, one
# mp.quad per piece, with 0 log 0 = 0 (the (2, 0.02) path has pieces of
# slope exactly 0)
_MPMATH_EULER_PATH_RATES = {
    (2.0, 0.13): 1.603729874661240780231069,
    (2.0, 0.02): 3.585172258513088274813341,
    (3.0, 0.5): 0.2630671219014686728178925,
}


def test_path_rate_matches_mpmath():
    for (alpha, x), want in _MPMATH_EULER_PATH_RATES.items():
        assert path_rate(euler_solve(alpha, x).path, alpha) == pytest.approx(want, rel=1e-14, abs=0.0)
    phi, alpha = _random_paths()[3]
    assert alpha == 1.0 and len(phi.knots) == 17
    assert path_rate(phi, alpha) == pytest.approx(0.8283453326065869873098145, rel=1e-14, abs=0.0)
