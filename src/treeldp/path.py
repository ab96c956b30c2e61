"""Path-space rate functional and optimal large-deviation trajectories.

The rate of a path phi on [0,1] is the integral of the local cost
L(alpha t, phi, phidot), which `path_rate` takes in closed form on a
piecewise-linear path (each log in L has a closed mean over a piece).
Its Legendre dual is the log-MGF of one increment, the Hamiltonian

    H(t, phi, p) = log((1 - q) e^p + q),    q = phi/(alpha t),

and minimizers solve phi' = dH/dp, p' = -dH/dphi (Dembo & Zeitouni,
Ch. 5).  In log-time tau = log t, with u = phi/t, the system is
autonomous: u' = dH/dp - u and p' = (e^p - 1)/(alpha D), D = e^H.  So
every optimal path lies on the unstable manifold of the LLN point
(u, p) = (alpha/(alpha + 1), 0), one branch on each side of it, and the
target only fixes where on that branch t = 1 falls.  `euler_solve`
launches along the unstable eigenvector, integrates once until u
reaches the target, and reads phi(t) = t u(log t + tau_x) off the
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .pressure import mean_slope, sigma_sq

__all__ = [
    "PathFunction",
    "EulerSolution",
    "local_cost",
    "path_rate",
    "euler_solve",
]

# knots of a returned path
_KNOTS = np.concatenate([[0.0], np.linspace(1e-6, 1.0, 1001)])
_SLOPE_TOL = 1e-9
# The launch sits on the unstable eigenvector at costate |p0| <= _LAUNCH_P,
# where the manifold leaves it by O(p0^2), and at most e^(-_LAUNCH_SPAN/alpha)
# of the way to the target, so the path spends about _LAUNCH_SPAN of
# log-time on the manifold before t = 1 and the launch error dies out.
_LAUNCH_P = 1e-3
_LAUNCH_SPAN = 20.0
# A solve costs about 0.2 ms per unit of alpha (2 s at 1e4, 6 s at 3e4 on
# a 2-core x86-64 machine), so euler_solve refuses alpha above this
_ALPHA_MAX = 1e4


@dataclass(frozen=True)
class PathFunction:
    """Piecewise-linear trajectory on [0,1]: phi(0) = 0, slopes in [0,1],
    nondecreasing, phi(t) <= t."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)
        if len(k) != len(v) or len(k) < 2:
            raise ValueError("need matching knots/values with at least two knots")
        if k[0] != 0.0 or k[-1] != 1.0:
            raise ValueError("knots must start at 0 and end at 1")
        if np.any(np.diff(k) <= 0):
            raise ValueError("knots must be strictly increasing")
        if abs(v[0]) > _SLOPE_TOL:
            raise ValueError("phi(0) must be 0")
        slopes = np.diff(v) / np.diff(k)
        if np.any(slopes < -_SLOPE_TOL) or np.any(slopes > 1.0 + _SLOPE_TOL):
            raise ValueError("slopes must lie in [0, 1]")
        if np.any(v - k > _SLOPE_TOL):
            raise ValueError("phi(t) must not exceed t")

    def __call__(self, t) -> np.ndarray | float:
        return np.interp(t, self.knots, self.values)

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.knots)

    def refine(self) -> "PathFunction":
        """Insert midpoints between all knots (used by invariance tests)."""
        mids = 0.5 * (self.knots[:-1] + self.knots[1:])
        knots = np.sort(np.concatenate([self.knots, mids]))
        return PathFunction(knots, self(knots))

    @staticmethod
    def line(x_end: float, npts: int = 2) -> "PathFunction":
        t = np.linspace(0.0, 1.0, npts)
        return PathFunction(t, x_end * t)


def local_cost(t: float, x: float, y: float, alpha: float) -> float:
    """L(alpha t, x, y) = y log(alpha t y/(alpha t - x))
    + (1-y) log(alpha t (1-y)/x), with 0 log 0 = 0; +inf when
    (x = 0, y < 1) or (x = alpha t, y > 0)."""
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be finite and > 0")
    u = alpha * t
    if x < 0.0 or x > u:
        raise ValueError(f"x must lie in [0, alpha t] = [0, {u}]")
    if x == 0.0:
        return 0.0 if y == 1.0 else math.inf
    if x == u and y > 0.0:
        return math.inf
    # ratios first: u/(u-x) and u/x never underflow, and if the product
    # with y still hits zero the whole term is below double precision
    arg_up = 0.0 if y == 0.0 else u / (u - x) * y
    term_up = 0.0 if arg_up == 0.0 else y * math.log(arg_up)
    term_stay = 0.0 if y == 1.0 else (1.0 - y) * math.log(u / x * (1.0 - y))
    return term_up + term_stay


def _mean_log(a, b) -> np.ndarray:
    """Mean of log over an affine function running from a to b (arrays,
    >= 0): log h - r log r/(1 - r) - 1 with h = max(a, b), r = min/h,
    through d = 1 - r so that nothing cancels on short pieces; -inf where
    a = b = 0."""
    h = np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(b - a) / h
        g = np.where(d == 1.0, 0.0, np.where(d > 0.0, (1.0 - d) * np.log1p(-d) / d, -1.0))
        return np.log(h) - g - 1.0


def path_rate(phi: PathFunction, alpha: float) -> float:
    """I(phi) = int_0^1 L(alpha t, phi, phidot) dt for a piecewise-linear
    path, exact: along a piece phi = y t + c,

        L = y log y + (1 - y) log(1 - y) + log(alpha t)
            - y log((alpha - y) t - c) - (1 - y) log(y t + c),

    the logs of three affine functions of t, each integrated by
    `_mean_log`.  +inf as soon as one piece leaves the admissible cone,
    lingers on the zero line or rides the upper boundary."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be finite and > 0")
    dt = np.diff(phi.knots)
    y = np.clip(phi.slopes(), 0.0, 1.0)
    # phi(0) = 0 exactly (PathFunction allows it _SLOPE_TOL of play)
    xa = np.concatenate([[0.0], phi.values[1:-1]])
    xb = xa + y * dt
    ua, ub = alpha * phi.knots[:-1], alpha * phi.knots[1:]
    if np.any((xa > ua + 1e-13) | (xb > ub + 1e-13)
              | ((xa <= _SLOPE_TOL) & (y <= 0.0))
              | ((np.abs(xa - ua) <= 1e-14) & (np.abs(y - alpha) <= 1e-14) & (y > 0.0))):
        return math.inf
    xa, xb = np.clip(xa, 0.0, ua), np.clip(xb, 0.0, ub)
    up, stay = _mean_log(ua - xa, ub - xb), _mean_log(xa, xb)
    # 0 log 0 = 0, also where a log's mean is -inf
    with np.errstate(invalid="ignore"):
        density = (xlogy(y, y) + xlogy(1.0 - y, 1.0 - y) + _mean_log(ua, ub)
                   - np.where(y > 0.0, y * up, 0.0) - np.where(y < 1.0, (1.0 - y) * stay, 0.0))
    # the functional is nonnegative; on a zero-cost line rounding can
    # leave a -1e-17 residue
    return max(float(dt @ density), 0.0)


@dataclass(frozen=True)
class EulerSolution:
    alpha: float
    x_target: float
    path: PathFunction
    cost: float
    shoot_param: float
    endpoint: float

    @property
    def terminal_gap(self) -> float:
        return abs(self.endpoint - self.x_target)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: that package
    loads scipy.optimize, which nothing but a path solve needs."""
    from scipy.integrate import solve_ivp as solve

    return solve(*args, **kwargs)


def _hamilton_rhs(tau: float, state, alpha: float):
    """(u', p', C') in log-time for H = log D, D = (1 - q) e^p + q and
    q = u/alpha: u' = dH/dp - u, p' = (e^p - 1)/(alpha D), and
    C' = (p dH/dp - H) - C, so C(tau) = (1/t) int_0^t L ds.  D and e^p - 1
    are carried divided by e^max(p, 0), so no exponential overflows as the
    target nears 1."""
    u, p, cost = state
    q = u / alpha
    if p > 0.0:
        up, stay, top, grow = 1.0 - q, q * math.exp(-p), p, -math.expm1(-p)
    else:
        up, stay, top, grow = (1.0 - q) * math.exp(p), q, 0.0, math.expm1(p)
    d = up + stay
    v = up / d
    return (v - u, grow / (alpha * d), p * v - top - math.log(d) - cost)


def _project_admissible(knots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Snap integrator dust onto the admissible set (monotone, 1-Lipschitz,
    phi <= t).  Every knot is checked at once with the loop's own float
    operations; the loop starts at the first knot that moves, since up to
    there its output is `values` itself."""
    out = values.copy()
    prev = values[:-1]
    snap = np.minimum(np.minimum(np.maximum(values[1:], prev), prev + np.diff(knots)), knots[1:])
    moved = np.flatnonzero(snap != values[1:])
    start = moved[0] + 1 if len(moved) else len(out)
    for i in range(start, len(out)):
        dt = knots[i] - knots[i - 1]
        out[i] = min(max(out[i], out[i - 1]), out[i - 1] + dt, knots[i])
    return out


def euler_solve(alpha: float, x_target: float) -> EulerSolution:
    """Optimal trajectory hitting phi(1) = x_target: one integration along
    the branch of the unstable manifold that heads for x_target, stopped
    where u = x_target.  The LLN target is the straight line at cost 0.
    Takes 1 < alpha <= _ALPHA_MAX = 1e4."""
    if not alpha > 1.0:
        raise ValueError("euler_solve requires alpha > 1")
    if alpha > _ALPHA_MAX:
        raise ValueError(f"euler_solve takes time linear in alpha and refuses alpha > {_ALPHA_MAX:g}; "
                         f"got alpha={alpha!r}")
    if not 0.0 < x_target < 1.0:
        raise ValueError("x_target must lie in (0, 1)")
    lln = mean_slope(alpha)
    gap = x_target - lln
    if gap == 0.0:
        return EulerSolution(alpha, x_target, PathFunction(_KNOTS, lln * _KNOTS), 0.0,
                             shoot_param=lln, endpoint=x_target)
    # unstable eigenvector (eigenvalue 1/alpha) of the LLN point: du = kappa dp
    kappa = sigma_sq(alpha)
    share = min(0.5, math.exp(-_LAUNCH_SPAN / alpha))
    p0 = math.copysign(min(_LAUNCH_P, abs(gap) / kappa * share), gap)
    c = lln + kappa * p0

    def reached(tau: float, state, alpha: float) -> float:
        return state[0] - x_target

    reached.terminal = True
    try:
        # from about x_target = 1e-307 down the costate overflows first
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(_hamilton_rhs, (0.0, math.inf), (c, p0, local_cost(1.0, c, c, alpha)),
                            args=(alpha,), method="DOP853", rtol=1e-11, atol=1e-13,
                            events=reached, dense_output=True)
        if sol.status != 1:
            raise ArithmeticError(sol.message)
    except (ArithmeticError, ValueError) as err:
        raise ValueError(f"x_target={x_target} is beyond the reach of the integration ({err})") from None
    # tau_x puts t = 1 where u = x_target; knots before the launch follow
    # the launch slope
    tau = np.log(_KNOTS[1:]) + sol.t[-1]
    u = np.where(tau > 0.0, sol.sol(np.maximum(tau, 0.0))[0], c)
    values = np.concatenate([[0.0], _KNOTS[1:] * u])
    path = PathFunction(_KNOTS, _project_admissible(_KNOTS, values))
    # the functional is nonnegative; rounding near the LLN target can leave
    # a -1e-15 residue
    cost = max(float(sol.y[2, -1]), 0.0)
    return EulerSolution(alpha, x_target, path, cost, shoot_param=c, endpoint=float(sol.y[0, -1]))
