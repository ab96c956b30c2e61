"""Path-space rate functional and optimal large-deviation trajectories.

The rate of a path phi on [0,1] is the integral of the local cost
L(alpha t, phi, phidot).  Its Legendre dual is the log-MGF of one
increment, the Hamiltonian

    H(t, phi, p) = log((1 - q) e^p + q),    q = phi/(alpha t),

and minimizers solve phi' = dH/dp, p' = -dH/dphi (Dembo & Zeitouni,
Ch. 5).  Near the origin every finite-cost path leaves linearly and the
costate grows from zero along the one mode p = mu t^(1/alpha).
`euler_solve` launches there at t = eps, integrates forward to t = 1,
and finds mu with brentq on the increasing map mu -> phi(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

__all__ = [
    "PathFunction",
    "EulerSolution",
    "local_cost",
    "path_rate",
    "euler_solve",
]

_EPS_LAUNCH = 1e-8
# knots of a returned path, fixed apart from the launch time
_KNOTS = np.concatenate([[0.0], np.linspace(1e-6, 1.0, 1001)])
_SLOPE_TOL = 1e-9
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(30)
# regular pieces per Gauss pass: bounds the (pieces x nodes) temporaries
_GAUSS_CHUNK = 64


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


def _constant_slope_cost(y: float, alpha: float) -> float:
    """Cost density along phi = y t (t-independent by scaling)."""
    if y == 0.0:
        return math.inf
    if y > alpha or y == alpha:
        # phi = alpha t rides the upper boundary (alpha <= 1 only)
        return math.inf
    return local_cost(1.0, y, y, alpha)


def _singular_cost(ta: float, tb: float, xa: float, y: float, alpha: float) -> float:
    """Integral of L along one piece with an integrable log singularity at
    an endpoint, by the adaptive rule."""

    def f(t: float) -> float:
        x = min(max(xa + y * (t - ta), 0.0), alpha * t)
        return local_cost(t, x, y, alpha)

    val, _ = quad(f, ta, tb, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def _gauss_costs(ta, tb, xa, y, alpha: float) -> np.ndarray:
    """Integrals of L along regular pieces by the Gauss rule, all pieces at
    once; the elementwise arithmetic is local_cost's."""
    t = 0.5 * (ta + tb)[:, None] + 0.5 * (tb - ta)[:, None] * _GAUSS_NODES
    u = alpha * t
    y = y[:, None]
    x = np.minimum(np.maximum(xa[:, None] + y * (t - ta[:, None]), 0.0), u)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (np.where(y == 0.0, 0.0, y * np.log(u / (u - x) * y))
                + np.where(y == 1.0, 0.0, (1.0 - y) * np.log(u / x * (1.0 - y))))
    cost = 0.5 * (tb - ta) * (vals @ _GAUSS_WEIGHTS)
    cost[~np.isfinite(vals).all(axis=1)] = np.inf
    return cost


def _piece_costs(ta, tb, xa, y, alpha: float) -> np.ndarray:
    """Integral of L along each linear piece (arrays, ta > 0); all +inf as
    soon as one piece leaves the admissible cone, lingers on the zero line
    or rides the upper boundary."""
    xb = xa + y * (tb - ta)
    ua, ub = alpha * ta, alpha * tb
    infinite = ((xa > ua + 1e-13) | (xb > ub + 1e-13)
                | ((xa <= _SLOPE_TOL) & (y <= 0.0))
                | ((np.abs(xa - ua) <= 1e-14) & (np.abs(y - alpha) <= 1e-14) & (y > 0.0)))
    cost = np.full(len(ta), np.inf)
    if infinite.any():
        return cost
    singular = ((xa <= _SLOPE_TOL) & (y < 1.0)) | (ua - xa <= 1e-12) | (ub - xb <= 1e-12)
    for i in np.flatnonzero(singular):
        cost[i] = _singular_cost(float(ta[i]), float(tb[i]), float(xa[i]), float(y[i]), alpha)
    regular = np.flatnonzero(~singular)
    for j in range(0, len(regular), _GAUSS_CHUNK):
        idx = regular[j : j + _GAUSS_CHUNK]
        cost[idx] = _gauss_costs(ta[idx], tb[idx], xa[idx], y[idx], alpha)
    return cost


def path_rate(phi: PathFunction, alpha: float) -> float:
    """I(phi) = int_0^1 L(alpha t, phi, phidot) dt for a piecewise-linear
    path; +inf as soon as a divergence holds on positive measure."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    knots = phi.knots
    slopes = np.clip(phi.slopes(), 0.0, 1.0)
    # the first piece leaves 0 linearly: the integrand is constant
    first = _constant_slope_cost(float(slopes[0]), alpha)
    if math.isinf(first):
        return math.inf
    costs = _piece_costs(knots[1:-1], knots[2:], phi.values[1:-1], slopes[1:], alpha)
    if np.isinf(costs).any():
        return math.inf
    total = (knots[1] - knots[0]) * first
    for c in costs.tolist():
        total += c
    return float(total)


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


def _launch_slope(p: float, alpha: float) -> float:
    """Slope c of the straight path phi = c t with costate p: c = alpha r
    for the root r of alpha expm1(-p) r^2 + (1 + alpha) r = 1, so
    alpha/(alpha + 1) at p = 0."""
    disc = (1.0 + alpha) ** 2 + 4.0 * alpha * math.expm1(-p)
    return 2.0 * alpha / (1.0 + alpha + math.sqrt(disc))


def _hamilton_rhs(t: float, state, alpha: float):
    """(phi', p', cost density) for H = log D, D = (1 - q) e^p + q and
    q = phi/(alpha t): phi' = dH/dp, p' = -dH/dphi = (e^p - 1)/(alpha t D)
    and p phi' - H.  D and e^p - 1 are carried divided by e^max(p, 0), so
    no exponential overflows as the target nears 1."""
    phi, p, _cost = state
    q = phi / (alpha * t)
    if p > 0.0:
        up, stay, top, grow = 1.0 - q, q * math.exp(-p), p, -math.expm1(-p)
    else:
        up, stay, top, grow = (1.0 - q) * math.exp(p), q, 0.0, math.expm1(p)
    d = up + stay
    v = up / d
    return (v, grow / (alpha * t * d), p * v - top - math.log(d))


def _shoot(alpha: float, mu: float, dense: bool = False):
    """Launch slope and trajectory from the growing mode p(eps) = mu eps^(1/alpha)."""
    p0 = mu * _EPS_LAUNCH ** (1.0 / alpha)
    c = _launch_slope(p0, alpha)
    sol = solve_ivp(_hamilton_rhs, (_EPS_LAUNCH, 1.0), (c * _EPS_LAUNCH, p0, 0.0), args=(alpha,),
                    method="DOP853", rtol=1e-11, atol=1e-13, dense_output=dense)
    if not sol.success:
        raise RuntimeError(f"integration failed at mu={mu}: {sol.message}")
    return c, sol


def _project_admissible(knots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Snap integrator dust onto the admissible set (monotone, 1-Lipschitz,
    phi <= t)."""
    out = values.copy()
    for i in range(1, len(out)):
        dt = knots[i] - knots[i - 1]
        out[i] = min(max(out[i], out[i - 1]), out[i - 1] + dt, knots[i])
    return out


def euler_solve(alpha: float, x_target: float) -> EulerSolution:
    """Optimal trajectory hitting phi(1) = x_target by forward shooting of
    the Hamiltonian system: brentq on the launch-mode scale mu, on which
    phi(1) is increasing, from the bracket [-1, 1] doubled until it holds
    the target."""
    if not alpha > 1.0:
        raise ValueError("euler_solve requires alpha > 1")
    if not 0.0 < x_target < 1.0:
        raise ValueError("x_target must lie in (0, 1)")

    @lru_cache(maxsize=None)
    def gap(mu: float) -> float:
        return float(_shoot(alpha, mu)[1].y[0, -1]) - x_target

    lo, hi = -1.0, 1.0
    try:
        while gap(lo) > 0.0:
            lo *= 2.0
        while gap(hi) < 0.0:
            hi *= 2.0
    except OverflowError:
        # the launch costate left double range before bracketing the target
        raise ValueError(f"x_target={x_target} is beyond the reach of the launch") from None
    c, sol = _shoot(alpha, brentq(gap, lo, hi), dense=True)
    endpoint = float(sol.y[0, -1])
    if abs(endpoint - x_target) > 1e-7:
        raise RuntimeError(
            f"shooting stalled: endpoint {endpoint} vs target {x_target} "
            f"(gap {abs(endpoint - x_target):.2e})"
        )
    # the functional is nonnegative; rounding at the LLN target can leave
    # a -1e-16 residue
    cost = max(float(sol.y[2, -1]) + _EPS_LAUNCH * _constant_slope_cost(c, alpha), 0.0)
    values = np.concatenate([[0.0], sol.sol(_KNOTS[1:])[0]])
    path = PathFunction(_KNOTS, _project_admissible(_KNOTS, values))
    return EulerSolution(alpha, x_target, path, cost, shoot_param=c, endpoint=endpoint)
