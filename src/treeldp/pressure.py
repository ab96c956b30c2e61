"""Pressure Lambda(lambda), its derivatives, ODE residual diagnostics,
and the Legendre transform to the rate function I(x).

Closed forms exist for alpha in {1/2, 1, 2}.  For general alpha the
substitution v = (e^s - 1)/(e^lambda - 1) turns the defining integral
into Lambda = -log(alpha * J0) with J0 = int_0^1 v^(alpha-1)/(1+cv) dv,
c = e^lambda - 1, and differentiating under the integral sign yields
first and second derivatives from two further quadratures.  That route
never uses the pressure ODE, so ode_residual stays a genuine check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.integrate import quad
from scipy.optimize import brentq

__all__ = [
    "PressureEval",
    "RatePoint",
    "QuadratureError",
    "pressure",
    "pressure_derivatives",
    "ode_residual",
    "rate",
    "mean_slope",
    "sigma_sq",
    "LAMBDA_SWITCH",
]

LAMBDA_SWITCH = 1e-4
_BRACKET_CAP = 50.0
_QUAD_TOL = 1e-12


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; message carries the
    achieved error estimate."""


def mean_slope(alpha: float) -> float:
    """LLN limit of Z_n/n."""
    return alpha / (alpha + 1.0)


def sigma_sq(alpha: float) -> float:
    """CLT variance alpha^2 / ((1+alpha)^2 (2+alpha))."""
    return alpha * alpha / ((1.0 + alpha) ** 2 * (2.0 + alpha))


def _lambda3(alpha: float) -> float:
    # Lambda'''(0) from the power series of the pressure ODE
    # (e^L = (1-e^l)/a L' + e^l); vanishes at alpha = 1
    a = mean_slope(alpha)
    b = sigma_sq(alpha)
    return (alpha - 3 * alpha * a * b - alpha * a**3 - 3 * b - a) / (alpha + 3.0)


@dataclass(frozen=True)
class PressureEval:
    """Evaluator configuration: slope alpha and method."""

    alpha: float
    method: str = "auto"

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if self.method == "auto":
            resolved = next(
                (m for m, (a, _, _) in _CLOSED_FORMS.items() if a == float(self.alpha)), "quadrature"
            )
            object.__setattr__(self, "method", resolved)
        if self.method in _CLOSED_FORMS:
            a = _CLOSED_FORMS[self.method][0]
            if not math.isclose(self.alpha, a):
                raise ValueError(f"{self.method} requires alpha = {a}")
        elif self.method != "quadrature":
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def scope(self) -> str:
        """"proven" for alpha > 1 and the special values 1/2 and 1;
        other alpha in (0, 1) evaluate but are extrapolations."""
        a = float(self.alpha)
        return "proven" if (a > 1 or a in (0.5, 1.0)) else "extrapolated"


# ---------------------------------------------------------------- closed forms


def _cf_half(lam: float) -> float:
    if lam > 0:
        r = math.sqrt(math.expm1(lam))
        return math.log(r / math.atan(r))
    q = math.sqrt(-math.expm1(lam))
    return math.log(q / math.atanh(q))


def _cf_half_d(lam: float) -> tuple[float, float]:
    if lam > 0:
        r2 = math.expm1(lam)
        r = math.sqrt(r2)
        A = math.atan(r)
        d1 = (1 + r2) / (2 * r2) - 1 / (2 * r * A)
        d2 = -(1 + r2) / (2 * r2 * r2) + ((1 + r2) * A + r) / (4 * r * r2 * A * A)
        return d1, d2
    q2 = -math.expm1(lam)
    q = math.sqrt(q2)
    B = math.atanh(q)
    d1 = -(1 - q2) / (2 * q2) + 1 / (2 * q * B)
    d2 = -(1 - q2) / (2 * q2 * q2) + ((1 - q2) * B + q) / (4 * q * q2 * B * B)
    return d1, d2


def _cf_one(lam: float) -> float:
    return math.log(math.expm1(lam) / lam)


def _cf_one_d(lam: float) -> tuple[float, float]:
    em = math.expm1(lam)
    el = em + 1.0
    d1 = el / em - 1.0 / lam
    d2 = 1.0 / (lam * lam) - el / (em * em)
    return d1, d2


def _cf_two(lam: float) -> float:
    em = math.expm1(lam)
    return 2.0 * math.log(abs(em)) - math.log(2.0 * (em - lam))


def _cf_two_d(lam: float) -> tuple[float, float]:
    em = math.expm1(lam)
    el = em + 1.0
    den = em - lam
    d1 = 2.0 * el / em - em / den
    d2 = -2.0 * el / (em * em) - (el * den - em * em) / (den * den)
    return d1, d2


# method: (alpha, Lambda, (Lambda', Lambda'')); every other alpha takes quadrature
_CLOSED_FORMS = {
    "closed_form_half": (0.5, _cf_half, _cf_half_d),
    "closed_form_one": (1.0, _cf_one, _cf_one_d),
    "closed_form_two": (2.0, _cf_two, _cf_two_d),
}


# ------------------------------------------------------------------ quadrature


def _quad_piece(f, a: float, b: float, weight_pow: float):
    """Integrate f(v) * v^weight_pow over [a, b]; QAWS handles the
    algebraic endpoint weight when the interval starts at 0."""
    if a == 0.0 and weight_pow != 0.0:
        res = quad(f, a, b, weight="alg", wvar=(weight_pow, 0.0), epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200, full_output=1)
    else:
        res = quad(lambda v: f(v) * v**weight_pow, a, b, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200, full_output=1)
    # the result feeds logs and ratios, so judge the error relative to the
    # value: epsabs=1e-12 is unattainable when the piece itself is ~1e6
    if len(res) > 3 and res[1] > max(_QUAD_TOL, 1e-10 * abs(res[0])):
        raise QuadratureError(f"quadrature did not converge: {res[3]} (error estimate {res[1]:.3e})")
    return res[0], res[1]


def _J(p: float, m: int, c: float) -> float:
    """int_0^1 v^p / (1 + c v)^m dv, robust to steep integrands at either
    endpoint (large positive c, or c near -1)."""
    f = lambda v: (1.0 + c * v) ** (-m)
    if c < -0.95:
        # 1 + c v shrinks to 1 + c ~ e^lambda at v = 1; integrate the
        # boundary layer in t = -log(1 + c v), where it is a mild exponential
        split = min(0.5, max(1e-3, 20.0 * (1.0 + c) / (-c)))
        v0 = 1.0 - split
        total, _ = _quad_piece(f, 0.0, v0, p)
        q = -c
        t0 = -math.log(1.0 + c * v0)
        t1 = -math.log(1.0 + c)
        g = lambda t: ((1.0 - math.exp(-t)) / q) ** p * math.exp((m - 1.0) * t) / q
        val, _err = _quad_piece(g, t0, t1, 0.0)
        return total + val
    pieces: list[tuple[float, float]]
    if c > 20.0:
        split = 20.0 / c
        pieces = [(0.0, split), (split, 1.0)]
    else:
        pieces = [(0.0, 1.0)]
    total = 0.0
    for a, b in pieces:
        val, _err = _quad_piece(f, a, b, p)
        total += val
    return total


def _quad_pressure(alpha: float, lam: float) -> float:
    c = math.expm1(lam)
    return -math.log(alpha * _J(alpha - 1.0, 1, c))


def _quad_derivs(alpha: float, lam: float) -> tuple[float, float]:
    c = math.expm1(lam)
    el = c + 1.0
    j0 = _J(alpha - 1.0, 1, c)
    j1 = _J(alpha, 2, c)
    j2 = _J(alpha + 1.0, 3, c)
    d1 = el * j1 / j0
    d2 = (el * j1 - 2.0 * el * el * j2) / j0 + d1 * d1
    return d1, d2


# ------------------------------------------------------------------ public API


def pressure(ev: PressureEval, lam: float) -> float:
    """Lambda(lambda); exact 0 at lambda = 0, Taylor patch below
    LAMBDA_SWITCH where the closed forms hit 0/0 cancellation."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam == 0.0:
        return 0.0
    if abs(lam) < LAMBDA_SWITCH:
        a = ev.alpha
        return (
            mean_slope(a) * lam
            + sigma_sq(a) * lam * lam / 2.0
            + _lambda3(a) * lam**3 / 6.0
        )
    if ev.method in _CLOSED_FORMS:
        return _CLOSED_FORMS[ev.method][1](lam)
    return _quad_pressure(ev.alpha, lam)


def pressure_derivatives(ev: PressureEval, lam: float) -> tuple[float, float]:
    """(Lambda', Lambda''): analytic for the closed forms, by
    differentiation under the integral for quadrature; exact constants
    (alpha/(alpha+1), sigma^2) at lambda = 0."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    a = ev.alpha
    if lam == 0.0:
        return mean_slope(a), sigma_sq(a)
    if abs(lam) < LAMBDA_SWITCH:
        l3 = _lambda3(a)
        return (
            mean_slope(a) + sigma_sq(a) * lam + l3 * lam * lam / 2.0,
            sigma_sq(a) + l3 * lam,
        )
    if ev.method in _CLOSED_FORMS:
        return _CLOSED_FORMS[ev.method][2](lam)
    return _quad_derivs(a, lam)


def ode_residual(ev: PressureEval, lam: float) -> float:
    """e^Lambda - [(1 - e^lambda)/alpha] Lambda' - e^lambda; zero for the
    true pressure."""
    if lam == 0.0:
        raise ValueError("the ODE residual is defined for lambda != 0")
    L = pressure(ev, lam)
    d1, _ = pressure_derivatives(ev, lam)
    return math.exp(L) - (1.0 - math.exp(lam)) / ev.alpha * d1 - math.exp(lam)


def _slope(ev: PressureEval, lam: float) -> float:
    """Lambda' without Lambda'': quadrature skips the third integral and
    keeps the expression order of _quad_derivs, so the double is the same."""
    if ev.method == "quadrature" and abs(lam) >= LAMBDA_SWITCH:
        c = math.expm1(lam)
        return (c + 1.0) * _J(ev.alpha, 2, c) / _J(ev.alpha - 1.0, 1, c)
    return pressure_derivatives(ev, lam)[0]


@dataclass(frozen=True)
class RatePoint:
    x: float
    lambda_star: float
    rate: float


def rate(ev: PressureEval, x: float) -> RatePoint:
    """Legendre transform I(x) = sup_lambda {lambda x - Lambda(lambda)},
    solved via the strictly increasing Lambda'.  x = 1 is the limiting
    case: I(1) = log(alpha/(alpha-1)) for alpha > 1, +inf otherwise.
    For alpha < 1, x = alpha is the limiting case instead, with
    I(alpha) = log(alpha pi / sin(pi alpha)), and x in (alpha, 1] is +inf:
    Z_n <= s_n."""
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    a = ev.alpha
    if x == 1.0 and a > 1.0:
        return RatePoint(1.0, math.inf, math.log(a / (a - 1.0)))
    if x == a < 1.0:
        return RatePoint(a, math.inf, math.log(a * math.pi / math.sin(math.pi * a)))
    if x == 1.0 or x > a:
        return RatePoint(x, math.inf, math.inf)

    # memoized, so brentq reuses the bracket ends the doubling evaluated
    @lru_cache(maxsize=None)
    def f(lam: float) -> float:
        return _slope(ev, lam) - x

    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        lo *= 2.0
        if lo < -_BRACKET_CAP:
            raise ValueError(f"lambda* below -{_BRACKET_CAP}: x={x} too deep in the lower tail")
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise ValueError(f"lambda* above {_BRACKET_CAP}: x={x} too close to the upper edge")
    if abs(f(0.0)) < 1e-15:
        lam_star = 0.0
    else:
        lam_star = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return RatePoint(x, lam_star, lam_star * x - pressure(ev, lam_star))
