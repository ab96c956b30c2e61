"""Pressure Lambda(lambda), its derivatives, ODE residual diagnostics,
and the Legendre transform to the rate function I(x).

One route serves every alpha: Lambda = -log(alpha J0) with
J0 = int_0^1 v^(alpha-1)/(1+cv) dv, c = e^lambda - 1, and the derivatives
come from two more integrals of the same kind.  These are Gauss
hypergeometric values, J0 = 2F1(1, alpha; alpha+1; -c)/alpha, evaluated by
scipy.special.hyp2f1 for -3 < lambda <= log 3 and by two connection series
outside that band: the log case in e^lambda below it, and a series in 1/c
above it.  Both are exact in their tails.  For alpha > 20 the lower series
stops at lambda = -log(alpha) and a Laplace series, in 1/alpha around the
pole of the integrand, covers the band up to lambda = -log 2.  lambda = 0
takes the exact constants.  The route never uses the pressure ODE, so
ode_residual stays a genuine check; the closed forms for alpha in
{1/2, 1, 2} live in verify, as criterion 1's reference.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy.special import digamma, expn, hyp2f1, zeta

__all__ = [
    "PressureEval",
    "RatePoint",
    "pressure",
    "pressure_derivatives",
    "ode_residual",
    "rate",
    "mean_slope",
    "sigma_sq",
]

# The route sums the log-case series at and below _SERIES_SWITCH, where
# hyp2f1 loses digits (1e-9 off at lambda = -20, inf from -30), and the
# series in 1/c above log 3 (c > 2, ratio <= 1/2), where hyp2f1's 1/z
# transformation loses digits for alpha near an integer.
_SERIES_SWITCH = -3.0
_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
# Above _ALPHA_LARGE the lower series stops at lambda = -log(alpha), since
# its terms cancel once alpha e^lambda > 1, and the Laplace series takes
# the band up to -log 2, where w < -1 and hyp2f1's transformation loses
# digits as alpha grows.  Between lambda = -5 and -0.7 the lower series
# and hyp2f1 are 2e-12 off in Lambda' at alpha = 50, 1e-10 at alpha = 100
# and nan at alpha = 1000; the Laplace series, whose error is of order
# e^(-2 pi alpha), is within 1e-14 from alpha = 10 on.
_ALPHA_LARGE = 20.0
_TINY = 1e-17  # relative size of the last series term kept
# For small alpha, Lambda ~ alpha lambda is what is left of lambda - log f0
# in the hyp2f1 band, so its relative error grows like 1e-14/alpha: against
# mpmath on lambda in [-30, 30], 8e-13 at alpha = 1e-2, 1.04e-10 at 1e-4
# (lambda = -2.2745), 7e-10 at 1e-5; below 2^-53 the log series divides by 0
_ALPHA_MIN = 1e-4
# e^lambda overflows a double above log(DBL_MAX) ~ 709.78: rate's Newton
# solve clamps every trial lambda to here and refuses x whose lambda* is above
_LAMBDA_MAX = math.log(sys.float_info.max)


def mean_slope(alpha: float) -> float:
    """LLN limit of Z_n/n."""
    return alpha / (alpha + 1.0)


def sigma_sq(alpha: float) -> float:
    """CLT variance alpha^2 / ((1+alpha)^2 (2+alpha)).  Above 1e100, where
    the denominator (about alpha^3) overflows from 5.6e102, it is 1/alpha
    to a relative 4e-100."""
    if alpha > 1e100:
        return 1.0 / alpha
    return alpha * alpha / ((1.0 + alpha) ** 2 * (2.0 + alpha))


@dataclass(frozen=True)
class PressureEval:
    """Evaluator configuration: the slope alpha >= 1e-4 of s_n ~ alpha n."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 0")
        if self.alpha < _ALPHA_MIN:
            raise ValueError(f"alpha must be >= {_ALPHA_MIN:g} (Lambda's relative error grows like "
                             f"1e-14/alpha), got {self.alpha}")

    @property
    def scope(self) -> str:
        """"proven" for alpha > 1 and the special values 1/2 and 1;
        other alpha in (0, 1) evaluate but are extrapolations."""
        a = float(self.alpha)
        return "proven" if (a > 1 or a in (0.5, 1.0)) else "extrapolated"


# --------------------------------------------------------------- the route
#
# With c = e^lambda - 1, Lambda = -log(alpha J0), Lambda' = e^lambda J1 / J0 and
# Lambda'' = (e^lambda J1 - 2 e^(2 lambda) J2) / J0 + Lambda'^2, where
# J_m = int_0^1 v^(alpha+m-1) (1+cv)^-(m+1) dv (m = 0, 1, 2) is a Gauss
# hypergeometric value.  Each route below returns Lambda and
# G_m = e^(m lambda) J_m up to one common factor, so that Lambda' = G1/G0.


def _from_g(lam_val: float, g: list[float]) -> tuple[float, float, float]:
    # Lambda' <= 1 since Z_n <= n, and Lambda'' >= 0 as a limit of variances;
    # in the upper tail, where their terms cancel, each can round past it
    d1 = min(g[1] / g[0], 1.0)
    return lam_val, d1, max(d1 - 2.0 * g[2] / g[0] + d1 * d1, 0.0)


def _minus_log(alpha: float, g0: float) -> float:
    """Lambda = -log(alpha G0), by parts where the product overflows."""
    prod = alpha * g0
    return -math.log(prod) if prod < math.inf else -(math.log(alpha) + math.log(g0))


def _log_series(alpha: float, lam: float) -> tuple[float, list[float]]:
    """lambda <= _SERIES_SWITCH, or <= -log(alpha) above _ALPHA_LARGE: the
    log-case connection series (Abramowitz & Stegun 15.3.10)
    J0 = sum_n (alpha)_n/n! e^(n lambda) [psi(n+1) - psi(alpha+n) - lambda],
    differentiated termwise in lambda."""
    q = math.exp(lam)
    w = 1.0  # (alpha)_n / n! q^n
    d = -0.5772156649015329 - float(digamma(alpha))  # psi(n+1) - psi(alpha+n), Euler's gamma
    g0 = g1 = g2 = 0.0
    n = 0
    while True:
        t = d - lam
        a0 = w * t
        a1 = w * (1.0 - n * t)  # -d/dlambda of the J0 term
        a2 = w * ((n * n - n) * t - 2.0 * n + 1.0) / 2.0  # (J0'' - J0') / 2
        g0 += a0
        g1 += a1
        g2 += a2
        if n > 0 and abs(a0) <= _TINY * abs(g0) and abs(a1) <= _TINY * abs(g1) and abs(a2) <= _TINY * abs(g2):
            return _minus_log(alpha, g0), [g0, g1, g2]
        n += 1
        d += 1.0 / n - 1.0 / (alpha + n - 1.0)
        w *= (alpha + n - 1.0) * q / n


def _hyp(alpha: float, lam: float) -> tuple[float, list[float]]:
    """_SERIES_SWITCH < lambda <= log 3 (-log 2 < lambda above
    _ALPHA_LARGE): the Pfaff form
    e^((m+1) lambda) (alpha+m) J_m = 2F1(m+1, 1; alpha+m+1; w), with
    w = 1 - e^-lambda in (-19.1, 2/3] computed directly, not rebuilt by
    hyp2f1 from z = 1 - e^lambda.  Lambda takes f0 - 1 = w f1 / (alpha+1)
    (contiguous in the first parameter), so it keeps its relative precision
    as lambda -> 0."""
    w = -math.expm1(-lam)
    f = [float(hyp2f1(m + 1.0, 1.0, alpha + m + 1.0, w)) for m in range(3)]
    return lam - math.log1p(w * f[1] / (alpha + 1.0)), [fm / (alpha + m) for m, fm in enumerate(f)]


def _x_minus_sin(x: float) -> float:
    # x - sin(x) from its Taylor series: no cancellation for |x| <= pi/2
    t = s = x * x * x / 6.0
    j = 1
    while abs(t) > _TINY * abs(s):
        t *= -x * x / ((2 * j + 2) * (2 * j + 3))
        s += t
        j += 1
    return s


def _inverse_series(alpha: float, lam: float) -> tuple[float, list[float]]:
    """c > 2: the connection series in 1/c,
    c^(m+1) J_m = c^(1-alpha) Gamma(alpha+m) Gamma(1-alpha) / m!
                  - sum_j (-1)^j (m+1)_j / j! c^-j / (j+1-alpha),
    with the pole of Gamma(1-alpha) at integer alpha = k paired with the
    j = k-1 term and their sum taken in eps = alpha - k without cancellation,
    so it is exact at and near every integer alpha."""
    c = math.expm1(lam)
    r = -math.expm1(-lam)  # c / (1 + c)
    log_c = math.log(c)
    k = round(alpha)
    eps = alpha - k
    poch = (1.0, alpha, alpha * (alpha + 1.0) / 2.0)  # (alpha)_m / m!
    if k == 0:
        # everything divided by c^(1-alpha) Gamma(alpha) Gamma(1-alpha), which
        # overflows at lambda ~ 709 for small alpha; log_c_scaled = log(c / that)
        log_pi_sin = math.log(math.pi / math.sin(math.pi * alpha))
        unit = math.exp(-(1.0 - alpha) * log_c - log_pi_sin)
        log_c_scaled = alpha * log_c - log_pi_sin
        pair = list(poch)
    else:
        unit, log_c_scaled = 1.0, log_c
        if eps == 0.0:
            e1, gm1 = -log_c, 0.0
        else:
            e1 = math.expm1(-eps * log_c) / eps
            x = math.pi * eps
            gm1 = _x_minus_sin(x) / (eps * math.sin(x))  # (pi eps / sin(pi eps) - 1) / eps
        g = 1.0 + eps * gm1
        dpoch = (0.0, 1.0, (alpha + k + 1.0) / 2.0)  # ((alpha)_m - (k)_m) / (m! eps)
        scale = math.copysign(math.exp((1.0 - k) * log_c), -1.0 if k % 2 else 1.0)  # (-1)^k c^(1-k)
        # scale underflows to 0 from k ~ 1000, far below every series term,
        # and long before (alpha)_2 overflows near alpha = 1e154
        pair = [scale * (p * (e1 * g + gm1) + dp) if scale else 0.0 for p, dp in zip(poch, dpoch)]
    s0 = s1 = s2 = 0.0
    b0 = b1 = b2 = 1.0  # (-1/c)^j (m+1)_j / j!
    u = -1.0 / c
    j = 0
    while True:
        if j != k - 1:
            den = j + 1.0 - alpha
            s0 += b0 / den
            s1 += b1 / den
            s2 += b2 / den
        # |den| >= 1/2 off the pole and the terms fall by at least 1/c from j = 2
        if j >= 2 and abs(b2) <= _TINY * min(abs(s0), abs(s1), abs(s2)):  # |b0| <= |b1| <= |b2|
            break
        j += 1
        b0 *= u
        b1 *= u * (j + 1) / j
        b2 *= u * (j + 2) / j
    jh = [pair[0] - s0 * unit, pair[1] - s1 * unit, pair[2] - s2 * unit]
    return log_c_scaled - math.log(alpha * jh[0]), [jh[0], jh[1] / r, jh[2] / (r * r)]


# Power series of (x/(1 - e^-x))^(m+1), m = 0, 1, 2, to _NB terms:
# x/(1 - e^-x) = 1 + x/2 + sum_k (-1)^(k+1) 2 zeta(2k) (x/(2 pi))^2k.  In the
# Laplace band x = t + kappa with kappa <= log 2 and t ~ 1/alpha, so the
# terms fall at least like (log 2 + 1/2)/(2 pi) < 1/5 until n ~ alpha/2.
_NB = 40
_POLE = [[1.0, 0.5] + [
    0.0 if n % 2 else math.copysign(2.0 * float(zeta(n)) / (2.0 * math.pi) ** n, n % 4 - 1)
    for n in range(2, _NB)
]]
for _ in range(2):
    _POLE.append([sum(_POLE[-1][i] * _POLE[0][n - i] for i in range(n + 1)) for n in range(_NB)])


def _exp_expn(p: int, y: float) -> float:
    """e^y E_p(y); above y = 60 from its asymptotic series, whose smallest
    term is below 1e-21 of the sum for p <= 3."""
    if y <= 60.0:
        return math.exp(y) * float(expn(p, y))
    t = s = 1.0 / y
    k = p
    while abs(t) > _TINY * s:
        t *= -k / y
        s += t
        k += 1
    return s


def _laplace_series(alpha: float, lam: float) -> tuple[float, list[float]]:
    """alpha > _ALPHA_LARGE, -log(alpha) < lambda <= -log 2: with
    v = e^-t and e^-kappa = 1 - e^lambda,
    J_m = int_0^inf e^(-(alpha+m) t) (1 - e^-(t+kappa))^-(m+1) dt.
    The pole of the integrand at t = -kappa integrates to exponential
    integrals, kappa^(1-p) e^y E_p(y) with y = (alpha+m) kappa; the rest is
    a power series in t + kappa, integrated term by term as
    L_N = int_0^inf e^(-(alpha+m) t) (t+kappa)^N dt."""
    q = math.exp(lam)
    kappa = -math.log1p(-q)
    ratio = q / kappa  # in (1/(2 log 2), 1]: keeps kappa^(1-p) q^m finite
    g = []
    for m, coef in enumerate(_POLE):
        beta = alpha + m
        y = beta * kappa
        pole = sum(
            coef[m + 1 - p] * q ** (m + 1 - p) * ratio ** (p - 1) * _exp_expn(p, y)
            for p in range(1, m + 2)
        )
        lap = 1.0 / beta  # L_0
        rest = coef[m + 1] * lap
        for n in range(m + 2, _NB):
            big_n = n - m - 1
            lap = (kappa**big_n + big_n * lap) / beta
            term = coef[n] * lap
            rest += term
            if abs(term) + abs(coef[n - 1] * lap) <= _TINY * rest:
                break
        g.append(pole + rest * q**m)
    return _minus_log(alpha, g[0]), g


def _general(alpha: float, lam: float) -> tuple[float, float, float]:
    """(Lambda, Lambda', Lambda''): exact constants at lambda = 0."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam > _LAMBDA_MAX:
        raise ValueError(f"lambda must be <= {_LAMBDA_MAX:.2f}, where e^lambda overflows, got {lam}")
    if lam == 0.0:
        return 0.0, mean_slope(alpha), sigma_sq(alpha)
    large = alpha > _ALPHA_LARGE
    if lam <= (-math.log(alpha) if large else _SERIES_SWITCH):
        lam_val, g = _log_series(alpha, lam)
    elif large and lam <= -_LN2:
        lam_val, g = _laplace_series(alpha, lam)
    elif lam > _LN3:
        lam_val, g = _inverse_series(alpha, lam)
    else:
        lam_val, g = _hyp(alpha, lam)
    return _from_g(lam_val, g)


# ------------------------------------------------------------------ public API


def pressure(ev: PressureEval, lam: float) -> float:
    """Lambda(lambda); exact 0 at lambda = 0."""
    return _general(ev.alpha, lam)[0]


def pressure_derivatives(ev: PressureEval, lam: float) -> tuple[float, float]:
    """(Lambda', Lambda'') from the hypergeometric integrals J1, J2; exact
    constants (alpha/(alpha+1), sigma^2) at lambda = 0."""
    return _general(ev.alpha, lam)[1:]


def ode_residual(ev: PressureEval, lam: float) -> float:
    """e^Lambda - [(1 - e^lambda)/alpha] Lambda' - e^lambda; zero for the
    true pressure."""
    if lam == 0.0:
        raise ValueError("the ODE residual is defined for lambda != 0")
    L, d1, _ = _general(ev.alpha, lam)
    return math.exp(L) - (1.0 - math.exp(lam)) / ev.alpha * d1 - math.exp(lam)


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

    # Safeguarded Newton on the exact Lambda'' from lambda = 0, whose
    # constants cost no evaluation.  Lambda' < x at lo and > x at hi.  A
    # step that would leave them, or follows one that did not halve the
    # residual, or meets Lambda'' <= 0 (it reads 0 far in the upper tail)
    # doubles outward while an end is unknown and bisects once both are
    # known.  Each trial keeps the evaluation that gives Lambda(lambda*).
    lam, lam_val, d1, d2 = 0.0, 0.0, mean_slope(a), sigma_sq(a)
    if abs(d1 - x) < 1e-15:
        return RatePoint(x, 0.0, 0.0)
    lo, hi = -math.inf, math.inf
    best = (math.inf, lam, lam_val)
    r_prev = math.inf
    while True:
        r = d1 - x
        best = min(best, (abs(r), lam, lam_val))
        if r < 0.0:
            if lam >= _LAMBDA_MAX:
                raise ValueError(f"lambda* above {_LAMBDA_MAX:.2f}: x={x} too close to the upper edge")
            lo = lam
        else:
            hi = lam
        # where Lambda' jitters (1e-14 at alpha = 20, lambda = -2.4) the
        # bracket closes to this before the best trial is taken
        tol = 1e-14 + 8.9e-16 * abs(lam)
        step = r / d2 if d2 > 0.0 else math.nan
        converging = abs(r) <= 0.5 * abs(r_prev)
        if r == 0.0 or hi - lo <= tol or (abs(step) <= tol and not converging):
            break
        trial = lam - step if converging else math.nan
        if not lo < trial < hi:
            if hi == math.inf:
                trial = max(2.0 * lo, 1.0)
            elif lo == -math.inf:
                trial = min(2.0 * hi, -1.0)
            else:
                trial = 0.5 * (lo + hi)
        lam, r_prev = min(trial, _LAMBDA_MAX), r
        lam_val, d1, d2 = _general(a, lam)
    _, lam_star, lam_val = best
    return RatePoint(x, lam_star, lam_star * x - lam_val)
