"""Exact distribution of Z_n: log-space pmf recursion, the rational
polynomial p_n(u) whose coefficients are the pmf, log-mgfs, tail
probabilities, and real-rootedness certification.

The float pmf steps take their slopes from chain._reachable; exact_poly,
the reference, keeps its own integer check, as the float one is exact
only up to rounding.

The exact path is integer arithmetic throughout: `exact_poly` steps
integer numerators over one common denominator and builds its Fractions
once at the end, and `certify_real_rooted` scales the coefficients to
integers once.  A cofactor of degree d whose exact signs strictly
alternate at d + 1 increasing rationals in [-B, 0] (B its Cauchy bound,
the others geometric midpoints of floating root estimates) has d
distinct negative roots; when the estimates do not give such
separators, negative roots are counted with a Sturm sequence of
primitive pseudo-remainders (Collins, J. ACM 1967).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

from .chain import ModelSpec, _reachable

__all__ = [
    "Pmf",
    "ExactPoly",
    "RootReport",
    "pmf_start",
    "pmf_advance",
    "pmf_snapshots",
    "pmf",
    "log_mgf",
    "pmf_mean",
    "exact_poly",
    "certify_real_rooted",
    "tail_log_prob",
    "N_EXACT_DEFAULT",
]

N_EXACT_DEFAULT = 40


@dataclass(frozen=True)
class Pmf:
    """log P(Z_n = k) for k = k0..k0+n-1; -inf marks unreachable states."""

    n: int
    k0: int
    logp: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.logp, dtype=float)
        object.__setattr__(self, "logp", arr)
        if len(arr) != self.n:
            raise ValueError("logp must have length n")

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.k0, self.k0 + self.n)

    def probs(self) -> np.ndarray:
        return np.exp(self.logp)


@dataclass(frozen=True)
class ExactPoly:
    """p_n(u) = sum_k P(Z_n = k) u^k with exact rational coefficients."""

    n: int
    k0: int
    coeffs: tuple[Fraction, ...]  # ascending, coefficient of u^k at index k

    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d


def pmf_start(model: ModelSpec) -> Pmf:
    """Point mass at k0 (n = 1)."""
    return Pmf(1, model.k0, np.zeros(1))


def _states(k0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """States k0..k0+n-1 as floats, and their logs (log 0 = -inf)."""
    ka = np.arange(k0, k0 + n, dtype=float)
    with np.errstate(divide="ignore"):
        return ka, np.log(ka)


def _step(logp: np.ndarray, s: float, ka: np.ndarray, logk: np.ndarray) -> np.ndarray:
    """One step of P_{n+1}(k) = P_n(k) k/s_n + P_n(k-1) (1-(k-1)/s_n),
    carried out in log space; logp holds log P_n over k0..k0+n-1, and
    ka, logk hold (at least) those states and their logs.  s comes
    through chain._reachable: no reachable state lies above it, and a
    zero slope reads +inf, so the zero state moves up surely."""
    n = len(logp)
    new = np.empty(n + 1)
    stay = new[:n]
    np.subtract(logk[:n], math.log(s), out=stay)
    np.add(logp, stay, out=stay)
    new[n] = -np.inf
    up = np.divide(ka[:n], s)
    np.clip(up, 0.0, 1.0, out=up)
    np.negative(up, out=up)
    with np.errstate(divide="ignore"):
        np.log1p(up, out=up)  # -inf where k >= s_n
    np.add(logp, up, out=up)
    np.logaddexp(new[1:], up, out=new[1:])
    return new


def pmf_advance(p: Pmf, model: ModelSpec) -> Pmf:
    """The pmf of Z_{n+1} from that of Z_n."""
    s = float(model.slopes.value(p.n))
    if p.k0 + p.n - 1 > s or s == 0:
        # otherwise every state is at or below s > 0: the check would pass s as it is
        top = p.k0 + int(np.flatnonzero(np.isfinite(p.logp))[-1])
        s = float(_reachable(top, np.array([s]), p.n)[0])
    return Pmf(p.n + 1, p.k0, _step(p.logp, s, *_states(p.k0, p.n)))


def pmf_snapshots(model: ModelSpec, ns) -> dict[int, Pmf]:
    """Exact pmfs of Z_n for every n in `ns`, from one pass of the
    recursion up to max(ns)."""
    wanted = set(ns)
    if not wanted or min(wanted) < 1:
        raise ValueError("n must be >= 1")
    n_max = max(wanted)
    svals = _reachable(model.k0, model.slopes.values_float(max(n_max - 1, 1)))
    ka, logk = _states(model.k0, n_max)
    p = pmf_start(model)
    logp = p.logp
    out = {1: p} if 1 in wanted else {}
    for m in range(1, n_max):
        logp = _step(logp, svals[m - 1], ka, logk)
        if m + 1 in wanted:
            out[m + 1] = Pmf(m + 1, model.k0, logp)
    return out


def pmf(model: ModelSpec, n: int) -> Pmf:
    """Exact pmf of Z_n by iterating the one-step recursion."""
    return pmf_snapshots(model, (n,))[n]


def log_mgf(p: Pmf, lam: float) -> float:
    """log m_n(lambda) = log E[exp(lambda Z_n)]."""
    return float(logsumexp(p.logp + p.support * lam))


def pmf_mean(p: Pmf) -> float:
    w = p.probs()
    return float(np.dot(w, p.support))


def tail_log_prob(p: Pmf, x: float) -> float:
    """(-1/n) log of the tail away from the mean: P(Z_n >= ceil(xn)) when
    x exceeds the mean of Z_n/n, else P(Z_n <= floor(xn)).  Returns +inf
    for empty or zero-probability events."""
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    n = p.n
    mean = pmf_mean(p) / n
    # snap float noise: 0.85*500 is 425.00000000000006 in doubles, and a
    # bare ceil would silently shift the cutoff to 426
    if x > mean:
        k = math.ceil(x * n - 1e-9)
        sel = p.support >= k
    else:
        k = math.floor(x * n + 1e-9)
        sel = p.support <= k
    if not np.any(sel):
        return math.inf
    val = logsumexp(p.logp[sel])
    if val == -np.inf:
        return math.inf
    return -float(val) / n


def exact_poly(model: ModelSpec, n: int) -> ExactPoly:
    """Exact rational coefficients of p_n(u) via
    p_{n+1} = u(1-u) p_n'/s_n + u p_n; requires rational slopes and
    raises ValueError on a reachable state above s_n.  The recursion runs
    on integer numerators over one common denominator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > N_EXACT_DEFAULT:
        raise ValueError(f"n={n} exceeds the exact-arithmetic cap {N_EXACT_DEFAULT}")
    if not model.slopes.is_rational:
        raise ValueError("exact_poly needs rational slope values")
    k0 = model.k0
    num = [0] * k0 + [1]
    den = 1
    for m in range(1, n):
        s = model.slopes.value(m)
        p, q = s.numerator, s.denominator
        if (len(num) - 1) * q > p:
            over = [k for k, c in enumerate(num) if c and k * q > p]
            if over:
                raise ValueError(f"state {over[-1]} exceeds slope {s} at step {m}")
        if p == 0:
            num = [0] + num  # all mass is at Z = s = 0, which moves up surely
            continue
        cur = num + [0]
        # with s = p/q: P_{n+1}(k) = [P_n(k) k q + P_n(k-1) (p - (k-1) q)] / p
        num = [0] + [cur[k] * k * q + cur[k - 1] * (p - (k - 1) * q) for k in range(1, len(cur))]
        den *= p
    return ExactPoly(n, k0, tuple(Fraction(c, den) for c in num))


@dataclass(frozen=True)
class RootReport:
    certified: bool
    zero_root_multiplicity: int
    cofactor_degree: int
    distinct_negative_roots: int
    all_negative_simple: bool
    monomial: bool
    note: str = ""


def _primitive(p: list[int]) -> list[int]:
    """p over the gcd of its coefficients: a positive multiple, so every
    sign a Sturm count reads is kept while coefficients stay small."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^j (a mod b) for some j >= 0, in integer arithmetic."""
    mag, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    a = list(a)
    while len(a) >= len(b):
        f, shift = sign * a[-1], len(a) - len(b)
        a = [mag * c for c in a[:shift]] + [mag * c - f * bc for c, bc in zip(a[shift:], b)]
        while a and a[-1] == 0:
            a.pop()
    return a


def _sign_changes(vals: list[int]) -> int:
    signs = [v > 0 for v in vals if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _negative_roots(p: list[int]) -> tuple[int, bool]:
    """(distinct roots in (-inf, 0), squarefree?) of an integer polynomial
    with p(0) != 0 and degree >= 1, from a Sturm sequence of primitive
    pseudo-remainders."""
    chain = [_primitive(p), _primitive([k * c for k, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break  # nonconstant gcd: p has a repeated root
        chain.append(_primitive([-c for c in rem]))
    at_neg_inf = [q[-1] * (-1) ** (len(q) - 1) for q in chain]
    at_zero = [q[0] for q in chain]
    return _sign_changes(at_neg_inf) - _sign_changes(at_zero), len(chain[-1]) == 1


def _sign_at(p: list[int], x: Fraction) -> int:
    """Sign of p(x), exactly: homogenized integer Horner for
    sum_k p_k a^k b^(d-k) with x = a/b, b > 0."""
    a, b = x.numerator, x.denominator
    acc, bpow = p[-1], b
    for c in reversed(p[:-1]):
        acc = acc * a + c * bpow
        bpow *= b
    return (acc > 0) - (acc < 0)


def _alternates(p: list[int]) -> bool:
    """True only if p (integer, p(0) != 0, degree d >= 1) has d distinct
    negative roots, shown by strictly alternating exact signs at d + 1
    increasing rationals -B < x_1 < ... < 0: one root per gap.  The
    separators are the geometric midpoints of floating root estimates,
    so False proves nothing: estimates that are not real, negative and
    distinct, or that do not separate, leave the question to Sturm."""
    try:
        est = np.roots(np.array(p[::-1], dtype=float))
    except OverflowError:
        return False
    if np.any(est.imag):
        return False
    mags = np.sort(-est.real)
    if not (np.all(np.isfinite(mags)) and mags[0] > 0.0 and np.all(np.diff(mags) > 0.0)):
        return False
    mids = np.sqrt(mags[:-1]) * np.sqrt(mags[1:])
    cauchy = 1 + -(-max(abs(c) for c in p[:-1]) // abs(p[-1]))
    seps = [Fraction(-cauchy)] + [-Fraction(m) for m in mids[::-1].tolist()] + [Fraction(0)]
    if any(lo >= hi for lo, hi in zip(seps, seps[1:])):
        return False
    signs = [_sign_at(p, x) for x in seps]
    return all(s != 0 and s == -t for s, t in zip(signs, signs[1:]))


def certify_real_rooted(poly: ExactPoly) -> RootReport:
    """True iff every root of p_n is real and <= 0, proven exactly: after
    stripping the u^m factor, the cofactor must have as many distinct
    negative roots as its degree (hence all real, simple, negative).
    Strict sign alternation at separating rationals shows that at once;
    otherwise a Sturm count decides.  Monomial p_n (stationary prefixes,
    k0 = 0 starts) are reported as their own case."""
    fracs = [Fraction(c) for c in poly.coeffs]
    scale = math.lcm(*(c.denominator for c in fracs))
    coeffs = [c.numerator * (scale // c.denominator) for c in fracs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    mult = next(k for k, c in enumerate(coeffs) if c)
    coeffs = coeffs[mult:]
    cof_deg = len(coeffs) - 1
    if cof_deg == 0:
        neg, ok, note = 0, True, "monomial: all mass at one state (stationary prefix)"
    else:
        neg, squarefree = (cof_deg, True) if _alternates(coeffs) else _negative_roots(coeffs)
        ok = squarefree and neg == cof_deg
        note = "" if ok else "cofactor has complex, positive, or repeated roots"
    return RootReport(
        certified=ok,
        zero_root_multiplicity=mult,
        cofactor_degree=cof_deg,
        distinct_negative_roots=neg,
        all_negative_simple=ok,
        monomial=cof_deg == 0,
        note=note,
    )
