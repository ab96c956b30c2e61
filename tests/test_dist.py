"""Distribution module: pmf recursion, mgfs, tails, exact polynomials,
and real-rootedness certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from treeldp import dist
from treeldp import (
    ExactPoly,
    LinearSlope,
    ModelSpec,
    certify_real_rooted,
    exact_poly,
    log_mgf,
    model_from_name,
    pmf,
    pmf_advance,
    pmf_snapshots,
    pmf_start,
    tail_log_prob,
)

PRESETS = ["uniform", "plane_oriented", "yule", "pa:beta=0", "linear:alpha=3,k0=1"]


def test_pmf_start_is_point_mass():
    p = pmf_start(model_from_name("plane_oriented"))
    assert p.n == 1 and p.k0 == 1
    assert p.probs().tolist() == [1.0]
    assert log_mgf(p, 0.7) == pytest.approx(0.7 * 1, abs=1e-15)


def test_pmf_advance_hand_values():
    uni = model_from_name("uniform")
    p3 = pmf(uni, 3)
    assert np.allclose(p3.probs(), [0.5, 0.5, 0.0], atol=1e-15)
    plane = model_from_name("plane_oriented")
    q3 = pmf(plane, 3)
    assert np.allclose(q3.probs(), [1 / 3, 2 / 3, 0.0], atol=1e-15)


@pytest.mark.parametrize(
    "preset",
    PRESETS
    + [
        "linear:alpha=5/3,k0=1",
        "pa:beta=1/3",
        "pa:beta=2/7",
        "rpa:beta=1/3,gamma=1@0.5+2@0.5,seed=3",
        # numerator past 2**53: the per-element fallback
        "linear:alpha=10000000000000000001/3,k0=1",
    ],
)
def test_float_slopes_are_rounded_exact_slopes(preset):
    # the vectorized slopes, the exact slopes and all three pmf routes
    # must agree to the last bit
    model = model_from_name(preset)
    n = 300
    svals = model.slopes.values_float(n)
    assert [float(model.slopes.value(k)) for k in range(1, n + 1)] == svals.tolist()
    p = pmf_start(model)
    chained = {1: p}
    for _ in range(1, n):
        p = pmf_advance(p, model)
        chained[p.n] = p
    snaps = pmf_snapshots(model, (1, 7, n))
    assert sorted(snaps) == [1, 7, n]
    for k, q in snaps.items():
        assert np.array_equal(q.logp, chained[k].logp)
        assert np.array_equal(pmf(model, k).logp, q.logp)


def test_pmf_snapshots_domain():
    with pytest.raises(ValueError):
        pmf_snapshots(model_from_name("uniform"), ())
    with pytest.raises(ValueError):
        pmf_snapshots(model_from_name("uniform"), (0, 3))


def test_pmf_forced_stay_keeps_point_mass():
    # 1 - k0/s_1 = 0 for the uniform preset, so one step only moves the index
    uni = model_from_name("uniform")
    p2 = pmf_advance(pmf_start(uni), uni)
    assert p2.n == 2
    assert np.allclose(p2.probs(), [1.0, 0.0], atol=0)


# (preset, n, reachable state, slope it exceeds, step); at the second the
# float pmf at n = 12 used to carry total mass 1.001
INADMISSIBLE = [
    ("linear:alpha=0.3,k0=0", 4, 1, Fraction(3, 5), 2),
    ("linear:alpha=7/10,k0=0", 12, 3, Fraction(14, 5), 4),
]


@pytest.mark.parametrize("preset, n, state, slope, step", INADMISSIBLE)
def test_pmf_and_exact_poly_refuse_inadmissible_models(preset, n, state, slope, step):
    model = model_from_name(preset)
    msg = f"state {state} exceeds slope {float(slope)} at step {step}"
    with pytest.raises(ValueError, match=msg):
        pmf(model, n)
    p = pmf_start(model)
    with pytest.raises(ValueError, match=msg):
        for _ in range(1, n):
            p = pmf_advance(p, model)
    with pytest.raises(ValueError, match=f"state {state} exceeds slope {slope} at step {step}"):
        exact_poly(model, n)


def test_pmf_allows_unreachable_states_above_the_slope():
    # s_n = n/2 with Z_2 = 1 and s_2 = 1: the support's top state n - 1
    # exceeds s_n from n = 3 on but is never reached
    model = model_from_name("linear:alpha=1/2,k0=0")
    p = pmf(model, 12)
    assert np.all(np.isneginf(p.logp[7:]))
    assert p.probs().sum() == pytest.approx(1.0, abs=1e-14)
    exact = exact_poly(model, 12)
    assert sum(exact.coeffs) == 1
    assert np.allclose([float(c) for c in exact.coeffs], p.probs(), atol=1e-15)


def test_pmf_yule_small():
    p4 = pmf(model_from_name("yule"), 4)
    assert np.allclose(p4.probs(), [0.0, 2 / 3, 1 / 3, 0.0], atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(preset=st.sampled_from(PRESETS), n=st.integers(min_value=1, max_value=30))
def test_pmf_normalized_contiguous(preset, n):
    p = pmf(model_from_name(preset), n)
    assert abs(logsumexp(p.logp)) <= 1e-12
    assert np.all(p.logp <= 1e-12)
    pos = np.flatnonzero(p.probs() > 0)
    assert np.array_equal(pos, np.arange(pos[0], pos[-1] + 1))


def test_log_mgf_two_atom_oracle():
    p = pmf(model_from_name("uniform"), 3)
    assert log_mgf(p, 1.0) == pytest.approx(math.log((math.e + math.e**2) / 2), abs=1e-12)
    assert log_mgf(p, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_tail_top_atom():
    m = model_from_name("linear:alpha=3,k0=1")
    n = 5
    p = pmf(m, n)
    x_top = (m.k0 + n - 1) / n
    assert tail_log_prob(p, x_top) == pytest.approx(-float(p.logp[-1]) / n, abs=1e-12)


def test_tail_matches_rate_near_one():
    p = pmf(model_from_name("plane_oriented"), 500)
    q = tail_log_prob(p, 499 / 500)
    assert abs(q - math.log(2)) <= 0.02


def test_tail_lower_branch():
    p = pmf(model_from_name("uniform"), 100)
    q = tail_log_prob(p, 0.2)
    sel = p.support <= 20
    assert q == pytest.approx(-float(logsumexp(p.logp[sel])) / 100, abs=1e-12)


def test_tail_domain_checks():
    p = pmf(model_from_name("uniform"), 10)
    with pytest.raises(ValueError):
        tail_log_prob(p, 0.0)
    with pytest.raises(ValueError):
        tail_log_prob(p, 1.2)
    assert tail_log_prob(p, 1.0) == math.inf  # the top atom has probability 0


def test_exact_poly_oracles():
    lin = exact_poly(model_from_name("linear:alpha=3,k0=1"), 2)
    assert lin.coeffs == (Fraction(0), Fraction(1, 3), Fraction(2, 3))
    # trailing zeros are kept: the vector always has length n + k0
    plane = exact_poly(model_from_name("plane_oriented"), 2)
    assert plane.coeffs == (Fraction(0), Fraction(1), Fraction(0))
    assert plane.degree() == 1
    uni = exact_poly(model_from_name("uniform"), 3)
    assert uni.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))


@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from(PRESETS), n=st.integers(min_value=1, max_value=15))
def test_exact_poly_is_probability_vector(preset, n):
    poly = exact_poly(model_from_name(preset), n)
    assert all(c >= 0 for c in poly.coeffs)
    assert sum(poly.coeffs) == 1
    assert poly.degree() <= n + poly.k0 - 1


def test_exact_poly_full_degree_when_strict():
    m = model_from_name("linear:alpha=3,k0=1")
    for n in range(2, 11):
        assert exact_poly(m, n).degree() == n + m.k0 - 1


def test_exact_poly_matches_float_pmf():
    m = model_from_name("yule")
    n = 12
    poly = exact_poly(m, n)
    p = pmf(m, n)
    dense = np.array([float(c) for c in poly.coeffs[m.k0 : m.k0 + n]])
    assert np.allclose(dense, p.probs(), atol=1e-13)


def test_exact_poly_guards():
    with pytest.raises(ValueError):
        exact_poly(model_from_name("uniform"), 41)
    irr = ModelSpec(LinearSlope(0.7), 0)
    with pytest.raises(ValueError):
        exact_poly(irr, 3)


def test_certificate_simple_factorization():
    rep = certify_real_rooted(exact_poly(model_from_name("linear:alpha=3,k0=1"), 2))
    assert rep.certified
    assert rep.zero_root_multiplicity == 1
    assert rep.cofactor_degree == 1
    assert rep.distinct_negative_roots == 1
    assert rep.all_negative_simple


def test_certificate_rejects_complex_roots():
    bad = ExactPoly(3, 0, (Fraction(1), Fraction(0), Fraction(1)))  # u^2 + 1
    rep = certify_real_rooted(bad)
    assert not rep.certified


def _fraction_exact_poly(model, n_max):
    """Reference for exact_poly: the plain Fraction recursion
    P_{n+1}(k) = P_n(k) k/s_n + P_n(k-1) (1 - (k-1)/s_n), yielding every n."""
    coeffs = [Fraction(0)] * model.k0 + [Fraction(1)]
    yield tuple(coeffs)
    for m in range(1, n_max):
        s = model.slopes.value(m)
        cur = coeffs + [Fraction(0)]
        coeffs = [Fraction(0)] + [
            cur[k] * Fraction(k) / s + cur[k - 1] * (1 - Fraction(k - 1) / s)
            for k in range(1, len(cur))
        ]
        yield tuple(coeffs)


@pytest.mark.parametrize(
    "preset",
    sorted(
        set(PRESETS)
        | {"pa:beta=1", "pa:beta=1/3", "rpa:beta=1/3,gamma=1@0.5+2@0.5,seed=3"}
    ),
)
def test_exact_poly_matches_fraction_recursion(preset):
    model = model_from_name(preset)
    for n, want in enumerate(_fraction_exact_poly(model, 40), start=1):
        got = exact_poly(model, n).coeffs
        assert got == want
        assert all(type(c) is Fraction for c in got)


def _u_poly(*coeffs):
    """ExactPoly with the given ascending coefficients."""
    return ExactPoly(len(coeffs), 0, tuple(Fraction(c) for c in coeffs))


REFUSED = "cofactor has complex, positive, or repeated roots"


@pytest.mark.parametrize(
    "poly, fields",
    [
        # (u+1)^2 (u+2): two distinct negative roots, one repeated
        (_u_poly(2, 5, 4, 1), (False, 0, 3, 2, False, False, REFUSED)),
        # (u-1)(u+2): one negative root, one positive
        (_u_poly(-2, 1, 1), (False, 0, 2, 1, False, False, REFUSED)),
        # u(u^2+1): a zero root and a complex pair
        (_u_poly(0, 1, 0, 1), (False, 1, 2, 0, False, False, REFUSED)),
        # u(u+1)(u+2)/6 with plain int coefficients, scaled by 6
        (ExactPoly(4, 0, (0, 2, 3, 1)), (True, 1, 2, 2, True, False, "")),
        # (u+1/2)(u+1/3) u^2: distinct denominators
        (_u_poly(0, 0, Fraction(1, 6), Fraction(5, 6), 1), (True, 2, 2, 2, True, False, "")),
    ],
)
def test_certificate_report_fields(poly, fields):
    rep = certify_real_rooted(poly)
    assert (
        rep.certified,
        rep.zero_root_multiplicity,
        rep.cofactor_degree,
        rep.distinct_negative_roots,
        rep.all_negative_simple,
        rep.monomial,
        rep.note,
    ) == fields


def test_certificate_rejects_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        certify_real_rooted(ExactPoly(3, 0, (0, Fraction(0), 0)))


def test_certificate_monomial_case():
    rep = certify_real_rooted(exact_poly(model_from_name("plane_oriented"), 2))
    assert rep.certified and rep.monomial


def test_certificate_plane_n10():
    rep = certify_real_rooted(exact_poly(model_from_name("plane_oriented"), 10))
    assert rep.certified
    assert rep.distinct_negative_roots == rep.cofactor_degree


def _step_reference(logp, k0, s):
    """The pmf step as it was before log k was hoisted: every array fresh."""
    n = len(logp)
    ka = np.arange(k0, k0 + n, dtype=float)
    with np.errstate(divide="ignore"):
        log_stay = np.where(ka > 0, np.log(np.maximum(ka, 1e-300)) - math.log(s), -np.inf)
        ratio = np.clip(ka / s, 0.0, 1.0)
        log_up = np.log1p(-ratio)
        log_up[ratio >= 1.0] = -np.inf
        if k0 == 0:
            log_up[0] = 0.0
    new = np.full(n + 1, -np.inf)
    new[:n] = logp + log_stay
    new[1:] = np.logaddexp(new[1:], logp + log_up)
    return new


@pytest.mark.parametrize(
    "preset",
    PRESETS + ["pa:beta=1", "pa:beta=-1/2", "linear:alpha=2,k0=0", "rpa:beta=0,gamma=1@0.5+2@0.5,seed=3"],
)
def test_pmf_is_bit_identical_to_the_fresh_array_step(preset):
    model = model_from_name(preset)
    ns = (1, 2, 3, 17, 300, 1200)
    snaps = pmf_snapshots(model, ns)
    svals = model.slopes.values_float(max(ns))
    logp = np.zeros(1)
    p = pmf_start(model)
    for n in range(1, max(ns) + 1):
        if n in snaps:
            assert np.array_equal(snaps[n].logp, logp)
        if n <= 300:
            assert np.array_equal(p.logp, logp)
            p = pmf_advance(p, model)
        logp = _step_reference(logp, model.k0, svals[n - 1])


def _cofactor(poly):
    """(zero-root multiplicity, integer cofactor) of p_n, ascending."""
    fracs = [Fraction(c) for c in poly.coeffs]
    scale = math.lcm(*(c.denominator for c in fracs))
    coeffs = [c.numerator * (scale // c.denominator) for c in fracs]
    while coeffs[-1] == 0:
        coeffs.pop()
    mult = next(k for k, c in enumerate(coeffs) if c)
    return mult, coeffs[mult:]


def _sturm_report(poly):
    """certify_real_rooted as it was before the alternation fast path:
    every cofactor goes through the Sturm count."""
    mult, coeffs = _cofactor(poly)
    if len(coeffs) == 1:
        return dist.RootReport(True, mult, 0, 0, True, True, "monomial: all mass at one state (stationary prefix)")
    neg, squarefree = dist._negative_roots(coeffs)
    ok = squarefree and neg == len(coeffs) - 1
    return dist.RootReport(ok, mult, len(coeffs) - 1, neg, ok, False, "" if ok else REFUSED)


@pytest.mark.parametrize("preset", ["uniform", "plane_oriented", "yule", "pa:beta=0", "pa:beta=1"])
def test_certificate_alternation_matches_sturm_on_presets(preset):
    model = model_from_name(preset)
    for n in range(1, 41):
        poly = exact_poly(model, n)
        assert certify_real_rooted(poly) == _sturm_report(poly)
        cof = _cofactor(poly)[1]
        # every preset cofactor is certified by alternation alone
        assert len(cof) == 1 or dist._alternates(cof)


def _poly_from_roots(roots, quadratics=()):
    """Ascending integer coefficients of prod (u - r) * prod (u^2 + a u + b)."""
    coeffs = [1]
    for f in [(-r, 1) for r in roots] + [(b, a, 1) for a, b in quadratics]:
        out = [0] * (len(coeffs) + len(f) - 1)
        for i, c in enumerate(coeffs):
            for j, g in enumerate(f):
                out[i + j] += c * g
        coeffs = out
    return coeffs


def test_certificate_alternation_matches_sturm_on_random_polynomials():
    rng = np.random.default_rng(11)
    polys = []
    for _ in range(150):
        d = int(rng.integers(1, 12))
        roots = [-int(r) for r in rng.integers(1, 40, d)]  # negative, maybe repeated
        kind = rng.integers(0, 4)
        if kind == 1:
            roots[0] = int(rng.integers(1, 9))  # one positive root
        quads = [(int(rng.integers(-3, 4)), int(rng.integers(5, 30)))] if kind == 2 else []
        if kind == 3:
            roots = list(dict.fromkeys(roots))  # distinct negative roots
        polys.append(_poly_from_roots(roots, quads))
    polys += [[int(c) for c in rng.integers(-50, 50, int(rng.integers(2, 10)))] for _ in range(150)]
    # coefficients beyond double range: the float estimates overflow
    polys.append(_poly_from_roots([-(10**400), -1, -2]))
    polys.append(_poly_from_roots([-(10**400), -1], [(0, 1)]))
    certified = 0
    for coeffs in polys:
        if not any(coeffs) or coeffs[-1] == 0:
            continue
        poly = ExactPoly(len(coeffs), 0, tuple(Fraction(c) for c in coeffs))
        rep = certify_real_rooted(poly)
        assert rep == _sturm_report(poly), coeffs
        certified += rep.certified
    assert certified > 30
