"""The three workloads of the treeldp benchmark and the checks on their answers.

A workload is a generator of `Op`s, one per public call into treeldp.  The
harness (run.py) times each `Op.fn()`, sends the result back into the
generator (so a later call can consume an earlier answer, as the pmf
recursion does), and evaluates `Op.check` with the clock stopped.

The checks are law-based rather than byte-based, so they keep holding when a
grower changes how it draws random numbers: states stay in `0 <= Z <= s_n`,
replicate means sit within `Z_GATE` exact standard errors of the chain
mean, pmfs conserve mass, paths cost what the Legendre rate says, and every
certificate and verify check passes.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterator

import numpy as np
from scipy.special import logsumexp

from treeldp import chain, dist, path, trees, verify

# `treeldp.pressure` is shadowed by the re-exported function of that name
pressure = importlib.import_module("treeldp.pressure")

Z_GATE = 6.0  # exact standard errors a replicate mean may sit from the chain mean
MASS_TOL = 1e-9  # |log total mass| allowed for a pmf
MEAN_RTOL = 1e-8  # relative error allowed for a pmf mean against the moment recursion
LEGENDRE_TOL = 1e-9  # |Lambda'(lambda*) - x| allowed for a rate point
ODE_TOL = 1e-6  # criterion 2's bound on the pressure ODE residual
PATH_TOL = 1e-3  # criterion 6's bound on |path cost - rate|

RATE_ALPHAS = (1.25, 1.5, 3.0)  # all evaluated by quadrature
RATE_X_RANGE = (0.05, 0.95)  # lambda* stays well inside the quadrature's safe range
LAMBDA_GRID = tuple(i / 10 for i in range(-50, 51))
TAIL_X = tuple(i / 10 for i in range(1, 10))
PATH_TARGETS = ((2.0, 0.13), (2.0, 0.5), (2.0, 0.85), (1.5, 0.5), (3.0, 0.5))
EXACT_PRESETS = ("uniform", "plane_oriented", "yule", "pa:beta=0", "pa:beta=1")
GAMMA_PMF = ((1, 2), (0.5, 0.5))
RPA = "rpa:beta=0,gamma=1@0.5+2@0.5,seed={seed}"

# Full and toy sizes.  The toy sizes only exercise the plumbing (self-test).
# The criteria fix their own inputs, so a toy verify_suite runs the two fast ones.
TOY_CRITERIA = (1, 2)
SIZES = {
    False: dict(
        stirling=(2000, 20), pa1=(2000, 50), buds=(1000, 100), big=(100_000, 20),
        sim=(10_000, 2000), single=2000, pmf=8000, advance=2000, rate_points=200,
        lambda_step=1, path_targets=len(PATH_TARGETS), exact_n=40,
    ),
    True: dict(
        stirling=(50, 10), pa1=(50, 10), buds=(50, 10), big=(500, 10),
        sim=(100, 100), single=50, pmf=100, advance=50, rate_points=4,
        lambda_step=10, path_targets=1, exact_n=8,
    ),
}


@dataclass(frozen=True)
class Op:
    """One timed public call: `fn()` is timed, `check(result)` is not and
    returns None for a correct answer or a one-line reason otherwise."""

    layer: str
    fn: Callable[[], object]
    work: int
    check: Callable[[object], str | None]


# --------------------------------------------------------------- exact laws


@lru_cache(maxsize=None)
def chain_law(preset: str, n: int) -> tuple[float, float, float]:
    """(E Z_n, Var Z_n, s_n) of the chain by the exact moment recursion
    E Z' = 1 + E Z (1 - 1/s) and E Z'^2 = E Z^2 (1 - 2/s) + E Z (2 - 1/s) + 1."""
    model = chain.model_from_name(preset)
    svals = model.slopes.values_float(n)
    m1 = float(model.k0)
    m2 = m1 * m1
    for s in svals[: n - 1].tolist():
        m1, m2 = 1.0 + m1 * (1.0 - 1.0 / s), m2 * (1.0 - 2.0 / s) + m1 * (2.0 - 1.0 / s) + 1.0
    return m1, max(m2 - m1 * m1, 0.0), float(svals[n - 1])


def law_check(preset: str, n: int, reps: int):
    """Check that `reps` samples of Z_n lie in [0, s_n] and that their mean
    is within Z_GATE exact standard errors of E Z_n."""

    def check(result) -> str | None:
        if isinstance(result, trees.GrowthResult):
            result = [result.statistic]
        z = np.asarray(result)
        if z.shape != (reps,):
            return f"shape {z.shape}, expected ({reps},)"
        mean, var, s_n = chain_law(preset, n)
        if z.min() < 0 or z.max() > s_n:
            return f"state outside [0, s_n={s_n:g}]: min {z.min()}, max {z.max()}"
        dev = abs(float(z.mean()) - mean) / math.sqrt(max(var, 1e-300) / reps)
        if dev > Z_GATE:
            return f"mean {z.mean():.4f} is {dev:.1f} standard errors from E Z_{n} = {mean:.4f}"
        return None

    return check


def pmf_check(preset: str, n: int, with_mean: bool = True):
    """Check a Pmf of Z_n: right length, total mass 1, and (with_mean) the
    exact chain mean."""

    def check(p) -> str | None:
        if p.n != n:
            return f"pmf has n={p.n}, expected {n}"
        drift = abs(float(logsumexp(p.logp)))
        if not drift <= MASS_TOL:
            return f"mass drift |log sum p| = {drift:.3g}"
        if with_mean:
            mean = chain_law(preset, n)[0]
            err = abs(dist.pmf_mean(p) - mean)
            if not err <= MEAN_RTOL * max(1.0, mean):
                return f"pmf mean off the exact chain mean {mean:.6f} by {err:.3g}"
        return None

    return check


def tail_check(p, x: float, lam: float):
    """The tail rate -(1/n) log P(tail) must be at least the finite-n
    Chernoff bound (lam x n - log E e^{lam Z_n}) / n, for lam signed like the tail."""
    upper = x > dist.pmf_mean(p) / p.n
    if (lam > 0) != upper:
        lam = 0.0
    bound = (lam * x * p.n - abs(lam) * 1e-9 - dist.log_mgf(p, lam)) / p.n

    def check(val) -> str | None:
        if not math.isfinite(val):
            return f"tail rate {val} at x={x}"
        if val < bound - 1e-9:
            return f"tail rate {val:.6g} below the Chernoff bound {bound:.6g} at x={x}"
        return None

    return check


def rate_check(ev, x: float):
    def check(r) -> str | None:
        if not (math.isfinite(r.rate) and r.rate >= 0.0):
            return f"rate {r.rate} at x={x}"
        gap = abs(pressure.pressure_derivatives(ev, r.lambda_star)[0] - x)
        if not gap <= LEGENDRE_TOL:
            return f"|Lambda'(lambda*) - x| = {gap:.3g} at x={x}"
        return None

    return check


def derivatives_check(ev, lam: float):
    def check(d) -> str | None:
        d1, d2 = d
        if not (0.0 < d1 < 1.0 and d2 > 0.0):
            return f"Lambda'={d1}, Lambda''={d2} at lambda={lam}"
        if lam != 0.0:
            res = abs(pressure.ode_residual(ev, lam))
            if not res <= ODE_TOL:
                return f"ODE residual {res:.3g} at lambda={lam}"
        return None

    return check


def close_check(target: float, get=lambda v: v):
    def check(v) -> str | None:
        err = abs(get(v) - target)
        return None if err <= PATH_TOL else f"|{get(v):.8f} - rate {target:.8f}| = {err:.3g}"

    return check


def poly_check(p) -> str | None:
    if any(c < 0 for c in p.coeffs) or sum(p.coeffs, Fraction(0)) != 1:
        return "coefficients are not a probability vector"
    return None


def certified(report) -> str | None:
    return None if report.certified else report.note


def all_passed(results) -> str | None:
    bad = [r.name for r in results if not r.passed]
    return f"failed checks: {bad}" if bad else None


# ----------------------------------------------------------------- workloads


def verify_suite(seed: int, toy: bool) -> Iterator[Op]:
    """The eight acceptance criteria, one call each, at the seed."""
    for idx in TOY_CRITERIA if toy else sorted(verify.CRITERIA):
        yield Op(f"verify.c{idx}", partial(verify.CRITERIA[idx], seed=seed), 0, all_passed)


def grow_large(seed: int, toy: bool) -> Iterator[Op]:
    """Endpoint-only growers at sizes where the cost per step matters."""
    sz = SIZES[toy]
    n, reps = sz["stirling"]
    # a Stirling permutation with k labels follows the plane-oriented chain at step k + 1
    yield Op("trees.batch_stirling_plateaux",
             partial(trees.batch_stirling_plateaux, n, reps, seed),
             reps * n, law_check("plane_oriented", n + 1, reps))
    n, reps = sz["pa1"]
    yield Op("trees.batch_pa_leaves.beta1", partial(trees.batch_pa_leaves, 1.0, n, reps, seed),
             reps * n, law_check("pa:beta=1", n, reps))
    n, reps = sz["buds"]
    yield Op("trees.batch_pa_buds", partial(trees.batch_pa_buds, 0.0, GAMMA_PMF, n, reps, seed),
             reps * n, law_check(RPA.format(seed=seed), n, reps))
    n, reps = sz["big"]
    for kind, preset in (("plane", "plane_oriented"), ("uniform", "uniform")):
        yield Op(f"trees.batch_recursive_leaves.{kind}",
                 partial(trees.batch_recursive_leaves, preset, n, reps, seed),
                 reps * n, law_check(preset, n, reps))
    yield Op("trees.batch_yule_cherries", partial(trees.batch_yule_cherries, n, reps, seed),
             reps * n, law_check("yule", n, reps))
    yield Op("trees.batch_pa_leaves.beta0", partial(trees.batch_pa_leaves, 0.0, n, reps, seed),
             reps * n, law_check("pa:beta=0", n, reps))
    n, reps = sz["sim"]
    yield Op("chain.simulate_endpoints",
             partial(chain.simulate_endpoints, chain.model_from_name("plane_oriented"), n, reps, seed),
             reps * n, law_check("plane_oriented", n, reps))
    n = sz["single"]
    yield Op("trees.grow_stirling", partial(trees.grow_stirling, n, seed), n,
             law_check("plane_oriented", n + 1, 1))
    yield Op("trees.grow_pa_graph", partial(trees.grow_pa_graph, 1.0, n, seed), n,
             law_check("pa:beta=1", n, 1))
    yield Op("trees.grow_yule", partial(trees.grow_yule, n, seed), n, law_check("yule", n, 1))
    yield Op("trees.grow_recursive", partial(trees.grow_recursive, "plane_oriented", n, seed), n,
             law_check("plane_oriented", n, 1))


def analytic(seed: int, toy: bool) -> Iterator[Op]:
    """Exact laws, pressure, rates, paths and certificates; no simulation."""
    sz = SIZES[toy]
    rng = np.random.default_rng(seed)

    n = sz["pmf"]
    plane = chain.model_from_name("plane_oriented")
    p_plane = yield Op("dist.pmf", partial(dist.pmf, plane, n), n * (n - 1) // 2,
                       pmf_check("plane_oriented", n))

    # a fresh model each pass, so every pass grows the quenched slope cache from empty
    rpa_name = RPA.format(seed=seed)
    rpa = chain.model_from_name(rpa_name)
    p = dist.pmf_start(rpa)
    for _ in range(sz["advance"] - 1):
        p = yield Op("dist.pmf_advance", partial(dist.pmf_advance, p, rpa), p.n,
                     pmf_check(rpa_name, p.n + 1, with_mean=False))

    for q, alpha in ((p_plane, plane.alpha), (p, rpa.alpha)):
        ev = pressure.PressureEval(alpha)
        for x in TAIL_X:
            lam = pressure.rate(ev, x).lambda_star
            yield Op("dist.tail_log_prob", partial(dist.tail_log_prob, q, x), q.n,
                     tail_check(q, x, lam))

    # stratified, jittered x-grids: seed-dependent points at a steady cost
    k = sz["rate_points"]
    lo, hi = RATE_X_RANGE
    for alpha in RATE_ALPHAS:
        ev = pressure.PressureEval(alpha)
        xs = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
        for x in xs.tolist():
            yield Op("pressure.rate", partial(pressure.rate, ev, x), 1, rate_check(ev, x))
    for alpha in RATE_ALPHAS:
        ev = pressure.PressureEval(alpha)
        for lam in LAMBDA_GRID[:: sz["lambda_step"]]:
            yield Op("pressure.pressure_derivatives", partial(pressure.pressure_derivatives, ev, lam),
                     1, derivatives_check(ev, lam))

    for alpha, x in PATH_TARGETS[: sz["path_targets"]]:
        target = pressure.rate(pressure.PressureEval(alpha), x).rate
        sol = yield Op("path.euler_solve", partial(path.euler_solve, alpha, x), 1,
                       close_check(target, lambda s: s.cost))
        yield Op("path.path_rate", partial(path.path_rate, sol.path, alpha), 1, close_check(target))

    n = sz["exact_n"]
    for preset in EXACT_PRESETS:
        model = chain.model_from_name(preset)
        poly = yield Op("dist.exact_poly", partial(dist.exact_poly, model, n), model.k0 + n - 1,
                        poly_check)
        yield Op("dist.certify_real_rooted", partial(dist.certify_real_rooted, poly), poly.degree(),
                 certified)


WORKLOADS = {"verify_suite": verify_suite, "grow_large": grow_large, "analytic": analytic}

# Workloads whose traced runs include a tracemalloc pass.  tracemalloc slows
# these calls about five-fold; on verify_suite that would take a traced run
# past three minutes, so its criteria get self times only.
TRACE_MEMORY = {"grow_large", "analytic"}

LAYERS = {
    "verify_suite": tuple(f"verify.c{i}" for i in sorted(verify.CRITERIA)),
    "grow_large": (
        "trees.batch_stirling_plateaux",
        "trees.batch_pa_leaves.beta1",
        "trees.batch_pa_buds",
        "trees.batch_recursive_leaves.plane",
        "trees.batch_recursive_leaves.uniform",
        "trees.batch_yule_cherries",
        "trees.batch_pa_leaves.beta0",
        "chain.simulate_endpoints",
        "trees.grow_stirling",
        "trees.grow_pa_graph",
        "trees.grow_yule",
        "trees.grow_recursive",
    ),
    "analytic": (
        "dist.pmf",
        "dist.pmf_advance",
        "dist.tail_log_prob",
        "pressure.rate",
        "pressure.pressure_derivatives",
        "path.euler_solve",
        "path.path_rate",
        "dist.exact_poly",
        "dist.certify_real_rooted",
    ),
}


def known_wrong(seed: int, toy: bool) -> Iterator[Op]:
    """Self-test fixture: an inadmissible chain whose pmf at n = 12 has total
    mass 2.12.  The pmf check must count it as failed, and so must a
    treeldp that refuses the model by raising."""
    n = 12
    yield Op("dist.pmf",
             lambda: dist.pmf(chain.model_from_name("linear:alpha=0.3,k0=0"), n),
             n * (n - 1) // 2, pmf_check("linear:alpha=0.3,k0=0", n, with_mean=False))


def warm_up() -> None:
    """One tiny call per module, so lazy imports and first-call costs land in set-up."""
    plane = chain.model_from_name("plane_oriented")
    chain.simulate_endpoints(plane, 5, 2)
    dist.certify_real_rooted(dist.exact_poly(plane, 4))
    dist.tail_log_prob(dist.pmf(plane, 5), 0.9)
    pressure.rate(pressure.PressureEval(1.5), 0.5)
    path.path_rate(path.PathFunction.line(0.5), 2.0)
    trees.batch_stirling_plateaux(3, 2)
    trees.batch_pa_buds(0.0, GAMMA_PMF, 3, 2)
