"""Self-contained verification suite: eight numbered criteria covering
pressure consistency, the pressure ODE, LLN/CLT constants, MGF
convergence, tail decay rates, the variational/Legendre match,
real-rootedness certification, and combinatorial equivalence.

Each criterion function returns CheckResult rows; run_suite prints one
pass/fail line per check and returns overall success.
"""

from __future__ import annotations

import math
import operator
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import dist
from .chain import DEFAULT_SEED, model_from_name
from .path import euler_solve
from .pressure import (
    PressureEval,
    mean_slope,
    ode_residual,
    pressure,
    pressure_derivatives,
    rate,
    sigma_sq,
)
from .trees import (
    _STIRLING,
    _YULE,
    _pa,
    _recursive,
    _tv_of_growth,
    batch_recursive_leaves,
    batch_yule_cherries,
    bud_lln_endpoints,
    verify_clt,
)

__all__ = ["CheckResult", "run_suite", "CRITERIA"]

_RELATIONS = {"<=": operator.le, "<": operator.lt, ">": operator.gt, "==": operator.eq}


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    value: float
    bound: float
    relation: str = "<="  # pass iff `value <relation> bound`
    detail: str = ""

    @property
    def passed(self) -> bool:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        return _RELATIONS[self.relation](self.value, self.bound)

    def line(self) -> str:
        """The one-line report: tag, criterion, name, value vs bound, detail."""
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"[{tag}] C{self.criterion} {self.name}: "
            f"{self.value:.6g} {self.relation} {self.bound:.6g}{extra}"
        )


def _mean_check(criterion: int, name: str, frac: np.ndarray, target: float) -> CheckResult:
    """The sample mean of `frac` within 3 standard errors of `target`."""
    se = float(np.std(frac, ddof=1)) / math.sqrt(len(frac))
    dev = abs(float(np.mean(frac)) - target)
    return CheckResult(criterion, name, dev / se, 3.0, detail=f"mean={np.mean(frac):.6f} se={se:.2e}")


def _lambda_grid() -> list[float]:
    # [-5, 5] step 0.1, excluding the origin where the residual is 0/0
    return [i * 0.1 for i in range(-50, 51) if i != 0]


# Criterion 1's reference: the closed-form pressures, valid away from
# lambda = 0 (the grid skips it; alpha = 2 cancels in e^lambda - 1 - lambda
# as lambda -> 0, and alpha = 1/2 loses 1 - e^lambda below lambda ~ -30)


def _cf_half(lam: float) -> float:
    if lam > 0:
        r = math.sqrt(math.expm1(lam))
        return math.log(r / math.atan(r))
    q = math.sqrt(-math.expm1(lam))
    return math.log(q / math.atanh(q))


def _cf_one(lam: float) -> float:
    return math.log(math.expm1(lam) / lam)


def _cf_two(lam: float) -> float:
    em = math.expm1(lam)
    return 2.0 * math.log(abs(em)) - math.log(2.0 * (em - lam))


_CLOSED_FORMS = {0.5: _cf_half, 1.0: _cf_one, 2.0: _cf_two}


def criterion_1(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The general pressure route agrees with the closed forms to 1e-8."""
    out = []
    for alpha, closed_form in _CLOSED_FORMS.items():
        ev = PressureEval(alpha)
        worst = max(abs(pressure(ev, lam) - closed_form(lam)) for lam in _lambda_grid())
        out.append(
            CheckResult(1, f"hypergeometric route vs closed form, alpha={alpha:g}", worst, 1e-8)
        )
    return out


def criterion_2(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Pressure and its derivative satisfy the defining ODE."""
    out = []
    for alpha in (0.5, 1.0, 1.5, 2.0):
        ev = PressureEval(alpha)
        worst = max(abs(ode_residual(ev, lam)) for lam in _lambda_grid())
        out.append(CheckResult(2, f"ODE residual, alpha={alpha:g}", worst, 1e-6))
    return out


def criterion_3(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Derivative anchors exact; simulated means and CLT variances match."""
    out = []
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        d1, d2 = pressure_derivatives(PressureEval(alpha), 0.0)
        worst = max(worst, abs(d1 - mean_slope(alpha)), abs(d2 - sigma_sq(alpha)))
    out.append(CheckResult(3, "derivative anchors at lambda=0", worst, 0.0))

    n, reps = 100_000, 200
    runs = [
        ("plane-oriented leaves", batch_recursive_leaves("plane_oriented", n, reps, seed), 2 / 3),
        ("uniform leaves", batch_recursive_leaves("uniform", n, reps, seed), 1 / 2),
        ("Yule cherries", batch_yule_cherries(n, reps, seed), 1 / 3),
    ]
    for name, stat, target in runs:
        out.append(_mean_check(3, f"mean of {name} -> {target:.4g}", stat / n, target))
    for preset, target in (("plane_oriented", 1 / 9), ("yule", 2 / 45)):
        rep = verify_clt(model_from_name(preset), 10_000, 10_000, seed)
        out.append(
            CheckResult(
                3,
                f"CLT variance, {preset} -> {target:.4g}",
                abs(rep.empirical_var - target) / target,
                0.10,
                detail=f"var={rep.empirical_var:.5f} ks={rep.ks_distance:.4f}",
            )
        )
    return out


def criterion_4(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """log(m_{n+1}/m_n) converges to the pressure, improving with n."""
    model = model_from_name("plane_oriented")
    ev = PressureEval(2.0)
    snapshots = dist.pmf_snapshots(model, (1000, 1001, 4000, 4001))
    out = []
    for lam in (-1.0, 1.0):
        target = pressure(ev, lam)
        errs = {
            n: abs(
                dist.log_mgf(snapshots[n + 1], lam) - dist.log_mgf(snapshots[n], lam) - target
            )
            for n in (1000, 4000)
        }
        out.append(
            CheckResult(
                4,
                f"ratio estimator error at n=4000, lambda={lam:g}",
                errs[4000],
                1e-3,
                detail=f"err(1000)={errs[1000]:.2e}",
            )
        )
        out.append(
            CheckResult(4, f"error shrinks 1000 -> 4000, lambda={lam:g}", errs[4000], errs[1000], "<")
        )
    return out


def criterion_5(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exact-pmf tail decay approaches the rate function from below."""
    model = model_from_name("plane_oriented")
    ev = PressureEval(2.0)
    snapshots = dist.pmf_snapshots(model, (500, 1000, 2000))
    out = []
    for name, x in (("x=0.85 distance to I(x)", 0.85), ("x=1 distance to log 2", 1.0)):
        target = rate(ev, x).rate
        # the cutoff stops at the top reachable atom k = n-1, which x = 1
        # reads (the first step is a forced stay, so P(Z_n = n) = 0 exactly)
        d = [abs(dist.tail_log_prob(snapshots[n], min(x, (n - 1) / n)) - target) for n in (500, 1000, 2000)]
        out.append(
            CheckResult(
                5,
                f"{name} decreasing",
                max(d[1] / d[0], d[2] / d[1]),
                1.0,
                "<",
                detail="dist=" + "/".join(f"{v:.4f}" for v in d),
            )
        )
    out.append(CheckResult(5, "x=1 within 0.02 of log 2 at n=2000", d[2], 0.02))  # the x = 1 distances
    return out


def criterion_6(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Variational minimizer cost matches the Legendre rate; off-mean
    optimal paths bend away from the straight chord."""
    ev = PressureEval(2.0)
    out = []
    for x in (0.13, 0.5, 2 / 3, 0.85):
        sol = euler_solve(2.0, x)
        target = rate(ev, x).rate
        out.append(
            CheckResult(
                6,
                f"euler cost vs Legendre rate, x={x:g}",
                abs(sol.cost - target),
                1e-3,
                detail=f"cost={sol.cost:.8f} rate={target:.8f}",
            )
        )
        if x in (0.13, 0.85):
            dev = float(np.max(np.abs(sol.path.values - x * sol.path.knots)))
            out.append(CheckResult(6, f"chord deviation, x={x:g}", dev, 1e-3, ">"))
    return out


def criterion_7(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exact real-rootedness certification for every preset, n <= 30."""
    out = []
    for preset in ("uniform", "plane_oriented", "yule", "pa:beta=0", "pa:beta=1"):
        model = model_from_name(preset)
        good = 0
        first_bad = ""
        for n in range(1, 31):
            report = dist.certify_real_rooted(dist.exact_poly(model, n))
            if report.certified:
                good += 1
            elif not first_bad:
                first_bad = f"first failure at n={n}: {report.note}"
        out.append(
            CheckResult(7, f"real-rooted certificates, {preset}", good, 30, "==", first_bad)
        )
    return out


def criterion_8(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Tree statistics reproduce the chain laws in total variation, and
    the quenched bud count obeys its LLN.  Each grower's blocks of
    replicates are binned as they are counted, as tv_against_chain bins
    the grower's record_all table, so the 1e6 x 12 table is never held."""
    reps = 1_000_000
    out = []
    # (name, grower, chain preset, chain step of its first size); every grower ends at step 12
    cases = [
        ("Yule cherries", _YULE, "yule", 1),
        ("uniform leaves", _recursive("uniform"), "uniform", 1),
        ("plane-oriented leaves", _recursive("plane_oriented"), "plane_oriented", 1),
        ("attachment-graph leaves", _pa(0.0), "pa:beta=0", 1),
        ("Stirling plateaux", _STIRLING, "plane_oriented", 2),
    ]
    for name, grower, preset, first in cases:
        steps = range(first, 13)
        tv = _tv_of_growth(grower, seed, reps, model_from_name(preset), steps)
        out.append(
            CheckResult(
                8,
                f"total variation vs chain pmf, {name}",
                float(tv.max()),
                5e-3,
                detail=f"worst step n={steps[int(tv.argmax())]}",
            )
        )
    n = 16_000
    z = bud_lln_endpoints(0.0, ((1, 2), (0.5, 0.5)), n, 1000, seed)
    out.append(_mean_check(8, "quenched bud LLN -> 3/4", z / n, 0.75))
    return out


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}


def run_suite(criteria=None, seed: int = DEFAULT_SEED, stream=None) -> bool:
    """Run the requested criteria (all by default); print one line per
    check and a summary; return True iff everything passed."""
    if stream is None:
        stream = sys.stdout
    which = sorted(CRITERIA) if criteria is None else sorted(set(criteria))
    unknown = [idx for idx in which if idx not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criterion {', '.join(map(str, unknown))}; valid: {sorted(CRITERIA)}")
    total = passed = 0
    for idx in which:
        t0 = time.perf_counter()
        results = CRITERIA[idx](seed=seed)
        dt = time.perf_counter() - t0
        for r in results:
            total += 1
            passed += r.passed
            print(r.line(), file=stream)
        print(f"       criterion {idx} finished in {dt:.1f}s", file=stream)
    ok = passed == total
    print(f"overall: {'PASS' if ok else 'FAIL'} ({passed}/{total} checks)", file=stream)
    return ok
