"""Monte Carlo simulators of the combinatorial objects behind the chains:
preferential-attachment graphs (leaves and buds), uniform and
plane-oriented recursive trees, Yule trees (cherries), and Stirling
permutations (plateaux), plus LLN/CLT statistical harnesses.

Batch simulators are vectorized across replicates and can record the
statistic at every intermediate size, which is what the distributional
equivalence tests against the exact chain pmfs consume.  The leaf,
cherry and plateau growers share one kernel: it draws the target of every
step at once (a copy of an earlier step's target, or a uniform vertex or
gap), so each statistic is a count of what no step has hit yet, taken
over blocks of replicates of a fixed size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import stats as _scipy_stats

from . import dist
from .chain import (
    DEFAULT_SEED,
    ModelSpec,
    RandomizedPASlope,
    make_generator,
)
from .pressure import sigma_sq

__all__ = [
    "GrowthResult",
    "StatReport",
    "grow_pa_graph",
    "grow_yule",
    "grow_recursive",
    "grow_stirling",
    "batch_pa_leaves",
    "batch_pa_buds",
    "batch_yule_cherries",
    "batch_recursive_leaves",
    "batch_stirling_plateaux",
    "bud_lln_endpoints",
    "verify_clt",
    "tv_against_chain",
]

_STREAM_TREES = 303


@dataclass(frozen=True)
class GrowthResult:
    model: str
    n: int
    statistic: int
    seed: int


@dataclass(frozen=True)
class StatReport:
    """CLT summary for Z_n/n samples: empirical_mean is the mean of
    Z_n/n, empirical_var the variance of (Z_n - E Z_n)/sqrt(n), and
    ks_distance the KS statistic against N(0, sigma^2)."""

    replicates: int
    empirical_mean: float
    empirical_var: float
    clt_stat_sample: np.ndarray
    ks_distance: float


def _coerce_pmf(pmf_like) -> tuple[tuple[int, ...], tuple[float, ...]]:
    if isinstance(pmf_like, dict):
        vals = tuple(sorted(pmf_like))
        probs = tuple(float(pmf_like[v]) for v in vals)
        return vals, probs
    vals, probs = pmf_like
    return tuple(int(v) for v in vals), tuple(float(p) for p in probs)


# ---------------------------------------------------------- first-hit kernel

_BLOCK = 1 << 18  # draws per block of replicates: peak memory follows this, not reps * n

# A law is (copies, v0, dv): step m draws one uniform over m - 1 copy units
# (when `copies`) and v0 + dv*m vertices of one weight each (1 unless given).
_UNIFORM = (False, 0, 1)  # one of m vertices, or of m Yule leaf slots
_PLANE = (True, 0, 1)  # weight children + 1: 2m - 1 in all
_PA = (True, 1, 1)  # weight deg + beta: (m - 1) + (m + 1)(1 + beta) in all
_GAPS = (False, 1, 2)  # one of the 2m + 1 gaps of a Stirling permutation


def _targets(rng, rows: int, steps: int, copies: bool, v0: int, dv: int, weight: float = 1.0):
    """Targets of steps m = 1..steps for `rows` replicates, shape (rows, steps).

    Copy unit r takes the target of step r + 1.  A vertex has one degree
    unit per earlier step that chose it, so copies plus `weight` per vertex
    are weight deg + beta attachment (Krapivsky & Redner, PRE 63, 066123).
    Copies point at earlier steps and are resolved by pointer jumping.
    """
    m = np.arange(1, steps + 1)
    ncopy = m - 1 if copies else 0
    nvert = v0 + dv * m
    u = rng.random((rows, steps)) * (ncopy + nvert * weight)
    vert = np.minimum(((u - ncopy) / weight).astype(np.intp), nvert - 1)
    if not copies:
        return vert
    ptr = np.where(u < ncopy, u.astype(np.intp), m - 1) + steps * np.arange(rows)[:, None]
    ptr = ptr.ravel()
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    return vert.ravel()[ptr].reshape(rows, steps)


def _per_target(ufunc, tgt: np.ndarray, empty: int):
    """`ufunc` over the step numbers that hit each target of a row (`empty`
    if none), shape (rows, width), and that value read back at every step,
    shape (rows, steps)."""
    rows, steps = tgt.shape
    width = int(tgt.max(initial=0)) + 1
    key = (tgt + width * np.arange(rows)[:, None]).ravel()
    red = np.full(rows * width, empty)
    ufunc.at(red, key, np.tile(np.arange(1, steps + 1), rows))
    return red.reshape(rows, width), red[key].reshape(rows, steps)


def _unhit(tgt: np.ndarray, record_all: bool, base: int, odd: bool = False) -> np.ndarray:
    """The vertices (odd gaps when `odd`) no step has hit yet: `base` at
    the start, one more per step, one fewer per first hit."""
    rows, steps = tgt.shape
    m = np.arange(1, steps + 1)
    fresh = _per_target(np.minimum, tgt, steps + 1)[1] == m
    if odd:
        fresh &= tgt % 2 == 1
    if not record_all:
        return base + steps - fresh.sum(axis=1)
    out = np.empty((rows, steps + 1), dtype=np.int64)
    out[:, 0] = base
    out[:, 1:] = base + m - np.cumsum(fresh, axis=1)
    return out


def _cherries(tgt: np.ndarray, record_all: bool) -> np.ndarray:
    """Yule cherries from the leaf slot each step splits: step m turns slot
    tgt[m] into the pair (tgt[m], m), a cherry until either is split again,
    i.e. until min(next sibling of m, first child of m)."""
    rows, steps = tgt.shape
    m = np.arange(1, steps + 1)
    hits = _per_target(np.minimum, tgt, steps + 1)[0]
    child = np.full((rows, steps), steps + 1)  # first split of slot m
    child[:, : hits.shape[1] - 1] = hits[:, 1:]
    if not record_all:
        is_last = _per_target(np.maximum, tgt, 0)[1] == m
        return np.sum(is_last & (child > steps), axis=1)
    order = np.argsort(tgt, axis=1, kind="stable")
    srt = np.take_along_axis(tgt, order, axis=1)
    sibling = np.full((rows, steps), steps + 1)
    nxt = np.where(srt[:, 1:] == srt[:, :-1], order[:, 1:] + 1, steps + 1)
    np.put_along_axis(sibling, order[:, :-1], nxt, axis=1)
    death = np.minimum(sibling, child) + (steps + 2) * np.arange(rows)[:, None]
    deaths = np.bincount(death.ravel(), minlength=rows * (steps + 2)).reshape(rows, steps + 2)
    out = np.zeros((rows, steps + 1), dtype=np.int64)
    out[:, 1:] = m - np.cumsum(deaths[:, 1 : steps + 1], axis=1)
    return out


def _grow_batch(rng, n: int, reps: int, record_all: bool, law: tuple, count) -> np.ndarray:
    """`count` of the targets that `law` draws, one block of replicates at a
    time: shape (reps,) at size n, or (reps, n) with record_all."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = n - 1
    out = np.empty((reps, n) if record_all else reps, dtype=np.int64)
    rows = max(1, _BLOCK // max(steps, 1))
    for lo in range(0, reps, rows):
        out[lo : lo + rows] = count(_targets(rng, min(rows, reps - lo), steps, *law), record_all)
    return out


def _recursive_law(kind: str) -> tuple:
    if kind not in ("uniform", "plane_oriented"):
        raise ValueError("kind must be 'uniform' or 'plane_oriented'")
    return _UNIFORM if kind == "uniform" else _PLANE


# ------------------------------------------------------------- single runs


def grow_pa_graph(
    beta: float,
    n: int,
    seed: int = DEFAULT_SEED,
    multi_edge_pmf=None,
    return_structure: bool = False,
):
    """Grow G_n from a single-edge seed (vG1 = dG1 = 2), attaching each
    new vertex with weight deg + beta; returns the leaf count, or with
    multi_edge_pmf the bud count under the quenched multi-edge model.

    Bud selection is two-stage: a bud target with probability Z_n/s_n
    (uniform among buds), otherwise weight-proportional among non-buds;
    this realizes the counting chain exactly and coincides with plain
    preferential attachment when gamma == 1.
    """
    if beta <= -1:
        raise ValueError("beta must be > -1")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_generator(seed, _STREAM_TREES, 1)
    if multi_edge_pmf is None:
        tgt = _targets(rng, 1, n - 1, *_PA, 1.0 + float(beta))[0]
        degrees = 1 + np.bincount(tgt, minlength=n + 1)
        edges = [(0, 1, 1)] + [(m + 1, int(t), 1) for m, t in enumerate(tgt, 1)]
        statistic = int(np.sum(degrees == 1))
        result = GrowthResult(f"pa:beta={beta:g}", n, statistic, seed)
        if return_structure:
            return result, {"degrees": degrees, "edges": edges}
        return result

    gv, gp = _coerce_pmf(multi_edge_pmf)
    slopes = RandomizedPASlope(beta, gv, gp, seed)
    gammas = slopes.gammas(max(n - 1, 1))
    svals = slopes.values_float(max(n - 1, 1))
    nv = n + 1  # vG1 + n - 1
    degrees = np.zeros(nv, dtype=np.int64)
    degrees[0] = degrees[1] = 1
    is_bud = np.zeros(nv, dtype=bool)
    is_bud[0] = is_bud[1] = True
    edges = [(0, 1, 1)]
    z = 2
    for m in range(1, n):
        g = int(gammas[m - 1])
        s = svals[m - 1]
        if rng.random() < z / s:
            buds = np.flatnonzero(is_bud[: m + 1])
            target = int(buds[rng.integers(0, len(buds))])
        else:
            w = np.where(is_bud[: m + 1], 0.0, degrees[: m + 1] + beta)
            cum = np.cumsum(w)
            target = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            target = min(target, m)
        new = m + 1
        if is_bud[target]:
            z -= 1
            is_bud[target] = False
        degrees[target] += g
        degrees[new] = g
        is_bud[new] = True
        z += 1
        edges.append((new, target, g))
    result = GrowthResult(slopes.label(), n, z, seed)
    if return_structure:
        return result, {"degrees": degrees[: n + 1], "edges": edges, "is_bud": is_bud[: n + 1]}
    return result


def grow_yule(n: int, seed: int = DEFAULT_SEED, return_structure: bool = False):
    """Yule tree with n leaves by uniform leaf splitting; statistic is the
    cherry count (pairs of leaves sharing a parent)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_generator(seed, _STREAM_TREES, 2)
    parent = {0: -1}
    children: dict[int, list[int]] = {}
    leaves = [0]
    nxt = 1
    for _ in range(n - 1):
        j = int(rng.integers(0, len(leaves)))
        node = leaves[j]
        a, b = nxt, nxt + 1
        nxt += 2
        parent[a] = parent[b] = node
        children[node] = [a, b]
        leaves[j] = a
        leaves.append(b)
    cherries = 0
    leafset = set(leaves)
    for node, (a, b) in children.items():
        if a in leafset and b in leafset:
            cherries += 1
    if len(leaves) == 1:
        cherries = 0
    result = GrowthResult("yule", n, cherries, seed)
    if return_structure:
        return result, {"parent": parent, "children": children, "leaves": leaves}
    return result


def grow_recursive(kind: str, n: int, seed: int = DEFAULT_SEED, return_structure: bool = False):
    """Uniform or plane-oriented recursive tree on n vertices; statistic is
    the number of childless vertices.  Plane-oriented attachment picks a
    vertex with weight (children + 1), i.e. one of the 2m - 1 insertion
    slots of the plane embedding."""
    law = _recursive_law(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_generator(seed, _STREAM_TREES, 3)
    parents = np.concatenate([[-1], _targets(rng, 1, n - 1, *law)[0]])
    nchildren = np.bincount(parents[1:], minlength=n)
    statistic = int(np.sum(nchildren == 0))
    result = GrowthResult(kind, n, statistic, seed)
    if return_structure:
        return result, {"parents": parents, "nchildren": nchildren}
    return result


def grow_stirling(n: int, seed: int = DEFAULT_SEED, return_structure: bool = False):
    """Random Stirling permutation of {1,1,...,n,n} built by inserting the
    pair (k+1)(k+1) into one of the 2k+1 gaps uniformly; statistic is the
    plateau count (adjacent equal entries over positions 1..2n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_generator(seed, _STREAM_TREES, 4)
    code = [1, 1]
    for k in range(1, n):
        pos = int(rng.integers(0, 2 * k + 1))
        code[pos:pos] = [k + 1, k + 1]
    plateaux = sum(1 for a, b in zip(code, code[1:]) if a == b)
    result = GrowthResult("stirling", n, plateaux, seed)
    if return_structure:
        return result, {"code": tuple(code)}
    return result


# ---------------------------------------------------------------- batch runs


def batch_recursive_leaves(
    kind: str, n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Leaf counts of `reps` recursive trees; shape (reps,) at size n, or
    (reps, n) for all sizes 1..n with record_all."""
    law = _recursive_law(kind)
    rng = make_generator(seed, _STREAM_TREES, 5)
    return _grow_batch(rng, n, reps, record_all, law, partial(_unhit, base=1))


def batch_pa_leaves(
    beta: float, n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Leaf counts of `reps` preferential-attachment graphs G_n: a step
    copies the target of a uniform earlier step, else picks a uniform
    vertex, with the odds that make the weight deg + beta."""
    if beta <= -1:
        raise ValueError("beta must be > -1")
    rng = make_generator(seed, _STREAM_TREES, 6)
    law = _PA + (1.0 + float(beta),)
    return _grow_batch(rng, n, reps, record_all, law, partial(_unhit, base=2))


def batch_yule_cherries(
    n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Cherry counts of `reps` Yule trees grown to n leaves."""
    rng = make_generator(seed, _STREAM_TREES, 7)
    return _grow_batch(rng, n, reps, record_all, _UNIFORM, _cherries)


def batch_stirling_plateaux(
    n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Plateau counts of `reps` random Stirling permutations of
    {1,1,...,n,n}; with record_all, plateau counts at every label count
    k = 1..n (permutation length 2k, matching chain step k+1).

    Inserting aa into the gap of x y leaves (x a) at that gap's label and
    appends (a a), a plateau, and (a y), so the odd labels are the plateaux
    born and a plateau lasts until its gap is first hit (Janson, Kuba &
    Panholzer, JCTA 2011)."""
    rng = make_generator(seed, _STREAM_TREES, 8)
    return _grow_batch(rng, n, reps, record_all, _GAPS, partial(_unhit, base=1, odd=True))


def batch_pa_buds(
    beta: float,
    gamma_pmf,
    n: int,
    reps: int,
    seed: int = DEFAULT_SEED,
    env_seed: int | None = None,
    record_all: bool = False,
) -> np.ndarray:
    """Bud counts of `reps` quenched multigraphs sharing one gamma
    environment (drawn from env_seed, defaulting to seed), with the
    two-stage target selection that realizes the chain exactly.  The bud
    count moves only with the stage-1 bud-vs-non-bud coin, so the vertex
    bookkeeping of stage 2 is marginalized out."""
    gv, gp = _coerce_pmf(gamma_pmf)
    slopes = RandomizedPASlope(beta, gv, gp, seed if env_seed is None else env_seed)
    svals = slopes.values_float(max(n - 1, 1))
    rng = make_generator(seed, _STREAM_TREES, 9)
    z = np.full(reps, 2, dtype=np.int64)
    out = np.empty((reps, n), dtype=np.int64) if record_all else None
    if record_all:
        out[:, 0] = z
    for m in range(1, n):
        z += rng.random(reps) >= z / svals[m - 1]
        # stage 2 picked the target vertex from this draw; drawing it still
        # keeps the stream, so each realization equals the full two-stage
        # sampler's bit for bit
        rng.random(reps)
        if record_all:
            out[:, m] = z
    return out if record_all else z


def bud_lln_endpoints(
    beta: float, gamma_pmf, n: int, reps: int, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Bud counts at G_n, one independently drawn quenched environment per
    replicate.  Under the two-stage sampler the bud count depends only on
    the bud-vs-non-bud selections, so the vertex bookkeeping is
    marginalized out exactly."""
    gv, gp = _coerce_pmf(gamma_pmf)
    gv_arr = np.array(gv)
    cum_p = np.cumsum(np.asarray(gp, dtype=float))
    cum_p /= cum_p[-1]
    env_rng = make_generator(seed, _STREAM_TREES, 10)
    sim_rng = make_generator(seed, _STREAM_TREES, 11)
    z = np.full(reps, 2, dtype=np.int64)
    cum_gamma = np.zeros(reps, dtype=np.int64)
    dG1, vG1 = 2, 2
    for m in range(1, n):
        s = (dG1 + 2.0 * cum_gamma + (m - 1 + vG1) * beta) / (1.0 + beta)
        z += sim_rng.random(reps) >= z / s
        g = gv_arr[np.searchsorted(cum_p, env_rng.random(reps))]
        cum_gamma += g
    return z


# ------------------------------------------------------------ stat harnesses


def verify_clt(model: ModelSpec, n: int, reps: int, seed: int = DEFAULT_SEED) -> StatReport:
    """Simulate Z_n and report CLT statistics: samples (Z_n - E Z_n)/sqrt(n),
    their variance, and the KS distance to N(0, sigma^2(alpha))."""
    from .chain import simulate_endpoints

    z = simulate_endpoints(model, n, reps, seed)
    svals = model.slopes.values_float(max(n - 1, 1))
    mean = float(model.k0)
    for m in range(1, n):
        mean = 1.0 + mean * (1.0 - 1.0 / svals[m - 1])
    samples = (z - mean) / math.sqrt(n)
    sigma = math.sqrt(sigma_sq(model.alpha))
    if reps > 1 and np.ptp(samples) > 0:
        ks = float(_scipy_stats.kstest(samples, "norm", args=(0.0, sigma)).statistic)
    else:
        ks = 1.0
    return StatReport(
        replicates=reps,
        empirical_mean=float(np.mean(z)) / n,
        empirical_var=float(np.var(samples, ddof=1)) if reps > 1 else 0.0,
        clt_stat_sample=samples,
        ks_distance=ks,
    )


def tv_against_chain(stats: np.ndarray, model: ModelSpec, steps) -> np.ndarray:
    """Total-variation distance between empirical statistic columns and
    the chain's exact pmf.  stats has shape (reps, len(steps)); steps[i]
    is the chain index n the i-th column corresponds to."""
    steps = list(steps)
    reps = stats.shape[0]
    out = np.empty(len(steps))
    pmfs = dist.pmf_snapshots(model, steps)
    for i, n in enumerate(steps):
        p = pmfs[n]
        col = stats[:, i] - p.k0
        counts = np.bincount(col[(col >= 0) & (col < p.n)], minlength=p.n)[: p.n]
        emp = counts / reps
        exact = p.probs()
        overflow = 1.0 - counts.sum() / reps  # any mass outside the support
        out[i] = 0.5 * (np.abs(emp - exact).sum() + overflow)
    return out
