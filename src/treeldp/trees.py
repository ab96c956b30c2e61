"""Monte Carlo simulators of the combinatorial objects behind the chains:
preferential-attachment graphs (leaves and buds), uniform and
plane-oriented recursive trees, Yule trees (cherries), and Stirling
permutations (plateaux), plus LLN/CLT statistical harnesses.

Batch simulators are vectorized across replicates and can record the
statistic at every intermediate size, which is what the distributional
equivalence tests against the exact chain pmfs consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    nv = n + 1  # vG1 + n - 1
    if multi_edge_pmf is None:
        degrees = np.zeros(nv, dtype=np.int64)
        degrees[0] = degrees[1] = 1
        edges = [(0, 1, 1)]
        for m in range(1, n):
            w = degrees[: m + 1] + beta
            cum = np.cumsum(w)
            target = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            target = min(target, m)
            new = m + 1
            degrees[target] += 1
            degrees[new] = 1
            edges.append((new, target, 1))
        statistic = int(np.sum(degrees[: n + 1] == 1))
        result = GrowthResult(f"pa:beta={beta:g}", n, statistic, seed)
        if return_structure:
            return result, {"degrees": degrees[: n + 1], "edges": edges}
        return result

    gv, gp = _coerce_pmf(multi_edge_pmf)
    slopes = RandomizedPASlope(beta, gv, gp, seed)
    gammas = slopes.gammas(max(n - 1, 1))
    svals = slopes.values_float(max(n - 1, 1))
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
    if kind not in ("uniform", "plane_oriented"):
        raise ValueError("kind must be 'uniform' or 'plane_oriented'")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_generator(seed, _STREAM_TREES, 3)
    parents = np.full(n, -1, dtype=np.int64)
    nchildren = np.zeros(n, dtype=np.int64)
    for m in range(1, n):
        if kind == "uniform":
            target = int(rng.integers(0, m))
        else:
            r = int(rng.integers(0, 2 * m - 1))
            cum = np.cumsum(nchildren[:m] + 1)
            target = int(np.searchsorted(cum, r, side="right"))
        parents[m] = target
        nchildren[target] += 1
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
    if kind not in ("uniform", "plane_oriented"):
        raise ValueError("kind must be 'uniform' or 'plane_oriented'")
    rng = make_generator(seed, _STREAM_TREES, 5)
    rows = np.arange(reps)
    childless = np.zeros((reps, n), dtype=bool)
    childless[:, 0] = True
    leaves = np.ones(reps, dtype=np.int64)
    out = np.empty((reps, n), dtype=np.int64) if record_all else None
    if record_all:
        out[:, 0] = leaves
    if kind == "plane_oriented":
        # a vertex with c children owns c+1 plane-embedding gaps, so the
        # slot list [.., target, new] stays weight-proportional in O(1)
        dtype = np.int8 if n < 127 else np.int32
        slots = np.zeros((reps, max(2 * n - 1, 1)), dtype=dtype)
    for m in range(1, n):
        if kind == "uniform":
            target = rng.integers(0, m, size=reps)
        else:
            r = rng.integers(0, 2 * m - 1, size=reps)
            target = slots[rows, r].astype(np.int64)
            slots[:, 2 * m - 1] = target
            slots[:, 2 * m] = m
        was_leaf = childless[rows, target]
        childless[rows, target] = False
        childless[:, m] = True
        leaves += 1 - was_leaf
        if record_all:
            out[:, m] = leaves
    return out if record_all else leaves


def batch_pa_leaves(
    beta: float, n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Leaf counts of `reps` preferential-attachment graphs G_n.  For
    beta = 0 sampling uses the repeated-endpoint slot array (O(1) per
    draw); general beta uses weighted cumulative sums per step."""
    if beta <= -1:
        raise ValueError("beta must be > -1")
    rng = make_generator(seed, _STREAM_TREES, 6)
    rows = np.arange(reps)
    nv = n + 1
    is_leaf = np.zeros((reps, nv), dtype=bool)
    is_leaf[:, 0] = is_leaf[:, 1] = True
    leaves = np.full(reps, 2, dtype=np.int64)
    out = np.empty((reps, n), dtype=np.int64) if record_all else None
    if record_all:
        out[:, 0] = leaves
    if beta == 0.0:
        dtype = np.int8 if nv < 127 else np.int32
        slots = np.zeros((reps, 2 * n), dtype=dtype)
        slots[:, 1] = 1
        for m in range(1, n):
            r = rng.integers(0, 2 * m, size=reps)
            target = slots[rows, r].astype(np.int64)
            new = m + 1
            slots[:, 2 * m] = target
            slots[:, 2 * m + 1] = new
            was_leaf = is_leaf[rows, target]
            is_leaf[rows, target] = False
            is_leaf[:, new] = True
            leaves += 1 - was_leaf
            if record_all:
                out[:, m] = leaves
    else:
        degrees = np.zeros((reps, nv), dtype=np.int32)
        degrees[:, 0] = degrees[:, 1] = 1
        for m in range(1, n):
            w = degrees[:, : m + 1] + beta
            cum = np.cumsum(w, axis=1)
            r = rng.random(reps) * cum[:, -1]
            target = np.sum(cum <= r[:, None], axis=1)
            target = np.minimum(target, m)
            new = m + 1
            degrees[rows, target] += 1
            degrees[:, new] = 1
            was_leaf = is_leaf[rows, target]
            is_leaf[rows, target] = False
            is_leaf[:, new] = True
            leaves += 1 - was_leaf
            if record_all:
                out[:, m] = leaves
    return out if record_all else leaves


def batch_yule_cherries(
    n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Cherry counts of `reps` Yule trees grown to n leaves."""
    rng = make_generator(seed, _STREAM_TREES, 7)
    rows = np.arange(reps)
    partner = np.full((reps, max(n, 2)), -1, dtype=np.int32)
    z = np.zeros(reps, dtype=np.int64)
    out = np.empty((reps, n), dtype=np.int64) if record_all else None
    if record_all:
        out[:, 0] = 0
    for m in range(1, n):
        # m leaves now, slots 0..m-1; split leaf j into slots (j, m)
        j = rng.integers(0, m, size=reps)
        w = partner[rows, j]
        had_partner = w >= 0
        sub = rows[had_partner]
        partner[sub, w[had_partner]] = -1
        partner[rows, j] = m
        partner[:, m] = j
        z += ~had_partner
        if record_all:
            out[:, m] = z
    return out if record_all else z


def batch_stirling_plateaux(
    n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Plateau counts of `reps` random Stirling permutations of
    {1,1,...,n,n}; with record_all, plateau counts at every label count
    k = 1..n (permutation length 2k, matching chain step k+1)."""
    rng = make_generator(seed, _STREAM_TREES, 8)
    width = 2 * n
    code = np.zeros((reps, width), dtype=np.int8 if n < 127 else np.int32)
    code[:, 0] = 1
    code[:, 1] = 1
    out = np.empty((reps, n), dtype=np.int64) if record_all else None
    if record_all:
        out[:, 0] = 1
    cols = np.arange(width)[None, :]
    for k in range(1, n):
        length = 2 * k
        pos = rng.integers(0, length + 1, size=reps)[:, None]
        shifted = np.take_along_axis(code, np.maximum(cols - 2, 0), axis=1)
        code = np.where(cols < pos, code, np.where(cols >= pos + 2, shifted, k + 1)).astype(
            code.dtype
        )
        if record_all:
            ln = length + 2
            out[:, k] = np.sum(code[:, : ln - 1] == code[:, 1:ln], axis=1)
    if record_all:
        return out
    return np.sum(code[:, :-1] == code[:, 1:], axis=1).astype(np.int64)


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
