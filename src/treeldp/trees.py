"""Monte Carlo simulators of the combinatorial objects behind the chains:
preferential-attachment graphs (leaves and buds), uniform and
plane-oriented recursive trees, Yule trees (cherries), and Stirling
permutations (plateaux), plus LLN/CLT statistical harnesses.

Batch growers are vectorized across replicates and can record the
statistic at every size, which the distributional tests against the exact
chain pmfs consume.  The leaf, cherry and plateau growers share one kernel:
it draws the target of every step at once (a copy of an earlier step's
target, or a uniform vertex or gap) for a block of replicates, and counts
what no step has hit yet (for cherries, the pairs whose leaves no later
step splits, from one reverse scan over the steps) straight into the rows
of the output.  While the caller counts one block, a worker thread draws
the uniforms of the next (chain._ahead), from the same generator in the
same order.  A copy repeats a vertex an earlier step hit, so the counts
read only the direct draws; copies are followed only to rebuild a
structure.  Each single run (grow_*) is its batch grower at reps = 1, with
the structure rebuilt from the resolved targets on request.
Bud counts step on chain.py's walker instead, and the bud single run
rebuilds its multigraph from the walker's recorded path.  The TV harness
bins every column of a record_all output into one histogram.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr

from . import dist
from .chain import (
    DEFAULT_SEED,
    ModelSpec,
    PrefAttachSlope,
    RandomizedPASlope,
    _ahead,
    _reachable,
    _walk,
    make_generator,
    simulate_endpoints,
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


def _targets(rng, reps: int, steps: int, copies: bool, v0: int, dv: int, weight: float = 1.0,
             resolve: bool = False):
    """Targets of steps m = 1..steps for `reps` replicates, as pairs of a
    block of shape (rows, steps), at most _BLOCK draws, and the number of
    vertices after the last step, nvert = v0 + dv*steps.  The uniforms of
    the next block are drawn on a worker thread while the caller works on
    the current one (chain._ahead); a single block starts no thread.

    Copy unit r takes the target of step r + 1.  A vertex has one degree
    unit per earlier step that chose it, so copies plus `weight` per vertex
    are weight deg + beta attachment (Krapivsky & Redner, PRE 63, 066123).
    A copy repeats a vertex that an earlier step hit, so it is never a first
    hit and no count needs its target: a copy step holds the dummy id nvert.
    Only a rebuilt structure (`resolve`) follows copies, by pointer jumping.
    """
    m = np.arange(1, steps + 1)
    ncopy = m - 1 if copies else 0
    nvert = v0 + dv * m
    total, cap = ncopy + nvert * weight, nvert - 1
    dummy = v0 + dv * steps  # one past the last vertex
    rows = max(1, _BLOCK // max(steps, 1))
    sizes = [(min(rows, reps - lo), steps) for lo in range(0, reps, rows)]
    with closing(_ahead(rng.random, sizes)) as draws:
        for u in draws:
            u *= total
            if copies:
                copy = u < ncopy
                src = np.where(copy, u.astype(np.intp), m - 1) if resolve else None
                u -= ncopy
            if weight != 1.0:
                u /= weight
            vert = u.astype(np.intp)
            np.minimum(vert, cap, out=vert)
            if copies and resolve:
                ptr = (src + steps * np.arange(len(src))[:, None]).ravel()
                while True:
                    nxt = ptr[ptr]
                    if np.array_equal(nxt, ptr):
                        break
                    ptr = nxt
                vert = vert.ravel()[ptr].reshape(vert.shape)
            elif copies:
                np.maximum(vert, copy * dummy, out=vert)  # a copy has vert <= 0
            yield vert, dummy


def _flat(tgt: np.ndarray, width: int) -> np.ndarray:
    """Each target's index in a (rows, width) table flattened row by row."""
    return (tgt + width * np.arange(len(tgt))[:, None]).ravel()


def _unhit(tgt: np.ndarray, nvert: int, out: np.ndarray, base: int, odd: bool = False) -> None:
    """The vertices 0..nvert - 1 (odd gaps when `odd`) no step has hit yet,
    written into `out`: shape (rows,) after the last step, or (rows,
    steps + 1) after every step.  `base` at the start, one more per step,
    one fewer per first hit; a copy (the dummy nvert) is never a first hit."""
    rows, steps = tgt.shape
    if out.ndim == 1:
        seen = np.zeros((rows, nvert + 1), dtype=bool)
        seen.ravel()[_flat(tgt, nvert + 1)] = True
        real = seen[:, 1:nvert:2] if odd else seen[:, :nvert]
        out[:] = base + steps - np.count_nonzero(real, axis=1)
        return
    m = np.arange(1, steps + 1)
    key = _flat(tgt, nvert + 1)
    first = np.full(rows * (nvert + 1), steps + 1)
    np.minimum.at(first, key, np.tile(m, rows))
    fresh = (first[key].reshape(rows, steps) == m) & (tgt < nvert)
    del key, first  # the block's largest arrays: free them before counting
    if odd:
        fresh &= tgt % 2 == 1
    out[:, 0] = base
    np.cumsum(fresh, axis=1, out=out[:, 1:])
    np.subtract(base + m, out[:, 1:], out=out[:, 1:])


def _cherries(tgt: np.ndarray, nvert: int, out: np.ndarray) -> None:
    """Yule cherries from the leaf slot each step splits, written into `out`
    as `_unhit` writes.  Step m turns slot tgt[m] into the pair (tgt[m], m),
    a cherry until either is split again, i.e. until min(next sibling of m,
    first child of m).  The slots are 0..nvert, so at the end the cherries
    are the steps m that split their slot last and whose own slot m no step
    split."""
    rows, steps = tgt.shape
    if out.ndim == 1:
        # int32 halves the memory the scatter and the gather touch
        m = np.arange(1, steps + 1, dtype=np.int32)
        last = np.zeros((rows, nvert + 1), dtype=np.int32)  # 0: never split
        key = _flat(tgt, nvert + 1)
        np.maximum.at(last.ravel(), key, np.tile(m, rows))
        is_last = last.ravel()[key].reshape(rows, steps) == m
        out[:] = np.count_nonzero(is_last & (last[:, 1:] == 0), axis=1)
        return
    # One reverse scan over the steps, each a contiguous gather and scatter
    # of one key per row: nxt[slot] is the next step to split that slot,
    # which is step m's sibling when m splits it, and after the scan each
    # slot's first split, its child.  steps + 1 means never.
    keys = np.multiply(tgt.T, rows, order="C")  # step m's keys in one run
    keys += np.arange(rows)
    nxt = np.full((nvert + 1) * rows, steps + 1, dtype=np.min_scalar_type(steps + 1))
    death = np.empty((steps, rows), dtype=nxt.dtype)
    for m in range(steps, 0, -1):
        key = keys[m - 1]
        death[m - 1] = nxt[key]
        nxt[key] = m
    np.minimum(death, nxt[rows:].reshape(steps, rows), out=death)
    # a step splits one leaf, so it ends at most one cherry
    dead = np.zeros((rows, steps + 2), dtype=bool)
    dead[np.arange(rows), death] = True
    out[:, 0] = 0
    np.cumsum(dead[:, 1 : steps + 1], axis=1, out=out[:, 1:])
    np.subtract(np.arange(1, steps + 1), out[:, 1:], out=out[:, 1:])


# A grower is (sub-stream, law, count).  Its batch runs draw blocks of
# replicates from that sub-stream, and its single run is a batch of one.
_YULE = (7, _UNIFORM, _cherries)
_STIRLING = (8, _GAPS, partial(_unhit, base=1, odd=True))
_BUDS = 9  # sub-stream of the bud chain's coins, one uniform per step
_BUD_TARGETS = 12  # sub-stream of the single run's target uniforms


def _recursive(kind: str) -> tuple:
    if kind not in ("uniform", "plane_oriented"):
        raise ValueError("kind must be 'uniform' or 'plane_oriented'")
    return 5, _UNIFORM if kind == "uniform" else _PLANE, partial(_unhit, base=1)


def _pa(beta: float) -> tuple:
    if not -1 < beta < math.inf:
        raise ValueError("beta must be finite and > -1")
    return 6, _PA + (1.0 + float(beta),), partial(_unhit, base=2)


def _grow_batch(grower: tuple, seed: int, n: int, reps: int, record_all: bool) -> np.ndarray:
    """The grower's statistic for `reps` replicates, one block of at most
    _BLOCK draws at a time: shape (reps,) at size n, or (reps, n) with
    record_all."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    stream, law, count = grower
    rng = make_generator(seed, _STREAM_TREES, stream)
    out = np.empty((reps, n) if record_all else reps, dtype=np.int64)
    lo = 0
    for tgt, nvert in _targets(rng, reps, n - 1, *law):
        count(tgt, nvert, out[lo : lo + len(tgt)])
        lo += len(tgt)
    return out


def _grow_one(
    grower: tuple, model: str, seed: int, n: int, structure: bool
) -> tuple[np.ndarray | None, GrowthResult]:
    """The result of `_grow_batch` at reps = 1 and, with `structure`, its
    targets redrawn with every copy resolved to the vertex it hits."""
    result = GrowthResult(model, n, int(_grow_batch(grower, seed, n, 1, False)[0]), seed)
    if not structure:
        return None, result
    stream, law, _ = grower
    tgt, _ = next(_targets(make_generator(seed, _STREAM_TREES, stream), 1, n - 1, *law, resolve=True))
    return tgt[0], result


# ------------------------------------------------------------- single runs


def grow_pa_graph(
    beta: float,
    n: int,
    seed: int = DEFAULT_SEED,
    multi_edge_pmf=None,
    return_structure: bool = False,
):
    """Grow G_n from a single edge (two vertices, k0 = 2), attaching each
    new vertex with weight deg + beta; returns the leaf count, or with
    multi_edge_pmf the bud count under the quenched multi-edge model.
    Either mode is its batch grower at reps = 1 (batch_pa_leaves,
    batch_pa_buds), refusals included.

    Bud selection is two-stage: the count grows when the chain's coin
    picks a non-bud, with probability 1 - Z_n/s_n, and only the structure
    draws the target, weight-proportionally among non-buds or uniformly
    among buds.  This realizes the counting chain exactly and coincides
    with plain preferential attachment when gamma == 1.
    """
    if multi_edge_pmf is None:
        tgt, result = _grow_one(_pa(beta), PrefAttachSlope(beta).label(), seed, n, return_structure)
        if return_structure:
            degrees = 1 + np.bincount(tgt, minlength=n + 1)
            edges = [(0, 1, 1)] + [(m + 1, int(t), 1) for m, t in enumerate(tgt, 1)]
            return result, {"degrees": degrees, "edges": edges}
        return result

    gv, gp = _coerce_pmf(multi_edge_pmf)
    slopes = RandomizedPASlope(beta, gv, gp, seed)
    z = batch_pa_buds(beta, (gv, gp), n, 1, seed, record_all=return_structure)[0]
    if not return_structure:
        return GrowthResult(slopes.label(), n, int(z), seed)
    degrees = np.zeros(n + 1, dtype=np.int64)  # two seed vertices and n - 1 more
    degrees[0] = degrees[1] = 1
    is_bud = np.zeros(n + 1, dtype=bool)
    is_bud[0] = is_bud[1] = True
    edges = [(0, 1, 1)]
    u = make_generator(seed, _STREAM_TREES, _BUD_TARGETS).random(n - 1)
    steps = zip(slopes.gammas(max(n - 1, 1)).tolist(), np.diff(z).tolist(), u.tolist())
    for m, (g, grew, u_m) in enumerate(steps, 1):
        # the count grows exactly when the target is not a bud
        pool = np.flatnonzero(is_bud[: m + 1] != grew)
        if grew:
            cum = np.cumsum(degrees[pool] + beta)
            target = int(pool[min(np.searchsorted(cum, u_m * cum[-1], side="right"), len(pool) - 1)])
        else:
            target = int(pool[int(u_m * len(pool))])
        is_bud[target] = False
        is_bud[m + 1] = True
        degrees[target] += g
        degrees[m + 1] = g
        edges.append((m + 1, target, g))
    result = GrowthResult(slopes.label(), n, int(z[-1]), seed)
    return result, {"degrees": degrees, "edges": edges, "is_bud": is_bud}


def grow_yule(n: int, seed: int = DEFAULT_SEED, return_structure: bool = False):
    """Yule tree with n leaves by uniform leaf splitting; statistic is the
    cherry count (pairs of leaves sharing a parent).  Replicate 0 of
    batch_yule_cherries: step m splits the leaf in slot t into node 2m - 1,
    which stays in slot t, and node 2m, which takes slot m."""
    tgt, result = _grow_one(_YULE, "yule", seed, n, return_structure)
    if not return_structure:
        return result
    children: dict[int, list[int]] = {}
    leaves = [0]
    for m, t in enumerate(tgt.tolist(), 1):
        children[leaves[t]] = [2 * m - 1, 2 * m]
        leaves[t] = 2 * m - 1
        leaves.append(2 * m)
    parent = {0: -1} | {c: p for p, pair in children.items() for c in pair}
    return result, {"parent": parent, "children": children, "leaves": leaves}


def grow_recursive(kind: str, n: int, seed: int = DEFAULT_SEED, return_structure: bool = False):
    """Uniform or plane-oriented recursive tree on n vertices; statistic is
    the number of childless vertices.  Plane-oriented attachment picks a
    vertex with weight (children + 1), i.e. one of the 2m - 1 insertion
    slots of the plane embedding.  Replicate 0 of batch_recursive_leaves."""
    tgt, result = _grow_one(_recursive(kind), kind, seed, n, return_structure)
    if return_structure:
        parents = np.concatenate([[-1], tgt])
        return result, {"parents": parents, "nchildren": np.bincount(tgt, minlength=n)}
    return result


def grow_stirling(n: int, seed: int = DEFAULT_SEED, return_structure: bool = False):
    """Random Stirling permutation of {1,1,...,n,n} built by inserting the
    pair (k+1)(k+1) into one of the 2k+1 gaps uniformly; statistic is the
    plateau count (adjacent equal entries over positions 1..2n-1).
    Replicate 0 of batch_stirling_plateaux: with a = k+1, filling gap g of
    x [g] y gives x [g] a [2k+1] a [2k+2] y."""
    tgt, result = _grow_one(_STIRLING, "stirling", seed, n, return_structure)
    if not return_structure:
        return result
    # a linked list ending in -1: entries 2j and 2j+1 are the copies of label
    # j+1, so gap g follows entry g - 1 and gap 0 the head, in slot -1
    nxt = [0] * (2 * n + 1)
    nxt[0], nxt[1] = 1, -1
    for k, g in enumerate(tgt.tolist(), 1):
        nxt[2 * k + 1], nxt[g - 1], nxt[2 * k] = nxt[g - 1], 2 * k, 2 * k + 1
    code, e = [], nxt[-1]
    while e >= 0:
        code.append(e // 2 + 1)
        e = nxt[e]
    return result, {"code": tuple(code)}


# ---------------------------------------------------------------- batch runs


def batch_recursive_leaves(
    kind: str, n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Leaf counts of `reps` recursive trees; shape (reps,) at size n, or
    (reps, n) for all sizes 1..n with record_all."""
    return _grow_batch(_recursive(kind), seed, n, reps, record_all)


def batch_pa_leaves(
    beta: float, n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Leaf counts of `reps` preferential-attachment graphs G_n: a step
    copies the target of a uniform earlier step, else picks a uniform
    vertex, with the odds that make the weight deg + beta."""
    return _grow_batch(_pa(beta), seed, n, reps, record_all)


def batch_yule_cherries(
    n: int, reps: int, seed: int = DEFAULT_SEED, record_all: bool = False
) -> np.ndarray:
    """Cherry counts of `reps` Yule trees grown to n leaves."""
    return _grow_batch(_YULE, seed, n, reps, record_all)


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
    return _grow_batch(_STIRLING, seed, n, reps, record_all)


def batch_pa_buds(
    beta: float,
    gamma_pmf,
    n: int,
    reps: int,
    seed: int = DEFAULT_SEED,
    record_all: bool = False,
) -> np.ndarray:
    """Bud counts of `reps` quenched multigraphs sharing one gamma
    environment drawn from `seed`, with the two-stage target selection
    that realizes the chain exactly.  The bud count moves only with the
    stage-1 bud-vs-non-bud coin, so the vertex bookkeeping of stage 2 is
    marginalized out: one walker coin a step."""
    slopes = RandomizedPASlope(beta, *_coerce_pmf(gamma_pmf), seed)
    svals = slopes.values_float(max(n - 1, 1)).tolist()
    return _walk(make_generator(seed, _STREAM_TREES, _BUDS), 2, n, reps, svals, record_all)


def bud_lln_endpoints(
    beta: float, gamma_pmf, n: int, reps: int, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Bud counts at G_n, one independently drawn quenched environment per
    replicate.  Under the two-stage sampler the bud count depends only on
    the bud-vs-non-bud selections, so the vertex bookkeeping is
    marginalized out exactly; the chain walker steps each replicate on its
    own slopes, drawn a block of steps at a time."""
    # validates beta and the gamma pmf as batch_pa_buds does
    env = RandomizedPASlope(beta, *_coerce_pmf(gamma_pmf), seed)
    b = float(env.beta)
    gv_arr = np.array(env.gamma_values)
    cum_p = np.cumsum(env.gamma_probs)
    cum_p /= cum_p[-1]
    env_rng = make_generator(seed, _STREAM_TREES, 10)

    def slopes(rows):
        # one gamma per replicate and step; s_m reads the gammas of the
        # steps before m, an exclusive prefix sum carried across blocks.
        # With every gamma >= 1, s_1 = 2 = k0 and each step adds more
        # than 1 to s_m, so no state can pass its slope
        cum_gamma = np.zeros(reps, dtype=np.int64)
        for first in range(1, n, rows):
            m = np.arange(first, min(first + rows, n))[:, None]
            u = env_rng.random((len(m), reps))
            # searchsorted(cum_p, u): the weights below u, counted one
            # comparison at a time (u < 1 = cum_p[-1])
            idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cum_p)))
            for c in cum_p[:-1]:
                idx += u > c
            g = gv_arr[idx]
            before = np.cumsum(g, axis=0) - g + cum_gamma
            cum_gamma = before[-1] + g[-1]
            yield (2 + 2.0 * before + (m + 1) * b) / (1.0 + b)

    return _walk(make_generator(seed, _STREAM_TREES, 11), 2, n, reps, slopes)


# ------------------------------------------------------------ stat harnesses


def _ks_normal(samples: np.ndarray, sigma: float) -> float:
    """Kolmogorov-Smirnov distance between the samples' empirical CDF and
    N(0, sigma^2): max over sorted samples of i/n - F and F - (i-1)/n."""
    n = len(samples)
    cdf = ndtr(np.sort(samples) / sigma)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def verify_clt(model: ModelSpec, n: int, reps: int, seed: int = DEFAULT_SEED) -> StatReport:
    """Simulate Z_n and report CLT statistics: samples (Z_n - E Z_n)/sqrt(n),
    their variance, and the KS distance to N(0, sigma^2(alpha))."""
    z = simulate_endpoints(model, n, reps, seed)
    svals = _reachable(model.k0, model.slopes.values_float(max(n - 1, 1)))
    mean = float(model.k0)
    for m in range(1, n):
        mean = 1.0 + mean * (1.0 - 1.0 / svals[m - 1])
    samples = (z - mean) / math.sqrt(n)
    sigma = math.sqrt(sigma_sq(model.alpha))
    if reps > 1 and np.ptp(samples) > 0:
        ks = _ks_normal(samples, sigma)
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
    the chain's exact pmf.  stats has shape (reps, len(steps)), reps >= 1,
    and holds integers or whole-number floats; steps[i] is the chain index
    n the i-th column corresponds to.

    One histogram holds every column: its support, then one overflow bin
    for the values outside it, filled a block of at most _BLOCK values at
    a time."""
    steps = list(steps)
    stats = np.asarray(stats)
    if stats.ndim != 2 or stats.shape[1] != len(steps) or stats.shape[0] == 0:
        raise ValueError(
            f"stats must have shape (reps, {len(steps)}) with reps >= 1, one column per step; "
            f"got shape {stats.shape}"
        )
    if stats.dtype.kind == "f":  # counts held as floats
        if not np.all(np.isfinite(stats) & (np.floor(stats) == stats)):
            raise ValueError("stats must hold whole numbers; got a non-integer or non-finite value")
        stats = stats.astype(np.int64)
    reps = stats.shape[0]
    pmfs = dist.pmf_snapshots(model, steps)
    size = np.array([pmfs[n].n for n in steps])
    start = np.cumsum(size + 1) - (size + 1)  # a column's support, then its overflow bin
    hist = np.zeros(start[-1] + size[-1] + 1, dtype=np.int64)
    k0 = [pmfs[n].k0 for n in steps]
    rows = max(1, _BLOCK // len(steps))
    for lo in range(0, reps, rows):
        col = np.subtract(stats[lo : lo + rows], k0, dtype=np.int64)
        # read as unsigned, a value below k0 lies above the support too
        np.minimum(col.view(np.uint64), size.astype(np.uint64), out=col.view(np.uint64))
        col += start
        hist += np.bincount(col.ravel(), minlength=len(hist))
    out = np.empty(len(steps))
    for i, n in enumerate(steps):
        counts = hist[start[i] : start[i] + size[i]]
        emp = counts / reps
        exact = pmfs[n].probs()
        overflow = 1.0 - counts.sum() / reps  # any mass outside the support
        out[i] = 0.5 * (np.abs(emp - exact).sum() + overflow)
    return out
