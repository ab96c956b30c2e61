"""Tree growers: exact small-case laws, structural bookkeeping, and
agreement in distribution with the counting chain."""

import re
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from treeldp import chain, dist, trees
from treeldp import (
    DEFAULT_SEED,
    AffineSlope,
    LinearSlope,
    ModelSpec,
    PrefAttachSlope,
    RandomizedPASlope,
    batch_pa_buds,
    batch_pa_leaves,
    batch_recursive_leaves,
    batch_stirling_plateaux,
    batch_yule_cherries,
    bud_lln_endpoints,
    grow_pa_graph,
    grow_recursive,
    grow_stirling,
    grow_yule,
    model_from_name,
    simulate,
    simulate_endpoints,
    tv_against_chain,
    verify_clt,
)
from treeldp.chain import _BLOCK, make_generator
from treeldp.trees import _STREAM_TREES, _ks_normal

GAMMA_HALF = {1: 0.5, 2: 0.5}


# ------------------------------------------------------------ small cases


def test_forced_small_trees():
    # a cherry is forced with 2 or 3 leaves
    assert grow_yule(2).statistic == 1
    assert grow_yule(3).statistic == 1
    assert grow_yule(1).statistic == 0
    # the identity permutation 11 has one plateau
    res, extra = grow_stirling(1, return_structure=True)
    assert res.statistic == 1
    assert extra["code"] == (1, 1)
    # the seed graph is a single edge: both endpoints are leaves
    assert grow_pa_graph(0.0, 2).statistic == 2
    # one- and two-vertex recursive trees
    for kind in ("uniform", "plane_oriented"):
        assert grow_recursive(kind, 1).statistic == 1
        assert grow_recursive(kind, 2).statistic == 1


def test_stirling_pair_insertion_law():
    # inserting 22 into 11 gives 2211/1221/1122: plateaux 2 w.p. 2/3, 1 w.p. 1/3
    reps = 30000
    z = batch_stirling_plateaux(2, reps, seed=5)
    freq_one = np.mean(z == 1)
    assert set(np.unique(z)) == {1, 2}
    assert abs(freq_one - 1 / 3) <= 3 * np.sqrt((1 / 3) * (2 / 3) / reps)


def test_grower_labels():
    assert grow_yule(4).model == "yule"
    assert grow_stirling(4).model == "stirling"
    assert grow_recursive("uniform", 4).model == "uniform"
    assert grow_recursive("plane_oriented", 4).model == "plane_oriented"
    assert grow_pa_graph(0.5, 4).model == "pa:beta=0.5"
    bud = grow_pa_graph(0.0, 4, seed=9, multi_edge_pmf=GAMMA_HALF)
    assert bud.model == "rpa:beta=0,gamma=1@0.5+2@0.5,seed=9"
    assert bud.n == 4 and bud.seed == 9


def test_grower_validation():
    with pytest.raises(ValueError):
        grow_pa_graph(-1.5, 5)
    with pytest.raises(ValueError):
        grow_recursive("binary", 5)
    with pytest.raises(ValueError):
        grow_stirling(0)
    with pytest.raises(ValueError):
        grow_yule(0)
    for n in (0, -4):
        for record_all in (False, True):
            with pytest.raises(ValueError, match="n must be >= 1"):
                batch_pa_buds(0.0, {1: 1.0}, n, 3, record_all=record_all)
        with pytest.raises(ValueError, match="n must be >= 1"):
            bud_lln_endpoints(0.0, {1: 1.0}, n, 3)
    # as batch_pa_buds: beta = -1 made every slope infinite
    for beta in (-1.0, -1.5, -2.0):
        with pytest.raises(ValueError, match="beta > -1"):
            bud_lln_endpoints(beta, {1: 0.5, 2: 0.5}, 50, 4, 1)
    # as batch_pa_buds: every gamma is at least 1, and the weights are
    # nonnegative with positive mass
    for gamma, msg in (({0: 1.0}, "positive integers"), ({1: -0.5, 2: 1.5}, "nonnegative weights"),
                       ({1: 0, 2: 0}, "nonnegative weights"), ({-1: 1.0}, "positive integers")):
        for run in (bud_lln_endpoints, batch_pa_buds):
            with pytest.raises(ValueError, match=msg):
                run(0.0, gamma, 50, 4, 1)


# --------------------------------------------- exact laws by enumeration
# Every history of each combinatorial object, grown by its own rule and
# weighted with exact Fractions, with the statistic counted on the object
# itself: its law is the chain's exact_poly, coefficient for coefficient.


def _recursive_moves(children, plane):
    # attach a new vertex to v with weight 1, or children + 1 when plane
    return [(children[:v] + (c + 1,) + children[v + 1 :] + (0,), c + 1 if plane else 1)
            for v, c in enumerate(children)]


def _yule_moves(parents):
    # split a leaf (a node no other node names as its parent) into two
    return [(parents + (leaf, leaf), 1) for leaf in range(len(parents)) if leaf not in parents]


def _cherries_of(parents):
    kids = [[i for i, p in enumerate(parents) if p == node] for node in range(len(parents))]
    return sum(len(k) == 2 and not kids[k[0]] and not kids[k[1]] for k in kids)


def _stirling_moves(code):
    # insert the pair of the next label into one of the 2k + 1 gaps
    a = len(code) // 2 + 1
    return [(code[:g] + (a, a) + code[g:], 1) for g in range(len(code) + 1)]


ENUMERATED = {
    # name: (start, moves, statistic, chain preset, chain step of the start)
    "uniform leaves": ((0,), partial(_recursive_moves, plane=False),
                       lambda ch: ch.count(0), "uniform", 1),
    "plane-oriented leaves": ((0,), partial(_recursive_moves, plane=True),
                              lambda ch: ch.count(0), "plane_oriented", 1),
    "Yule cherries": ((-1,), _yule_moves, _cherries_of, "yule", 1),
    "Stirling plateaux": ((1, 1), _stirling_moves,
                          lambda code: sum(a == b for a, b in zip(code, code[1:])), "plane_oriented", 2),
}


@pytest.mark.parametrize("start, moves, stat, preset, first", ENUMERATED.values(), ids=list(ENUMERATED))
def test_every_history_reproduces_the_exact_chain_law(start, moves, stat, preset, first):
    model = model_from_name(preset)
    level = [(start, Fraction(1))]
    # uniform, plane-oriented and Yule trees up to n = 7, Stirling up to 6 labels
    for n in range(first, 8):
        want = dist.exact_poly(model, n).coeffs
        law = [Fraction(0)] * len(want)
        for obj, p in level:
            law[stat(obj)] += p
        assert tuple(law) == want, n
        grown = []
        for obj, p in level:
            options = moves(obj)
            total = sum(w for _, w in options)
            grown += [(nxt, p * Fraction(w, total)) for nxt, w in options]
        level = grown


# Every public batch function and walker, and the slope constructors, with
# one argument out of its domain: each refuses with a ValueError that names
# that argument, never a bare numpy error, a ZeroDivisionError or a value.
SIZED = {
    "batch_recursive_leaves": partial(batch_recursive_leaves, "uniform"),
    "batch_pa_leaves": partial(batch_pa_leaves, 0.0),
    "batch_yule_cherries": batch_yule_cherries,
    "batch_stirling_plateaux": batch_stirling_plateaux,
    "batch_pa_buds": partial(batch_pa_buds, 0.0, GAMMA_HALF),
    "bud_lln_endpoints": partial(bud_lln_endpoints, 0.0, GAMMA_HALF),
    "simulate_endpoints": partial(simulate_endpoints, model_from_name("plane_oriented")),
    "verify_clt": partial(verify_clt, model_from_name("plane_oriented")),
}
BETA_TAKERS = {
    "batch_pa_leaves": lambda beta: batch_pa_leaves(beta, 10, 5),
    "grow_pa_graph": lambda beta: grow_pa_graph(beta, 10),
    "grow_pa_graph buds": lambda beta: grow_pa_graph(beta, 10, multi_edge_pmf=GAMMA_HALF),
    "batch_pa_buds": lambda beta: batch_pa_buds(beta, GAMMA_HALF, 10, 5),
    "PrefAttachSlope": PrefAttachSlope,
}
REFUSALS = (
    [(f"{name} n={n}", partial(run, n, 5), "n") for name, run in SIZED.items() for n in (0, -4)]
    + [(f"{name} reps={r}", partial(run, 10, r), "reps") for name, run in SIZED.items() for r in (0, -1)]
    + [(f"{name} beta={b}", partial(run, b), "beta")
       for name, run in BETA_TAKERS.items() for b in (np.nan, np.inf, -1.0)]
    + [(f"gamma weight {w}", partial(batch_pa_buds, 0.0, {1: w, 2: 0.5}, 10, 5), "gamma")
       for w in (np.nan, np.inf)]
    + [(f"LinearSlope({a})", partial(LinearSlope, a), "alpha") for a in (np.nan, np.inf)]
    # rationals too large for a double
    + [("LinearSlope(10**400)", partial(LinearSlope, 10**400), "alpha"),
       ("PrefAttachSlope(Fraction(10**400))", partial(PrefAttachSlope, Fraction(10**400)), "beta"),
       ("AffineSlope(1, 10**400)", partial(AffineSlope, 1, 10**400, "x"), "b")]
    + [("LinearSlope('1/0')", partial(LinearSlope, "1/0"), "alpha")]
)


@pytest.mark.parametrize("run, arg", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_out_of_domain_arguments_are_refused_by_name(run, arg):
    with pytest.raises(ValueError, match=rf"\b{arg}\b"):
        run()


def test_overflowing_gamma_weights_are_refused_without_a_warning():
    # the weights are finite, their sum is not; the refusal comes before any
    # RuntimeWarning (which the test configuration turns into an error)
    with pytest.raises(ValueError, match="nonnegative weights with a finite sum"):
        RandomizedPASlope(0, (1, 2), (1e308, 1e308), 1)
    with pytest.raises(ValueError, match="nonnegative weights"):
        model_from_name("rpa:beta=0,gamma=1@1e308+2@1e308,seed=1")


# ------------------------------------------------------- structure recounts


def test_pa_structure_recount():
    res, extra = grow_pa_graph(1.0, 40, seed=17, return_structure=True)
    degrees, edges = extra["degrees"], extra["edges"]
    assert len(edges) == 40  # one seed edge plus one per arrival
    recount = np.zeros_like(degrees)
    for a, b, g in edges:
        recount[a] += g
        recount[b] += g
    np.testing.assert_array_equal(recount, degrees)
    assert degrees.sum() == 2 * 40
    assert res.statistic == int(np.sum(degrees == 1))


def test_bud_structure_recount():
    res, extra = grow_pa_graph(0.0, 30, seed=23, multi_edge_pmf=GAMMA_HALF, return_structure=True)
    degrees, edges, is_bud = extra["degrees"], extra["edges"], extra["is_bud"]
    recount = np.zeros_like(degrees)
    neighbors = [set() for _ in range(len(degrees))]
    for a, b, g in edges:
        recount[a] += g
        recount[b] += g
        neighbors[a].add(b)
        neighbors[b].add(a)
    np.testing.assert_array_equal(recount, degrees)
    # a bud is exactly a vertex with a single distinct neighbor
    np.testing.assert_array_equal(is_bud, np.array([len(s) == 1 for s in neighbors]))
    assert res.statistic == int(is_bud.sum())


def test_recursive_structure_recount():
    res, extra = grow_recursive("plane_oriented", 50, seed=31, return_structure=True)
    parents, nchildren = extra["parents"], extra["nchildren"]
    assert parents[0] == -1
    assert np.all(parents[1:] < np.arange(1, 50))
    np.testing.assert_array_equal(np.bincount(parents[1:], minlength=50), nchildren)
    assert res.statistic == int(np.sum(nchildren == 0))


def test_yule_structure_recount():
    res, extra = grow_yule(30, seed=41, return_structure=True)
    children, leaves = extra["children"], extra["leaves"]
    assert len(leaves) == 30
    leafset = set(leaves)
    assert not (leafset & children.keys())  # internal nodes are not leaves
    cherries = sum(1 for a, b in children.values() if a in leafset and b in leafset)
    assert res.statistic == cherries


def test_stirling_structure_recount():
    for n in range(1, 41):
        for seed in (0, 5):
            res, extra = grow_stirling(n, seed=seed, return_structure=True)
            code = extra["code"]
            assert sorted(code) == sorted(2 * list(range(1, n + 1)))
            for a in range(1, n + 1):
                i = code.index(a)
                j = code.index(a, i + 1)
                assert all(b > a for b in code[i + 1 : j]), (n, seed, a)
            assert res.statistic == sum(a == b for a, b in zip(code, code[1:]))


def test_statistic_stays_in_chain_support():
    for name, run in [
        ("yule", lambda s: grow_yule(12, seed=s)),
        ("uniform", lambda s: grow_recursive("uniform", 12, seed=s)),
        ("plane_oriented", lambda s: grow_recursive("plane_oriented", 12, seed=s)),
        ("pa:beta=0", lambda s: grow_pa_graph(0.0, 12, seed=s)),
        ("plane_oriented", lambda s: grow_stirling(11, seed=s)),  # step 12
    ]:
        k0 = model_from_name(name).k0
        for s in range(20):
            stat = run(s).statistic
            assert k0 <= stat <= k0 + 11, (name, s, stat)


# ----------------------------------------------------------------- batches


def test_batch_determinism_and_seed_sensitivity():
    a = batch_pa_leaves(0.0, 30, 100, seed=5)
    b = batch_pa_leaves(0.0, 30, 100, seed=5)
    c = batch_pa_leaves(0.0, 30, 100, seed=6)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_batch_forced_values():
    assert np.all(batch_pa_leaves(0.0, 2, 50) == 2)
    assert np.all(batch_yule_cherries(3, 50) == 1)
    assert np.all(batch_recursive_leaves("uniform", 2, 50) == 1)


def test_batch_record_all_shapes_and_increments():
    out = batch_recursive_leaves("plane_oriented", 25, 40, seed=2, record_all=True)
    assert out.shape == (40, 25)
    assert np.all(out[:, 0] == 1)
    steps = np.diff(out, axis=1)
    assert np.all((steps == 0) | (steps == 1))
    # final column equals the plain run with the same seed
    np.testing.assert_array_equal(out[:, -1], batch_recursive_leaves("plane_oriented", 25, 40, seed=2))


def test_batch_stirling_record_all_matches_final():
    out = batch_stirling_plateaux(9, 200, seed=3, record_all=True)
    np.testing.assert_array_equal(out[:, -1], batch_stirling_plateaux(9, 200, seed=3))
    assert np.all(out[:, 0] == 1)


# ---------------------------------------------------- single runs vs batches

# (label, single run(n, seed), batch(n, reps, seed)); the single run is
# replicate 0 of its batch at reps = 1
SINGLE_AND_BATCH = [
    ("uniform", lambda n, s: grow_recursive("uniform", n, s),
     lambda n, r, s: batch_recursive_leaves("uniform", n, r, s)),
    ("plane", lambda n, s: grow_recursive("plane_oriented", n, s),
     lambda n, r, s: batch_recursive_leaves("plane_oriented", n, r, s)),
    *[
        (f"pa{beta:g}", lambda n, s, b=beta: grow_pa_graph(b, n, s),
         lambda n, r, s, b=beta: batch_pa_leaves(b, n, r, s))
        for beta in (0.0, 1.0, -0.5, 2.5)
    ],
    ("yule", grow_yule, batch_yule_cherries),
    ("stirling", grow_stirling, batch_stirling_plateaux),
    *[
        (f"buds{i}", lambda n, s, g=gamma: grow_pa_graph(0.5, n, s, multi_edge_pmf=g),
         lambda n, r, s, g=gamma: batch_pa_buds(0.5, g, n, r, s))
        for i, gamma in enumerate((GAMMA_HALF, {1: 0.2, 3: 0.8}))
    ],
]


@pytest.mark.parametrize("label, single, batch", SINGLE_AND_BATCH, ids=[g[0] for g in SINGLE_AND_BATCH])
def test_single_run_is_replicate_zero_of_its_batch(label, single, batch):
    for n in (1, 2, 3, 9, 40):
        for seed in (0, 1, 7, 99):
            assert single(n, seed).statistic == batch(n, 1, seed)[0], (label, n, seed)


def test_pa_graph_takes_a_rational_beta_and_labels_it_as_the_preset():
    for s in (0, 1, 7):
        result = grow_pa_graph(Fraction(1, 2), 10, s)
        assert result.model == model_from_name("pa:beta=1/2").label()
        assert result.statistic == batch_pa_leaves(Fraction(1, 2), 10, 1, s)[0]
    assert grow_pa_graph(1.0, 10).model == model_from_name("pa:beta=1").label() == "pa:beta=1"
    assert grow_pa_graph(-0.5, 10).model == "pa:beta=-0.5"


# ------------------------------------------------------------ batch kernel

# (label, grower(n, reps, seed, record_all), preset, chain step of size n)
BATCH_GROWERS = [
    ("uniform", lambda n, r, s, rec: batch_recursive_leaves("uniform", n, r, s, rec), "uniform", 0),
    (
        "plane",
        lambda n, r, s, rec: batch_recursive_leaves("plane_oriented", n, r, s, rec),
        "plane_oriented",
        0,
    ),
    ("pa0", lambda n, r, s, rec: batch_pa_leaves(0.0, n, r, s, rec), "pa:beta=0", 0),
    ("pa1", lambda n, r, s, rec: batch_pa_leaves(1.0, n, r, s, rec), "pa:beta=1", 0),
    ("pa-1/2", lambda n, r, s, rec: batch_pa_leaves(-0.5, n, r, s, rec), "pa:beta=-1/2", 0),
    ("pa5/2", lambda n, r, s, rec: batch_pa_leaves(2.5, n, r, s, rec), "pa:beta=5/2", 0),
    ("yule", lambda n, r, s, rec: batch_yule_cherries(n, r, s, rec), "yule", 0),
    # k labels of a Stirling permutation follow the plane-oriented chain at step k + 1
    ("stirling", lambda n, r, s, rec: batch_stirling_plateaux(n, r, s, rec), "plane_oriented", 1),
    (
        "buds",
        # the environment is drawn from the seed, so seed 13 keeps the preset's chain
        lambda n, r, s, rec: batch_pa_buds(0.0, GAMMA_HALF, n, r, 13, record_all=rec),
        "rpa:beta=0,gamma=1@0.5+2@0.5,seed=13",
        0,
    ),
]

each_batch_grower = pytest.mark.parametrize(
    "label, grow, preset, shift", BATCH_GROWERS, ids=[g[0] for g in BATCH_GROWERS]
)


@each_batch_grower
def test_batch_record_all_matches_chain_at_every_size(label, grow, preset, shift):
    n = 12 - shift
    stats = grow(n, 200_000, 3, True)
    tv = tv_against_chain(stats, model_from_name(preset), range(1 + shift, n + 1 + shift))
    assert tv.max() <= 0.01, (label, tv)


@each_batch_grower
def test_batch_last_column_is_the_endpoint_run(label, grow, preset, shift):
    for n, reps in ((1, 5), (2, 5), (9, 300), (40, 7000)):
        out = grow(n, reps, 4, True)
        assert out.shape == (reps, n)
        np.testing.assert_array_equal(out[:, -1], grow(n, reps, 4, False))


# the statistic at sizes 1 and 2 (None: not forced)
FORCED = {
    "uniform": (1, 1), "plane": (1, 1), "pa0": (2, 2), "pa1": (2, 2), "pa-1/2": (2, 2),
    "pa5/2": (2, 2), "yule": (0, 1), "stirling": (1, None), "buds": (2, 2),
}


@each_batch_grower
def test_batch_forced_small_sizes(label, grow, preset, shift):
    for n in (1, 2):
        out = grow(n, 20, 6, True)
        for j, want in enumerate(FORCED[label][:n]):
            if want is not None:
                assert np.all(out[:, j] == want), (label, n, j)
        np.testing.assert_array_equal(grow(n, 20, 6, False), out[:, -1])


@each_batch_grower
def test_batch_spanning_blocks_stays_in_chain_support(label, grow, preset, shift):
    # more replicates than one block of the kernel holds at n = 12
    n = 12 - shift
    reps = _BLOCK // (n - 1) + 1000
    out = grow(n, reps, 8, True)
    s = model_from_name(preset).slopes.values_float(n + shift)[shift:]
    assert np.all(out >= 0) and np.all(out <= s)
    steps = np.diff(out, axis=1)
    assert np.all((steps == 0) | (steps == 1))
    # the second block draws afresh rather than repeating the first
    rows = _BLOCK // (n - 1)
    assert np.any(out[:1000] != out[rows:])


# ------------------------------------------- pointer-jumping reference kernel


def _ref_targets(rng, rows, steps, copies, v0, dv, weight=1.0):
    """Targets of steps m = 1..steps with every copy resolved by pointer
    jumping: copy unit r takes the target of step r + 1."""
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


def _ref_per_target(ufunc, tgt, empty):
    rows, steps = tgt.shape
    width = int(tgt.max(initial=0)) + 1
    key = (tgt + width * np.arange(rows)[:, None]).ravel()
    red = np.full(rows * width, empty)
    ufunc.at(red, key, np.tile(np.arange(1, steps + 1), rows))
    return red.reshape(rows, width), red[key].reshape(rows, steps)


def _ref_unhit(tgt, record_all, base, odd=False):
    rows, steps = tgt.shape
    m = np.arange(1, steps + 1)
    fresh = _ref_per_target(np.minimum, tgt, steps + 1)[1] == m
    if odd:
        fresh &= tgt % 2 == 1
    if not record_all:
        return base + steps - fresh.sum(axis=1)
    out = np.empty((rows, steps + 1), dtype=np.int64)
    out[:, 0] = base
    out[:, 1:] = base + m - np.cumsum(fresh, axis=1)
    return out


def _ref_cherries(tgt, record_all):
    rows, steps = tgt.shape
    m = np.arange(1, steps + 1)
    hits = _ref_per_target(np.minimum, tgt, steps + 1)[0]
    child = np.full((rows, steps), steps + 1)
    child[:, : hits.shape[1] - 1] = hits[:, 1:]
    if not record_all:
        is_last = _ref_per_target(np.maximum, tgt, 0)[1] == m
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


# label -> (sub-stream, law, reference count), with the sub-streams written out
KERNEL_REFERENCE = {
    "uniform": (5, (False, 0, 1), partial(_ref_unhit, base=1)),
    "plane": (5, (True, 0, 1), partial(_ref_unhit, base=1)),
    **{
        label: (6, (True, 1, 1, 1.0 + beta), partial(_ref_unhit, base=2))
        for label, beta in (("pa0", 0.0), ("pa1", 1.0), ("pa-1/2", -0.5), ("pa5/2", 2.5))
    },
    "yule": (7, (False, 0, 1), _ref_cherries),
    "stirling": (8, (False, 1, 2), partial(_ref_unhit, base=1, odd=True)),
}

# label -> single run(n, seed, return_structure)
SINGLE_RUNS = {
    "uniform": lambda n, s, st: grow_recursive("uniform", n, s, st),
    "plane": lambda n, s, st: grow_recursive("plane_oriented", n, s, st),
    "pa0": lambda n, s, st: grow_pa_graph(0.0, n, s, return_structure=st),
    "pa1": lambda n, s, st: grow_pa_graph(1.0, n, s, return_structure=st),
    "pa-1/2": lambda n, s, st: grow_pa_graph(-0.5, n, s, return_structure=st),
    "pa5/2": lambda n, s, st: grow_pa_graph(2.5, n, s, return_structure=st),
    "yule": grow_yule,
    "stirling": grow_stirling,
}


def _ref_batch(label, n, reps, seed, record_all):
    """The grower's statistic from the reference kernel, block by block."""
    stream, law, count = KERNEL_REFERENCE[label]
    rng = make_generator(seed, _STREAM_TREES, stream)
    rows = max(1, _BLOCK // max(n - 1, 1))
    return np.concatenate(
        [count(_ref_targets(rng, min(rows, reps - lo), n - 1, *law), record_all)
         for lo in range(0, reps, rows)]
    )


kernel_growers = pytest.mark.parametrize(
    "label, grow, preset, shift",
    [g for g in BATCH_GROWERS if g[0] in KERNEL_REFERENCE],
    ids=[g[0] for g in BATCH_GROWERS if g[0] in KERNEL_REFERENCE],
)


@kernel_growers
def test_kernel_equals_the_pointer_jumping_reference(label, grow, preset, shift):
    for n in (1, 2, 3, 9, 40, 333, 2000, 30011):
        reps = 40 if n <= 2000 else 3
        for seed in (0, 1, 7):
            for record_all in (False, True):
                want = _ref_batch(label, n, reps, seed, record_all)
                assert np.array_equal(grow(n, reps, seed, record_all), want), (n, seed, record_all)
    # many blocks of the kernel
    for record_all in (False, True):
        want = _ref_batch(label, 12, 300_000, 2, record_all)
        assert np.array_equal(grow(12, 300_000, 2, record_all), want), record_all


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@kernel_growers
def test_single_runs_and_structures_equal_the_reference(label, grow, preset, shift, monkeypatch):
    # the structures rebuilt from the reference kernel's resolved targets
    stream, law, count = KERNEL_REFERENCE[label]
    single = SINGLE_RUNS[label]
    cases = [(n, seed) for n in (1, 2, 3, 9, 40, 333, 2000) for seed in (0, 1, 7)]
    got = [single(n, seed, True) for n, seed in cases]

    def reference_blocks(rng, reps, steps, copies, v0, dv, weight=1.0, resolve=False):
        yield _ref_targets(rng, reps, steps, copies, v0, dv, weight), v0 + dv * steps

    monkeypatch.setattr(trees, "_targets", reference_blocks)
    want = [single(n, seed, True) for n, seed in cases]
    monkeypatch.undo()
    for (n, seed), (res, extra), (_, want_extra) in zip(cases, got, want):
        tgt = _ref_targets(make_generator(seed, _STREAM_TREES, stream), 1, n - 1, *law)
        assert res.statistic == count(tgt, False)[0], (n, seed)
        assert single(n, seed, False) == res
        assert _same(extra, want_extra), (n, seed)


# ------------------------------------------------- distributional agreement


def test_batch_growers_match_chain_distribution():
    reps = 20000
    cases = [
        (batch_recursive_leaves("uniform", 8, reps, seed=11), "uniform", 8),
        (batch_pa_leaves(1.0, 6, reps, seed=13), "pa:beta=1", 6),
        (batch_yule_cherries(8, reps, seed=15), "yule", 8),
    ]
    for stats, preset, n in cases:
        tv = tv_against_chain(stats.reshape(-1, 1), model_from_name(preset), [n])
        assert tv[0] <= 0.02, (preset, tv)


def test_stirling_plateaux_match_plane_chain():
    # labels 1..7 (length-14 permutation) correspond to chain step 8
    reps = 100000
    stats = batch_stirling_plateaux(7, reps, seed=21)
    tv = tv_against_chain(stats.reshape(-1, 1), model_from_name("plane_oriented"), [8])
    assert tv[0] <= 0.01


def test_bud_batch_matches_quenched_chain():
    reps = 30000
    stats = batch_pa_buds(0.0, GAMMA_HALF, 8, reps, seed=13)
    model = model_from_name("rpa:beta=0,gamma=1@0.5+2@0.5,seed=13")
    tv = tv_against_chain(stats.reshape(-1, 1), model, [8])
    assert tv[0] <= 0.02


def _coin_up(rng, z, s):
    """The chain's step from states z at slopes s > 0, by its own rule:
    one 32-bit coin U per replicate, up when U < (s - z)*(2^32/s)."""
    return rng.integers(0, 2**32, len(z), dtype=np.uint32) < (s - z) * (2**32 / s)


def _two_stage_buds(beta, gamma_pmf, n, reps, seed, record_all=False):
    """The full two-stage bud sampler, vertex bookkeeping and all: a bud
    target with probability Z/s, otherwise a non-bud by weight deg + beta."""
    gv, gp = zip(*sorted(gamma_pmf.items()))
    slopes = RandomizedPASlope(beta, gv, gp, seed)
    gammas = slopes.gammas(max(n - 1, 1))
    svals = slopes.values_float(max(n - 1, 1))
    rng = make_generator(seed, _STREAM_TREES, 9)
    target_rng = make_generator(seed, _STREAM_TREES, 12)
    rows = np.arange(reps)
    degrees = np.zeros((reps, n + 1), dtype=np.int32)
    degrees[:, 0] = degrees[:, 1] = 1
    is_bud = np.zeros((reps, n + 1), dtype=bool)
    is_bud[:, 0] = is_bud[:, 1] = True
    z = np.full(reps, 2, dtype=np.int64)
    out = np.empty((reps, n), dtype=np.int64)
    out[:, 0] = z
    for m in range(1, n):
        g = int(gammas[m - 1])
        pick_bud = ~_coin_up(rng, z, svals[m - 1])
        w_bud = np.where(is_bud[:, : m + 1], 1.0, 0.0)
        w_non = np.where(is_bud[:, : m + 1], 0.0, degrees[:, : m + 1] + beta)
        cum = np.cumsum(np.where(pick_bud[:, None], w_bud, w_non), axis=1)
        r = target_rng.random(reps) * cum[:, -1]
        target = np.minimum(np.sum(cum <= r[:, None], axis=1), m)
        z += 1 - is_bud[rows, target]
        is_bud[rows, target] = False
        degrees[rows, target] += g
        degrees[:, m + 1] = g
        is_bud[:, m + 1] = True
        out[:, m] = z
    return out if record_all else z


@pytest.mark.parametrize("beta", [0.0, 1.0, 0.5, -0.5, 2.5])
@pytest.mark.parametrize("seed", [0, 7, 99])
def test_bud_batch_equals_two_stage_sampler(beta, seed):
    # the bud count moves only with the stage-1 coin, so the batch grower
    # must reproduce the full sampler's realizations bit for bit
    for gamma in (GAMMA_HALF, {1: 0.2, 3: 0.8}):
        for record_all in (False, True):
            want = _two_stage_buds(beta, gamma, 25, 40, seed, record_all)
            got = batch_pa_buds(beta, gamma, 25, 40, seed, record_all=record_all)
            assert np.array_equal(got, want)


def _batch_pa_buds_reference(beta, gamma_pmf, n, reps, seed, record_all=False):
    """batch_pa_buds one step at a time, one coin per replicate and step."""
    gv, gp = zip(*sorted(gamma_pmf.items()))
    svals = RandomizedPASlope(beta, gv, gp, seed).values_float(max(n - 1, 1))
    rng = make_generator(seed, _STREAM_TREES, 9)
    z = np.full(reps, 2, dtype=np.int64)
    out = np.empty((reps, n), dtype=np.int64)
    out[:, 0] = z
    for m in range(1, n):
        z += _coin_up(rng, z, svals[m - 1])
        out[:, m] = z
    return out if record_all else z


def _bud_lln_reference(beta, gamma_pmf, n, reps, seed):
    """bud_lln_endpoints one step at a time: one environment draw and one
    coin per replicate and step, the draw taking numpy's choice rule
    (searchsorted right on the normalised cumulative weights)."""
    gv, gp = zip(*sorted(gamma_pmf.items()))
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
        z += _coin_up(sim_rng, z, s)
        cum_gamma += gv_arr[np.searchsorted(cum_p, env_rng.random(reps), side="right")]
    return z


# the block budget shrunk so that every shape below costs little:
# (n, reps): reps = 1 walks _SMALL_BLOCK steps per block (one block, then
# two), reps >= _SMALL_BLOCK one step per block, reps = 30 34 steps per
# block with a ragged last block, and reps = 3 341 steps per block, an odd
# number of coins, so that each block leaves half a Philox word to the next
_SMALL_BLOCK = 1 << 10
WALKER_SHAPES = ((1, 3), (2, 1), (200, 1), (_SMALL_BLOCK + 10, 1), (40, _SMALL_BLOCK),
                 (7, _SMALL_BLOCK + 50), (200, 30), (700, 3))


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(chain, "_BLOCK", _SMALL_BLOCK)


@pytest.mark.usefixtures("small_block")
@pytest.mark.parametrize("beta", [0.0, 1.5])
def test_bud_batch_equals_the_per_step_walk(beta):
    for seed, (n, reps) in enumerate(WALKER_SHAPES):
        for gamma in (GAMMA_HALF, {1: 0.2, 3: 0.8}):
            for record_all in (False, True):
                want = _batch_pa_buds_reference(beta, gamma, n, reps, seed, record_all)
                got = batch_pa_buds(beta, gamma, n, reps, seed, record_all=record_all)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (n, reps, seed, record_all)


@pytest.mark.usefixtures("small_block")
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_bud_lln_equals_the_per_step_walk(beta):
    # the zero weights tie cumulative weights, inside and at the end
    for gamma in (GAMMA_HALF, {1: 0.3, 2: 0.0, 3: 0.7}, {1: 0.5, 2: 0.5, 3: 0.0}):
        for seed, (n, reps) in enumerate(WALKER_SHAPES):
            want = _bud_lln_reference(beta, gamma, n, reps, seed)
            got = bud_lln_endpoints(beta, gamma, n, reps, seed)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (gamma, n, reps, seed)


def test_bud_lln_slopes_are_correctly_rounded_at_a_rational_beta(monkeypatch):
    # each per-replicate slope the walker gets is the double nearest the
    # exact s_m = (2 + 2 cum + (m+1) beta)/(1 + beta) of its gamma sum cum
    beta = Fraction(1, 3)
    blocks = []

    def walk(rng, k0, n, reps, slopes):
        blocks.extend(row for block in slopes(50) for row in block)
        return np.zeros(reps, dtype=np.int64)

    monkeypatch.setattr(trees, "_walk", walk)
    bud_lln_endpoints(beta, GAMMA_HALF, 201, 10, seed=1)
    assert len(blocks) == 200
    for m, row in enumerate(blocks, 1):
        for s in row.tolist():
            cum = round((Fraction(s) * (1 + beta) - 2 - (m + 1) * beta) / 2)
            assert s == float((2 + 2 * cum + (m + 1) * beta) / (1 + beta)), (m, s)


def test_bud_single_run_with_structure_is_its_batch_of_one():
    for n in (1, 2, 3, 9, 40):
        for seed in (0, 1, 7, 99):
            for gamma in (GAMMA_HALF, {1: 0.2, 3: 0.8}):
                res, extra = grow_pa_graph(0.5, n, seed, multi_edge_pmf=gamma, return_structure=True)
                assert res.statistic == batch_pa_buds(0.5, gamma, n, 1, seed)[0], (n, seed)
                assert res.statistic == int(extra["is_bud"].sum())
                assert res == grow_pa_graph(0.5, n, seed, multi_edge_pmf=gamma)


def test_bud_single_run_count_is_linear_in_n():
    # without the structure the count is the walker at reps = 1, O(n); the
    # vertex bookkeeping is O(n^2)
    n = 100_000
    res = grow_pa_graph(0.0, n, 5, multi_edge_pmf=GAMMA_HALF)
    assert res.statistic == batch_pa_buds(0.0, GAMMA_HALF, n, 1, 5)[0]


def test_degenerate_buds_reduce_to_plain_pa():
    reps = 30000
    stats = batch_pa_buds(0.0, {1: 1.0}, 8, reps, seed=7)
    tv = tv_against_chain(stats.reshape(-1, 1), model_from_name("pa:beta=0"), [8])
    assert tv[0] <= 0.02


def test_tv_harness_on_synthetic_columns():
    model = model_from_name("uniform")
    # Z_3 is 1 or 2 with probability 1/2 each: a perfectly split sample has TV 0
    stats = np.array([[1], [2], [1], [2]])
    assert tv_against_chain(stats, model, [3])[0] == pytest.approx(0.0, abs=1e-15)
    # mass entirely outside the support counts as distance 1
    stats = np.array([[99], [99]])
    assert tv_against_chain(stats, model, [3])[0] == pytest.approx(1.0, abs=1e-15)


def _tv_reference(stats, model, steps):
    """tv_against_chain as one masked bincount per column."""
    pmfs = dist.pmf_snapshots(model, steps)
    out = np.empty(len(steps))
    for i, n in enumerate(steps):
        p = pmfs[n]
        col = stats[:, i] - p.k0
        counts = np.bincount(col[(col >= 0) & (col < p.n)], minlength=p.n)[: p.n]
        overflow = 1.0 - counts.sum() / len(stats)
        out[i] = 0.5 * (np.abs(counts / len(stats) - p.probs()).sum() + overflow)
    return out


def test_tv_equals_the_per_column_loop():
    rng = np.random.default_rng(4)
    cases = [
        # more rows than one block of four columns, values below k0 and past the support
        ("pa:beta=0", [1, 2, 7, 12], 3 * (_BLOCK // 4) + 5, (-3, 16)),
        ("uniform", [5], _BLOCK + 7, (-2, 9)),  # one column, two blocks
        ("plane_oriented", [1, 3, 3, 40], 1000, (0, 45)),
        ("yule", range(1, 13), 1, (0, 8)),
    ]
    for preset, steps, reps, (lo, hi) in cases:
        model = model_from_name(preset)
        stats = rng.integers(lo, hi, size=(reps, len(steps)))
        got = tv_against_chain(stats, model, steps)
        assert np.array_equal(got, _tv_reference(stats, model, list(steps))), preset
    # a grower's own columns
    stats = batch_yule_cherries(12, 30_000, seed=3, record_all=True)
    want = _tv_reference(stats, model_from_name("yule"), list(range(1, 13)))
    assert np.array_equal(tv_against_chain(stats, model_from_name("yule"), range(1, 13)), want)


# criterion 8's growers: the kernel's grower, its public batch run with
# record_all, the chain preset and the chain step of its first size
C8_GROWERS = [
    ("yule", trees._YULE, lambda n, r, s: batch_yule_cherries(n, r, s, True), "yule", 1),
    ("uniform", trees._recursive("uniform"),
     lambda n, r, s: batch_recursive_leaves("uniform", n, r, s, True), "uniform", 1),
    ("plane", trees._recursive("plane_oriented"),
     lambda n, r, s: batch_recursive_leaves("plane_oriented", n, r, s, True), "plane_oriented", 1),
    ("pa0", trees._pa(0.0), lambda n, r, s: batch_pa_leaves(0.0, n, r, s, True), "pa:beta=0", 1),
    ("stirling", trees._STIRLING, lambda n, r, s: batch_stirling_plateaux(n, r, s, True),
     "plane_oriented", 2),
]


@pytest.mark.parametrize("label, grower, grow, preset, first", C8_GROWERS, ids=[g[0] for g in C8_GROWERS])
def test_streamed_tv_equals_the_table_tv(label, grower, grow, preset, first):
    # two full blocks at n = 12 and a ragged third (Stirling, at n = 11,
    # has one full block and a ragged second)
    reps = 2 * (_BLOCK // 11) + 1000
    steps = range(first, 13)
    model = model_from_name(preset)
    want = tv_against_chain(grow(len(steps), reps, 9), model, steps)
    assert np.array_equal(trees._tv_of_growth(grower, 9, reps, model, steps), want)


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_tv_holds_one_block_whatever_reps():
    grower, model, steps = trees._recursive("uniform"), model_from_name("uniform"), range(1, 13)
    trees._tv_of_growth(grower, 3, 10, model, steps)  # the pmf snapshots, outside the peaks

    def streamed(reps):
        return _peak_bytes(lambda: trees._tv_of_growth(grower, 3, reps, model, steps))

    def table(reps):
        return _peak_bytes(lambda: tv_against_chain(batch_recursive_leaves("uniform", 12, reps, 3, True),
                                                    model, steps))

    mib = 1 << 20
    assert abs(streamed(300_000) - streamed(100_000)) <= mib
    # the table alone grows by 200_000 x 12 x 8 bytes, 18.3 MiB
    assert table(300_000) - table(100_000) >= 15 * mib


@pytest.mark.parametrize(
    "shape", [(10, 13), (10, 11), (12,), (0, 12)], ids=["extra column", "missing column", "1-D", "no rows"]
)
def test_tv_refuses_stats_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=rf"shape \(reps, 12\).*got shape {re.escape(str(shape))}"):
        tv_against_chain(np.ones(shape, dtype=np.int64), model_from_name("yule"), range(1, 13))


def test_tv_reads_whole_number_floats_as_their_counts():
    stats = batch_yule_cherries(12, 3000, seed=5, record_all=True)
    model = model_from_name("yule")
    want = tv_against_chain(stats, model, range(1, 13))
    assert np.array_equal(tv_against_chain(stats.astype(float), model, range(1, 13)), want)
    assert np.array_equal(tv_against_chain(np.ones((5, 2)), model, [2, 3]), [0.0, 0.0])


@pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, -np.inf])
def test_tv_refuses_floats_that_are_not_counts(bad):
    stats = np.ones((5, 2))
    stats[3, 1] = bad
    with pytest.raises(ValueError, match="stats must hold whole numbers"):
        tv_against_chain(stats, model_from_name("yule"), [2, 3])


def test_bud_lln_quick():
    z = bud_lln_endpoints(0.0, GAMMA_HALF, 2000, 300, seed=3)
    assert abs(float(np.mean(z)) / 2000 - 0.75) <= 0.01


# ------------------------------------------------------- one block budget

# draws per block under the shrink: every kernel below splits into ragged
# blocks, and the walker's odd coin counts (999, or 3 rows of 333) leave
# half a Philox word to the next block.  At the default budget each kernel
# below takes one block.
_SHRUNK = 999
BLOCKED_KERNELS = {
    "simulate": lambda: simulate(model_from_name("plane_oriented"), 2500, 4).values,
    "simulate_endpoints": lambda: simulate_endpoints(model_from_name("uniform"), 41, 333, 4),
    "bud_lln_endpoints": lambda: bud_lln_endpoints(0.5, {1: 0.2, 3: 0.8}, 41, 333, 6),
    "tv_against_chain": lambda: tv_against_chain(
        np.random.default_rng(7).integers(-1, 9, (333, 12)), model_from_name("yule"), range(1, 13)),
}
for label, grow, _, _ in BATCH_GROWERS:
    for record_all in (False, True):
        BLOCKED_KERNELS[f"{label}-{record_all}"] = partial(grow, 12, 333, 5, record_all)
for label, grower, _, preset, first in C8_GROWERS:
    BLOCKED_KERNELS[f"streamed-tv-{label}"] = partial(
        trees._tv_of_growth, grower, 9, 333, model_from_name(preset), range(first, 13))


def _logged_blocks(monkeypatch):
    """Log the size of every block the kernels draw (the walker's and
    simulate's coins, the growers' uniforms) and of every block the TV
    harness bins, each in draws or values."""
    draws, binned = [], []

    def logged(draw):
        def run(size):
            draws.append(int(np.prod(size)))
            return draw(size)
        return run

    def binning(blocks):
        for block in blocks:
            binned.append(block.size)
            yield block

    coins, ahead, tv = chain._coins, trees._ahead, trees._tv
    monkeypatch.setattr(chain, "_coins", lambda rng: logged(coins(rng)))
    monkeypatch.setattr(trees, "_ahead", lambda draw, sizes: ahead(logged(draw), sizes))
    monkeypatch.setattr(trees, "_tv", lambda blocks, *args: tv(binning(blocks), *args))
    return draws, binned


@pytest.mark.parametrize("run", BLOCKED_KERNELS.values(), ids=BLOCKED_KERNELS.keys())
def test_one_shrink_of_the_block_budget_splits_every_kernel_bit_for_bit(run, monkeypatch):
    draws, binned = _logged_blocks(monkeypatch)
    want = run()
    assert len(draws or binned) == 1
    draws.clear()
    binned.clear()
    monkeypatch.setattr(chain, "_BLOCK", _SHRUNK)
    got = run()
    # a grower's streamed TV bins whole rows of its blocks, so its draws,
    # not its binned values, keep to the budget
    blocks = draws or binned
    assert len(blocks) > 1 and max(blocks) <= _SHRUNK
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ------------------------------------------------------------ CLT harness


def test_verify_clt_degenerate():
    rep = verify_clt(model_from_name("plane_oriented"), 1, 50)
    assert rep.empirical_var == 0.0
    assert rep.ks_distance == 1.0


def test_ks_distance_matches_scipy_kstest():
    from scipy import stats

    rng = np.random.default_rng(2)
    for i in range(40):
        n, sigma = int(rng.integers(2, 2000)), float(rng.uniform(0.1, 2.0))
        x = rng.normal(0.0, sigma, n)
        if i % 2:
            x = np.round(3.0 * x) / 3.0  # ties, as integer counts give
        want = stats.kstest(x, "norm", args=(0.0, sigma)).statistic
        assert _ks_normal(x, sigma) == want


def test_verify_clt_plane():
    rep = verify_clt(model_from_name("plane_oriented"), 3000, 2000, seed=8)
    assert rep.replicates == 2000
    assert abs(rep.empirical_mean - 2 / 3) <= 0.01
    assert abs(rep.empirical_var - 1 / 9) <= 0.25 / 9
    assert rep.ks_distance < 0.05
    assert rep.clt_stat_sample.shape == (2000,)
