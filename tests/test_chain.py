"""Chain module: slope sequences, presets, simulation, interpolation."""

import dataclasses
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeldp import chain, dist, trees
from treeldp import (
    AffineSlope,
    LinearSlope,
    ModelSpec,
    RandomizedPASlope,
    Trajectory,
    UniformRecursiveSlope,
    batch_pa_leaves,
    grow_yule,
    interpolate,
    make_generator,
    model_from_name,
    simulate,
    simulate_endpoints,
)

PRESETS = ["uniform", "plane_oriented", "yule", "pa:beta=0", "linear:alpha=3,k0=1"]


def test_slope_values_match_presets():
    assert model_from_name("plane_oriented").slopes.value(3) == 5
    assert model_from_name("yule").slopes.value(4) == 2
    assert model_from_name("pa:beta=0").slopes.value(2) == 4
    assert model_from_name("uniform").slopes.value(5) == 5
    assert model_from_name("linear:alpha=3,k0=1").slopes.value(2) == 6


def test_slope_values_stay_exact():
    y = model_from_name("yule").slopes
    assert y.value(5) == Fraction(5, 2)
    assert y.is_rational
    pa = model_from_name("pa:beta=1").slopes
    assert pa.value(3) == Fraction(2 + 4 + 4, 2)


def test_alpha_per_preset():
    assert model_from_name("uniform").alpha == 1
    assert model_from_name("plane_oriented").alpha == 2
    assert model_from_name("yule").alpha == Fraction(1, 2)
    assert model_from_name("pa:beta=1").alpha == Fraction(3, 2)
    rpa = model_from_name("rpa:beta=0,gamma=1@0.5+2@0.5,seed=7")
    assert rpa.alpha == 3.0


def test_preset_start_states():
    assert model_from_name("uniform").k0 == 1
    assert model_from_name("plane_oriented").k0 == 1
    assert model_from_name("yule").k0 == 0
    assert model_from_name("pa:beta=0").k0 == 2


def test_model_parsing_errors():
    with pytest.raises(ValueError):
        model_from_name("nosuch")
    with pytest.raises(ValueError):
        model_from_name("pa:beta=0,bogus=1")
    with pytest.raises(ValueError):
        model_from_name("pa:gamma=1")
    with pytest.raises(ValueError):
        model_from_name("rpa:beta=0,gamma=1-0.5,seed=1")


def test_each_preset_rule_is_checked_once():
    # a head's own parameter rule comes first, then one leftover-key check
    # that names the head as written
    with pytest.raises(ValueError, match="beta > -1"):
        model_from_name("pa:beta=-1,foo=1")
    for name in ("pa:beta=0", "pref_attach:beta=0", "linear:alpha=2", "rpa:beta=0,gamma=1@1,seed=1"):
        head = name.split(":")[0]
        with pytest.raises(ValueError, match=rf"unexpected keys \['foo'\] for {head} preset"):
            model_from_name(f"{name},foo=1")
    for name in ("nosuch", "nosuch:beta=0", "pa"):
        with pytest.raises(ValueError, match="unknown model preset"):
            model_from_name(name)
    with pytest.raises(ValueError, match="missing key 'alpha'"):
        model_from_name("linear:k0=1")


def test_float_affine_slope_takes_the_float_path():
    slopes = AffineSlope(1.5, 0.25, "f")
    assert not slopes.is_rational
    assert slopes.values_float(50).tolist() == [1.5 * n + 0.25 for n in range(1, 51)]
    model = ModelSpec(slopes, 1)
    assert abs(dist.pmf(model, 50).probs().sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="needs rational slope values"):
        dist.exact_poly(model, 10)


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec(LinearSlope(Fraction(1, 2)), 2)  # k0 > s_1
    with pytest.raises(ValueError):
        ModelSpec(LinearSlope(Fraction(2)), 3)  # start above the linear slope
    ModelSpec(UniformRecursiveSlope(), 1)


def test_quenched_sequence_reproducible():
    a = RandomizedPASlope(0.0, (1, 2), (0.5, 0.5), seed=11)
    b = RandomizedPASlope(0.0, (1, 2), (0.5, 0.5), seed=11)
    assert np.array_equal(a.gammas(40), b.gammas(40))
    assert np.array_equal(a.gammas(10), a.gammas(40)[:10])
    assert np.allclose(a.values_float(40), b.values_float(40))
    c = RandomizedPASlope(0.0, (1, 2), (0.5, 0.5), seed=12)
    assert not np.array_equal(a.gammas(40), c.gammas(40))


@pytest.mark.parametrize("gv, gp", [((1, 2), (0.5, 0.5)), ((1, 2, 3, 5), (0.0, 0.3, 0.0, 0.7)),
                                    ((1, 4, 9), (0.2, 1 / 3, 0.1))])
def test_quenched_gammas_are_numpy_choice_on_the_environment_stream(gv, gp):
    s = RandomizedPASlope(0, gv, gp, 5)
    rng = chain.make_generator(5, chain._STREAM_ENV)
    want = rng.choice(np.array(gv), size=4096, p=np.array(s.gamma_probs))
    np.testing.assert_array_equal(s.gammas(4096), want)


def test_gamma_rule_counts_the_cumulative_weights_at_or_below_u():
    # a tie moves on to the next atom, so a zero-weight atom is never drawn
    s = RandomizedPASlope(0, (1, 2, 3), (0.0, 0.5, 0.5), 1)
    got = s._gamma_of(np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)]))
    np.testing.assert_array_equal(got, [2, 2, 3, 3, 3])


def test_quenched_cache_grows_geometrically(monkeypatch):
    made = []
    real = chain.make_generator

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(chain, "make_generator", counting)
    s = RandomizedPASlope(0.0, (1, 2), (0.5, 0.5), seed=7)
    for n in range(1, 2001):
        s.value(n)
    assert len(made) <= 12
    # growing the cache in jumps leaves the gamma stream unchanged
    fresh = RandomizedPASlope(0.0, (1, 2), (0.5, 0.5), seed=7)
    assert np.array_equal(s.gammas(1999), fresh.gammas(1999))


def test_replaced_quenched_slope_draws_its_own_environment():
    a = RandomizedPASlope(0, (1, 2), (0.5, 0.5), 3)
    a.gammas(10)  # fill the cache before copying
    b = dataclasses.replace(a, seed=4)
    np.testing.assert_array_equal(b.gammas(10), RandomizedPASlope(0, (1, 2), (0.5, 0.5), 4).gammas(10))
    np.testing.assert_array_equal(b.gammas(10), [2, 1, 1, 1, 1, 1, 1, 1, 1, 2])
    np.testing.assert_array_equal(a.gammas(10), [2, 2, 2, 1, 2, 1, 1, 2, 1, 2])


def test_preset_constructors_build_affine_slopes():
    plane = model_from_name("plane_oriented").slopes
    assert plane == AffineSlope(2, -1, "plane_oriented")
    assert model_from_name("pa:beta=1").slopes == AffineSlope(Fraction(3, 2), Fraction(1, 2), "pa:beta=1")
    assert LinearSlope(Fraction(5, 3)).label() == "linear:alpha=5/3"
    with pytest.raises(ValueError, match="alpha > 0"):
        LinearSlope(0)
    with pytest.raises(ValueError, match="beta > -1"):
        model_from_name("pa:beta=-1")


def test_numpy_numbers_are_the_python_numbers_they_equal():
    # numpy integers stay exact rationals, with Python's unbounded integers:
    # 2^62 n would wrap in int64 from n = 2
    big = LinearSlope(np.int64(2**62))
    assert big == LinearSlope(2**62) and big.value(4) == 2**64
    assert AffineSlope(np.int32(2), 0, "x") == AffineSlope(2, 0, "x")
    assert LinearSlope(np.float32(0.5)) == LinearSlope(0.5)
    # a numpy float is taken as its double
    assert LinearSlope(np.float32(0.1)) == LinearSlope(float(np.float32(0.1)))
    assert type(LinearSlope(np.float64(0.3)).a) is float
    for bad in (np.float32(np.nan), np.float64(np.inf)):
        with pytest.raises(ValueError, match="alpha must be finite"):
            LinearSlope(bad)
    with pytest.raises(TypeError, match="unsupported numeric type"):
        LinearSlope(np.bool_(True))
    # a slope beyond a double is refused by name, not an OverflowError
    with pytest.raises(ValueError, match="exceeds the largest double"):
        LinearSlope(10**308).values_float(2)


def test_float_beta_keeps_the_seed_slope_exact():
    # rounding a = 2.3/1.3 and b = 0.3/1.3 separately gives s_1 < 2
    slopes = chain.PrefAttachSlope(0.3)
    assert slopes.value(1) == 2
    assert slopes.label() == "pa:beta=0.3"
    model = ModelSpec(slopes, 2)
    assert simulate(model, 50, seed=1).values[0] == 2
    svals = slopes.values_float(200)
    assert svals.tolist() == [float(slopes.value(k)) for k in range(1, 201)]


@pytest.mark.parametrize("beta", [0, 1, Fraction(-1, 2), Fraction(1, 3)])
def test_quenched_slope_with_single_edges_is_the_pa_slope(beta):
    # both classes start from one edge: total degree 2 and two vertices
    rpa, pa = RandomizedPASlope(beta, (1,), (1.0,), seed=4), chain.PrefAttachSlope(beta)
    for n in range(1, 201):
        assert type(rpa.value(n)) is Fraction and rpa.value(n) == pa.value(n)
    assert np.array_equal(rpa.values_float(200), pa.values_float(200))


def test_huge_rational_beta_uses_exact_integer_rounding():
    # p + q past 2**53 takes the integer-division fallback
    s = RandomizedPASlope(Fraction(1, 2**60 + 1), (1, 2), (0.5, 0.5), seed=3)
    svals = s.values_float(100)
    assert svals.tolist() == [float(s.value(k)) for k in range(1, 101)]


def test_simulate_forced_prefixes():
    plane = model_from_name("plane_oriented")
    yule = model_from_name("yule")
    for seed in (0, 1, 99, 12345):
        assert simulate(plane, 2, seed).values.tolist() == [1, 1]
        assert simulate(yule, 3, seed).values.tolist() == [0, 1, 1]


def test_simulate_uniform_split():
    # Z_3 under the uniform preset is 1 or 2 with equal probability
    uniform = model_from_name("uniform")
    z = simulate_endpoints(uniform, 3, 100_000, seed=7)
    freq = float(np.mean(z == 2))
    assert set(np.unique(z)) == {1, 2}
    assert abs(freq - 0.5) <= 3 * 0.5 / math.sqrt(100_000)


def test_simulate_endpoints_deterministic():
    m = model_from_name("plane_oriented")
    a = simulate_endpoints(m, 50, 200, seed=5)
    b = simulate_endpoints(m, 50, 200, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, simulate_endpoints(m, 50, 200, seed=6))


def test_simulate_endpoints_refuses_inadmissible_model():
    # s_2 = 0.6 < Z_2 = 1: both simulators stop at the same step
    m = model_from_name("linear:alpha=0.3,k0=0")
    msg = "state 1 exceeds slope 0.6 at step 2"
    with pytest.raises(ValueError, match=msg):
        simulate(m, 6)
    # reps = 300000 draws one step per block, reps = 5 the whole walk
    for reps in (5, 300_000):
        with pytest.raises(ValueError, match=msg):
            simulate_endpoints(m, 6, reps)


def _simulate_endpoints_reference(model, n, reps, seed):
    """The endpoint walk one step at a time: one 32-bit coin U per
    replicate and step, drawn by rng.integers, and one full state check
    per step.  A state moves up when U < (s - z)*(2^32/s), surely at s = 0."""
    rng = make_generator(seed, chain._STREAM_SIM)
    svals = model.slopes.values_float(max(n - 1, 1))
    z = np.full(reps, model.k0, dtype=np.int64)
    for j in range(1, n):
        s = svals[j - 1]
        if np.any(z > s):
            raise ValueError(f"state {z.max()} exceeds slope {s} at step {j}")
        u = rng.integers(0, 2**32, reps, dtype=np.uint32)
        z += u < (s - z) * (2**32 / s) if s > 0 else 1
    return z


WALK_PRESETS = [
    "uniform", "plane_oriented", "yule", "pa:beta=1", "linear:alpha=2,k0=0", "linear:alpha=1,k0=1",
    "linear:alpha=1/2,k0=0", "rpa:beta=0,gamma=1@0.5+2@0.5,seed=3", "rpa:beta=1,gamma=1@0.2+3@0.8,seed=5",
]


@pytest.mark.parametrize("preset", WALK_PRESETS)
def test_simulate_endpoints_equals_the_per_step_walk(preset):
    m = model_from_name(preset)
    # reps = 3000 takes 43 steps per block, reps = 1 the whole walk, and
    # reps = 9 14563 steps, an odd number of coins, so that its first block
    # leaves half a Philox word to the second; n = 10000 with 2000
    # replicates is the benchmark's shape
    for n, reps, seed in ((1, 4, 0), (2, 5, 1), (300, 1, 2), (700, 3000, 3), (2000, 300, 4),
                          (10_000, 2000, 5), (20_000, 9, 6)):
        want = _simulate_endpoints_reference(m, n, reps, seed)
        got = simulate_endpoints(m, n, reps, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("preset", WALK_PRESETS)
def test_simulate_is_the_vectorized_walker_at_one_replicate(preset):
    # the scalar loop and _walk take the same uniforms and the same coin rule
    m = model_from_name(preset)
    for n in (1, 2, 300, 5000):
        slopes = chain._reachable(m.k0, m.slopes.values_float(max(n - 1, 1))).tolist()
        for seed in range(3):
            walk = chain._walk(make_generator(seed, chain._STREAM_SIM), m.k0, n, 1, slopes, record=True)
            values = simulate(m, n, seed).values
            assert np.array_equal(values, walk[0])
            assert values[-1] == simulate_endpoints(m, n, 1, seed)[0]


def test_simulate_endpoints_refuses_as_the_per_step_walk_does():
    m = model_from_name("linear:alpha=0.3,k0=0")
    for n, reps, seed in ((3, 1, 0), (6, 5, 1), (40, 3000, 2), (6, 300_000, 3)):
        with pytest.raises(ValueError) as want:
            _simulate_endpoints_reference(m, n, reps, seed)
        with pytest.raises(ValueError) as got:
            simulate_endpoints(m, n, reps, seed)
        assert str(got.value) == str(want.value)


def _refusal(run):
    """The message of the ValueError run() raises, or None if it answers."""
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


def _advanced(model, n):
    p = dist.pmf_start(model)
    for _ in range(1, n):
        p = dist.pmf_advance(p, model)
    return p


def _first_overflow(model, n):
    """(state, exact slope, step) where the highest reachable state first
    exceeds its slope within steps 1..n-1, or None: that state moves up
    while it is below its slope (or at slope 0) and stays otherwise."""
    top = model.k0
    for j in range(1, n):
        s = model.slopes.value(j)
        if top > s:
            return top, s, j
        top += top < s or s == 0
    return None


def test_every_stepper_refuses_the_same_models():
    # a reachable state above its slope leaves the chain without a law:
    # every stepper refuses such a model at the same step, whatever the
    # seed and the number of replicates, and answers every other one
    refused = answered = 0
    for alpha in sorted({Fraction(p, q) for q in range(1, 13) for p in range(1, 2 * q + 1)}):
        for k0 in range(min(3, math.floor(alpha)) + 1):
            m = ModelSpec(LinearSlope(alpha), k0)
            for n in (2, 5, 17, 40):
                over = _first_overflow(m, n)
                runs = [partial(dist.pmf, m, n), partial(_advanced, m, n),
                        partial(simulate_endpoints, m, n, 1, 3), partial(simulate_endpoints, m, n, 300, 4)]
                runs += [partial(simulate, m, n, seed) for seed in range(3)]
                want = exact = None
                if over:
                    state, slope, step = over
                    want = f"state {state} exceeds slope {float(slope)} at step {step}"
                    exact = f"state {state} exceeds slope {slope} at step {step}"
                    refused += 1
                else:
                    answered += 1
                assert [_refusal(run) for run in runs] == [want] * len(runs), (alpha, k0, n)
                assert _refusal(partial(dist.exact_poly, m, n)) == exact, (alpha, k0, n)
    assert refused >= 50 and answered >= 50


def test_a_zero_first_slope_is_a_certain_step_up():
    # s_n = n - 1: from Z_1 = s_1 = 0 the chain moves up surely
    m = ModelSpec(AffineSlope(1, -1, "n-1"), 0)
    n = 12
    exact = [float(c) for c in dist.exact_poly(m, n).coeffs]
    assert exact[0] == 0.0 and sum(exact) == pytest.approx(1.0, abs=1e-15)
    for p in (dist.pmf(m, n), _advanced(m, n)):
        assert np.max(np.abs(p.probs() - exact)) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walked = simulate_endpoints(m, n, 20_000, seed=1)
        paths = np.array([simulate(m, n, seed).values for seed in range(2000)])
    assert np.all(paths[:, 1] == 1)
    assert trees.tv_against_chain(walked.reshape(-1, 1), m, [n])[0] <= 0.02
    assert trees.tv_against_chain(paths[:, [2, n - 1]], m, [3, n]).max() <= 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clt = trees.verify_clt(m, n, 2000, seed=2)
    # the E Z_n that verify_clt subtracts takes the same certain first step
    mean = simulate_endpoints(m, n, 2000, seed=2) - clt.clt_stat_sample * math.sqrt(n)
    assert np.allclose(mean, np.dot(exact, np.arange(n)), rtol=1e-12, atol=0)


# every slope sequence of the coin-law tests: the walker presets and
# linear alpha = p/q with q <= 12
LAW_SLOPES = [model_from_name(p).slopes for p in WALK_PRESETS] + [
    LinearSlope(a) for a in sorted({Fraction(p, q) for q in range(1, 13) for p in range(1, 2 * q + 1)})
]


def test_the_coin_law_is_within_2_to_the_minus_32_of_the_chain():
    # P(up) = ceil(T)/2^32 of the walker's own threshold, at every state
    # 0 <= z <= s_j of every step j < 40, against the exact 1 - z/s_j
    bound = Fraction(1, 2**32) + Fraction(1, 2**52)
    worst = Fraction(0)
    for slopes in LAW_SLOPES:
        sf = slopes.values_float(39)
        for j, s in enumerate(sf, 1):
            exact = slopes.value(j)
            z = np.arange(math.floor(exact) + 1, dtype=float)
            s_walk = np.inf if s == 0 else s  # as _reachable hands a zero slope over
            t = chain._threshold(s_walk, chain._coin_scale(s_walk), z)
            ups = np.minimum(np.ceil(t), 2**32).astype(np.int64).tolist()
            if exact == math.floor(exact) > 0:
                assert ups[-1] == 0, (slopes.label(), j)  # a state at its slope stays
            for zi, up in enumerate(ups):
                want = 1 - Fraction(zi) / exact if exact else Fraction(1)
                worst = max(worst, abs(Fraction(up, 2**32) - want))
    assert worst <= bound


class _FixedCoins:
    """A generator whose every 64-bit word is `word`: both of its 32-bit
    coins are word's halves."""

    def __init__(self, word):
        self.bit_generator = self
        self.word = word

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


def test_no_coin_moves_a_state_past_its_slope():
    # U = 0 at every step moves each state below its slope up, which walks
    # the highest reachable path; U = 2^32 - 1 moves only where a step is
    # certain.  Neither may take a state above its slope.  n = 100 reaches
    # the state 49 at the slope 49, where 2^32 - z*(2^32/s) is not 0
    walked = 0
    for slopes in LAW_SLOPES:
        exact = [slopes.value(j) for j in range(1, 101)]
        for k0 in range(min(3, math.floor(exact[0])) + 1):
            try:
                svals = chain._reachable(k0, slopes.values_float(99))
            except ValueError:
                continue
            top = [k0]
            for s in exact[:-1]:
                top.append(top[-1] + (top[-1] < s or s == 0))
            assert all(z <= s for z, s in zip(top, exact))
            low, high = (chain._walk(_FixedCoins(word), k0, 100, 2, svals, record=True) for word in (2**64 - 1, 0))
            assert np.all(high == top) and np.all(low <= high), (slopes.label(), k0)
            walked += 1
    assert walked >= 50


def test_walker_steps_shared_and_per_replicate_slopes_alike():
    # the same slopes shared by both replicates step as the list of them
    a = chain._walk(make_generator(1), 0, 4, 2, [1.0, 2.0, 3.0], record=True)
    shared = np.repeat([[1.0], [2.0], [3.0]], 2, axis=1)
    b = chain._walk(make_generator(1), 0, 4, 2, lambda rows: iter([shared]), record=True)
    assert a.shape == (2, 4) and a.dtype == np.int64
    assert np.array_equal(a, b)
    assert np.array_equal(a[:, :2], [[0, 1], [0, 1]])


def test_ahead_makes_the_serial_draws():
    sizes = [(3, 5), 7, (0, 4), (2, 2, 2), 1]
    ahead, serial = make_generator(9), make_generator(9)
    got = list(chain._ahead(ahead.random, sizes))
    want = [serial.random(size) for size in sizes]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the generator is left where the serial draws leave it
    after, want_after = ahead.bit_generator.state, serial.bit_generator.state
    assert np.array_equal(after["state"]["counter"], want_after["state"]["counter"])
    assert after["buffer_pos"] == want_after["buffer_pos"]
    assert np.array_equal(ahead.random(6), serial.random(6))


def test_ahead_starts_a_thread_only_for_two_blocks(monkeypatch):
    pools = []

    def counting_pool(workers):
        pools.append(workers)
        return ThreadPoolExecutor(workers)

    monkeypatch.setattr(chain, "ThreadPoolExecutor", counting_pool)
    rng = make_generator(1)
    assert list(chain._ahead(rng.random, [])) == []
    assert len(list(chain._ahead(rng.random, [4]))) == 1
    # one block: a single run, a walk of few replicates, a small batch
    simulate_endpoints(model_from_name("uniform"), 300, 1, 2)
    simulate_endpoints(model_from_name("uniform"), 30, 4000, 2)
    grow_yule(2000, 3, return_structure=True)
    batch_pa_leaves(1.0, 40, 10, 3)
    assert pools == []
    # two or more blocks: one pool of one worker per call
    assert len(list(chain._ahead(rng.random, [4, 4]))) == 2
    simulate_endpoints(model_from_name("uniform"), 6, chain._BLOCK + 1, 2)
    batch_pa_leaves(1.0, 40, chain._BLOCK, 3)
    assert pools == [1, 1, 1]


def test_a_walk_left_early_leaves_no_thread_behind():
    baseline = threading.active_count()
    draws = chain._ahead(make_generator(2).random, [4, 4, 4])
    next(draws)
    assert threading.active_count() == baseline + 1
    draws.close()
    assert threading.active_count() == baseline
    # a walk that draws one step per block, left at step 2 by its slopes
    def slopes(rows):
        yield np.ones((rows, 2 * chain._BLOCK))
        raise RuntimeError("slopes failed")

    with pytest.raises(RuntimeError, match="slopes failed"):
        chain._walk(make_generator(3), 1, 6, 2 * chain._BLOCK, slopes)
    assert threading.active_count() == baseline


def test_endpoint_matches_trajectory_distribution():
    # same chain law through the two samplers: compare means loosely
    m = model_from_name("yule")
    z = simulate_endpoints(m, 200, 4000, seed=3)
    zt = np.array([simulate(m, 200, seed=s).values[-1] for s in range(300)])
    se = 3 * (np.std(z) / math.sqrt(len(z)) + np.std(zt) / math.sqrt(len(zt)))
    assert abs(z.mean() - zt.mean()) <= se


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(PRESETS),
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trajectory_invariants(preset, n, seed):
    m = model_from_name(preset)
    traj = simulate(m, n, seed)
    vals = traj.values
    assert vals[0] == m.k0
    diffs = np.diff(vals)
    assert np.all((diffs == 0) | (diffs == 1))
    assert np.all(vals <= m.k0 + np.arange(n))


def test_trajectory_validation():
    m = model_from_name("plane_oriented")
    with pytest.raises(ValueError):
        Trajectory(m, np.array([2, 2, 3]), 0)  # wrong start
    with pytest.raises(ValueError):
        Trajectory(m, np.array([1, 3]), 0)  # jump of 2


def test_interpolate_initial_segment_is_identity():
    traj = simulate(model_from_name("plane_oriented"), 100, seed=1)
    assert interpolate(traj, 0.005) == pytest.approx(0.005, abs=1e-15)
    assert interpolate(traj, 0.0) == 0.0


def test_interpolate_hand_value():
    tr = Trajectory(model_from_name("plane_oriented"), np.array([1, 1, 2]), 0)
    assert interpolate(tr, 2 / 3) == pytest.approx(1 / 3, abs=1e-12)
    assert interpolate(tr, 1.0) == pytest.approx(2 / 3, abs=1e-12)


def test_interpolate_all_up_endpoint():
    m = model_from_name("linear:alpha=3,k0=1")
    n = 12
    tr = Trajectory(m, np.arange(1, n + 1), 0)
    assert interpolate(tr, 1.0) == pytest.approx((m.k0 + n - 1) / n, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    t=st.floats(min_value=0.0, max_value=1.0),
    s=st.floats(min_value=0.0, max_value=1.0),
)
def test_interpolate_lipschitz(seed, t, s):
    traj = simulate(model_from_name("uniform"), 30, seed)
    a, b = interpolate(traj, t), interpolate(traj, s)
    assert abs(a - b) <= abs(t - s) + 1e-12


def test_generator_streams_are_independent():
    a = make_generator(1, 101).random(8)
    b = make_generator(1, 202).random(8)
    c = make_generator(1, 101).random(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
