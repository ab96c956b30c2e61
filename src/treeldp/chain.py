"""Growth chains Z_n for leaf/cherry/bud counts.

The chain moves up by one with probability 1 - Z_n/s_n and stays put
otherwise, starting from Z_1 = k0.  Everything downstream (exact pmfs,
tails, tree simulators) is driven by the slope sequence s_n, so slopes
are kept exact (rational) whenever the defining parameters are rational.

Every deterministic model is one AffineSlope s_n = a n + b; the preset
names (LinearSlope, PlaneOrientedSlope, ...) are constructors for it.
RandomizedPASlope adds the quenched multi-edge environment.  For
rational parameters, values_float(N)[n-1] is the correctly rounded
float(s_n), the same double the exact value(n) converts to, so every
consumer of the float and the exact slope path sees identical slopes.

The chain has a law only while every reachable state stays at or below
its slope, 0 <= Z_n <= s_n.  _reachable decides that once per model and
length, for simulate, simulate_endpoints and the pmf steps in dist alike,
and hands them the slopes with s = 0 read as +inf, so 1 - z/s is the
up-probability everywhere: a refusal does not depend on the seed or on
the number of replicates.

Every simulation of the chain takes one coin per replicate and step, a
32-bit integer U uniform on 0 .. 2^32 - 1 (_coins), and moves the state z
up at slope s when U < T = (s - z)*(2^32/s) (_coin_scale, _threshold).
s - z is 0 exactly when z = s, so a state at its slope never moves up,
whatever its coin.  The law of a step is P(up) = ceil(T)/2^32, within
2^-32 of 1 - z/s apart from T's own rounding (below 2^-51), so a walk of
n steps is within n*2^-32 of the chain's law in total variation.
simulate steps one path in a scalar loop; every vectorized simulation
(simulate_endpoints, the bud counts in trees) steps on _walk, so that
simulate's path ends where simulate_endpoints' walk of one replicate
does.  The coins, and the growers' uniforms in trees, come a block at a
time through _ahead, which draws the next block on a worker thread while
the caller steps through the current one: numpy releases the GIL while it
fills an array, so the draws, most of a walk's time, overlap the
stepping.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "AffineSlope",
    "LinearSlope",
    "UniformRecursiveSlope",
    "PlaneOrientedSlope",
    "YuleSlope",
    "PrefAttachSlope",
    "RandomizedPASlope",
    "ModelSpec",
    "Trajectory",
    "model_from_name",
    "make_generator",
    "simulate",
    "simulate_endpoints",
    "interpolate",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20260819

# distinct sub-streams of a user seed, so e.g. the quenched environment
# and the chain draws never share randomness
_STREAM_ENV = 101
_STREAM_SIM = 202
# draws per block of every blocked kernel, read at each call: the walker's
# coins (512 KiB of 32-bit halves, held as 1 MiB of doubles), simulate's
# steps, the growers' uniforms and the TV harness's values.  Peak memory
# follows it, not reps * n, and it leaves few enough handoffs to _ahead's
# worker that the overlap pays; 1 << 18 walks and grows no faster
_BLOCK = 1 << 17
# a coin is uniform on the integers 0 .. 2^32 - 1
_COINS = 2.0**32

# integers below this magnitude are exact doubles
_EXACT_INT = 2**53


def make_generator(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, *stream); reproducible and
    safe to spawn per replicate."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def _as_number(x, arg: str) -> Fraction | float:
    """Keep rationals exact and take other reals as floats, numpy's included;
    refuse values that are not finite doubles, naming the argument `arg`."""
    if isinstance(x, (numbers.Rational, str)):
        try:  # int(): a Fraction of a numpy integer keeps its fixed width
            x = Fraction(int(x) if isinstance(x, numbers.Integral) else x)
        except ZeroDivisionError:
            raise ValueError(f"{arg} has a zero denominator, got {x!r}") from None
        if abs(x) > np.finfo(float).max:
            raise ValueError(f"{arg} must fit in a double, |{arg}| <= 1.8e308")
        return x
    if isinstance(x, numbers.Real):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"{arg} must be finite, got {x}")
        if x == int(x):
            return Fraction(int(x))
        # floats that came from decimal literals are kept as given
        return x
    raise TypeError(f"unsupported numeric type {type(x)!r}")


def _exact_quotient(numerator, bound: int, den: int, *ints: np.ndarray) -> np.ndarray:
    """float(numerator(*ints) / den), correctly rounded.

    `numerator` maps the integer arrays `ints` to integers below `bound` in
    magnitude.  When bound and den fit in 53 bits both are exact doubles
    and one float division rounds correctly; beyond that Python's exact
    integer division does the rounding, element by element."""
    if not (bound < _EXACT_INT and den < _EXACT_INT):
        ints = [a.astype(object) for a in ints]
    try:
        return np.asarray(numerator(*ints) / den, dtype=float)
    except OverflowError:  # Python's division refuses a quotient beyond a double
        raise ValueError("a slope s_n exceeds the largest double, 1.8e308") from None


@dataclass(frozen=True)
class AffineSlope:
    """s_n = a*n + b, kept exact when a and b are rational; `name` is the
    label echoed in output headers."""

    a: Fraction | float
    b: Fraction | float
    name: str

    def __post_init__(self):
        object.__setattr__(self, "a", _as_number(self.a, "a"))
        object.__setattr__(self, "b", _as_number(self.b, "b"))

    @property
    def alpha(self) -> float:
        return float(self.a)

    @property
    def is_rational(self) -> bool:
        return isinstance(self.a, Fraction) and isinstance(self.b, Fraction)

    def value(self, n: int) -> Fraction | float:
        return self.a * n + self.b

    def values_float(self, n_max: int) -> np.ndarray:
        if not self.is_rational:
            return float(self.a) * np.arange(1, n_max + 1, dtype=np.int64) + float(self.b)
        # s_n = (P n + Q) / D with integers P, Q, D, rounded once
        d = math.lcm(self.a.denominator, self.b.denominator)
        p, q = int(self.a * d), int(self.b * d)
        n = np.arange(1, n_max + 1)
        return _exact_quotient(lambda n: p * n + q, abs(p) * n_max + abs(q), d, n)

    def label(self) -> str:
        return self.name


def LinearSlope(alpha) -> AffineSlope:
    """s_n = alpha * n."""
    alpha = _as_number(alpha, "alpha")
    if alpha <= 0:
        raise ValueError("linear slope needs alpha > 0")
    return AffineSlope(alpha, 0, f"linear:alpha={alpha}")


def UniformRecursiveSlope() -> AffineSlope:
    """s_n = n (uniform recursive trees)."""
    return AffineSlope(1, 0, "uniform_recursive")


def PlaneOrientedSlope() -> AffineSlope:
    """s_n = 2n - 1 (plane-oriented recursive trees)."""
    return AffineSlope(2, -1, "plane_oriented")


def YuleSlope() -> AffineSlope:
    """s_n = n/2 (Yule trees, cherry count)."""
    return AffineSlope(Fraction(1, 2), 0, "yule")


def PrefAttachSlope(beta) -> AffineSlope:
    """s_n = (2 + 2(n-1) + (n+1) beta) / (1+beta) for preferential
    attachment started from a single edge (total degree 2, two vertices,
    k0 = 2), as every grower and preset starts it; any other affine
    slope is an AffineSlope(a, b)."""
    beta = _as_number(beta, "beta")
    if beta <= -1:
        raise ValueError("pref_attach needs beta > -1")
    # a float beta is taken as the dyadic rational it stores: rounding a
    # and b separately could push s_1 below the seed count k0
    x = Fraction(beta)
    a = (2 + x) / (1 + x)
    b = x / (1 + x)
    return AffineSlope(a, b, f"pa:beta={beta}")


@dataclass(frozen=True)
class RandomizedPASlope:
    """Quenched slopes for randomized preferential attachment from a
    single edge (k0 = 2): vertex i arrives with gamma_i parallel edges,
    gamma_i drawn once from a finite pmf keyed by `seed`.
    s_n = [2 + 2 sum_{i<n} gamma_i + (n+1) beta]/(1+beta).
    """

    beta: Fraction | float
    gamma_values: tuple[int, ...]
    gamma_probs: tuple[float, ...]
    seed: int
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_number(self.beta, "beta"))
        if self.beta <= -1:
            raise ValueError("randomized_pa needs beta > -1")
        vals = tuple(int(v) for v in self.gamma_values)
        if any(v < 1 for v in vals):
            raise ValueError("gamma values must be positive integers")
        probs = np.asarray(self.gamma_probs, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing sum is refused, not warned about
            if len(probs) != len(vals) or not (np.all(probs >= 0) and 0 < probs.sum() < math.inf):
                raise ValueError("gamma pmf needs matching nonnegative weights with a finite sum")
        probs = probs / probs.sum()
        object.__setattr__(self, "gamma_values", vals)
        object.__setattr__(self, "gamma_probs", tuple(probs.tolist()))

    @property
    def alpha(self) -> float:
        gamma_mean = float(np.dot(self.gamma_values, self.gamma_probs))
        return float((2.0 * gamma_mean + float(self.beta)) / (1.0 + float(self.beta)))

    @property
    def is_rational(self) -> bool:
        # realized gammas are integers, so s_n is rational iff beta is
        return isinstance(self.beta, Fraction)

    def gammas(self, count: int) -> np.ndarray:
        """First `count` quenched gamma values; regenerating a longer
        prefix reproduces the shorter one bit for bit."""
        have = self._cache.get("gammas")
        if have is None or len(have) < count:
            rng = make_generator(self.seed, _STREAM_ENV)
            # geometric growth keeps a value(n) loop to n at O(log n) redraws
            need = max(count, 64 if have is None else 2 * len(have))
            have = self._gamma_of(rng.random(need))
            self._cache["gammas"] = have
            self._cache["cumsum"] = np.concatenate([[0], np.cumsum(have)])
        return have[:count]

    def _gamma_of(self, u: np.ndarray) -> np.ndarray:
        """Gamma values of uniforms u in [0, 1): atom i for the i cumulative
        weights at or below u, numpy's choice rule (no zero-weight atom)."""
        cdf = np.cumsum(self.gamma_probs)
        cdf /= cdf[-1]
        idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cdf)))
        for c in cdf[:-1]:  # u < 1 = cdf[-1]
            idx += u >= c
        return np.array(self.gamma_values, dtype=np.int64)[idx]

    def _cum(self, count: int) -> np.ndarray:
        self.gammas(count)
        return self._cache["cumsum"]

    def _slope(self, n, cum):
        # exact for integers n, cum and a Fraction beta; one float division otherwise
        return (2 + 2 * cum + (n + 1) * self.beta) / (1 + self.beta)

    def value(self, n: int) -> Fraction | float:
        return self._slope(n, int(self._cum(max(n - 1, 1))[n - 1]))

    def values_float(self, n_max: int) -> np.ndarray:
        return self.slopes_float(np.arange(1, n_max + 1), self._cum(n_max)[:n_max])

    def slopes_float(self, n: np.ndarray, cum: np.ndarray) -> np.ndarray:
        """float s_n for integer arrays of steps n and of the gamma sums
        cum = sum_{i<n} gamma_i (broadcast together), for this environment
        or any other drawn from the same pmf: correctly rounded when beta
        is rational, one float division otherwise."""
        if not self.is_rational:
            return self._slope(n, cum)
        # beta = p/q: s_n = [q (2 + 2 cum) + p (n+1)] / (p+q), rounded once
        p, q = self.beta.numerator, self.beta.denominator
        bound = q * (2 + 2 * int(cum.max(initial=0))) + abs(p) * (int(n.max(initial=0)) + 1)
        return _exact_quotient(lambda n, c: q * (2 + 2 * c) + p * (n + 1), bound, p + q, n, cum)

    def label(self) -> str:
        pmf = "+".join(f"{v}@{p:g}" for v, p in zip(self.gamma_values, self.gamma_probs))
        return f"rpa:beta={self.beta},gamma={pmf},seed={self.seed}"


@dataclass(frozen=True)
class ModelSpec:
    """A chain model: slope sequence plus initial count Z_1 = k0."""

    slopes: AffineSlope | RandomizedPASlope
    k0: int

    def __post_init__(self):
        if self.k0 < 0:
            raise ValueError("k0 must be a nonnegative integer")
        s1 = self.slopes.value(1)
        if not (self.k0 <= s1 or (self.k0 == 0 and s1 == 0)):
            raise ValueError(f"need k0 <= s_1, got k0={self.k0}, s_1={s1}")

    @property
    def alpha(self) -> float:
        return self.slopes.alpha

    def label(self) -> str:
        return self.slopes.label()


@dataclass(frozen=True)
class Trajectory:
    model: ModelSpec
    values: np.ndarray
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", vals)
        if vals[0] != self.model.k0:
            raise ValueError("trajectory must start at k0")
        diffs = np.diff(vals)
        if np.any((diffs < 0) | (diffs > 1)):
            raise ValueError("trajectory increments must be 0 or 1")

    def __len__(self) -> int:
        return len(self.values)


_PRESET_PLAIN = {
    "uniform": lambda: ModelSpec(UniformRecursiveSlope(), 1),
    "uniform_recursive": lambda: ModelSpec(UniformRecursiveSlope(), 1),
    "plane_oriented": lambda: ModelSpec(PlaneOrientedSlope(), 1),
    "yule": lambda: ModelSpec(YuleSlope(), 0),
}


def _parse_kv(body: str) -> dict[str, str]:
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _parse_gamma_pmf(text: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
    # e.g. "1@0.5+2@0.5"; weights are normalized
    vals, probs = [], []
    for atom in text.split("+"):
        if "@" not in atom:
            raise ValueError(f"gamma atom must look like value@weight, got {atom!r}")
        v, p = atom.split("@", 1)
        vals.append(int(v))
        probs.append(float(p))
    return tuple(vals), tuple(probs)


def model_from_name(name: str) -> ModelSpec:
    """Build a ModelSpec from a preset string.

    Accepted forms: "uniform", "plane_oriented", "yule",
    "pa:beta=<r>", "linear:alpha=<r>,k0=<int>",
    "rpa:beta=<r>,gamma=<v>@<w>+<v>@<w>,seed=<u64>".
    """
    name = name.strip()
    if name in _PRESET_PLAIN:
        return _PRESET_PLAIN[name]()
    head, colon, body = name.partition(":")
    if not colon or head not in ("pa", "pref_attach", "linear", "rpa"):
        raise ValueError(f"unknown model preset {name!r}")
    kv = _parse_kv(body)
    try:
        if head == "linear":
            slopes, k0 = LinearSlope(kv.pop("alpha")), int(kv.pop("k0", "1"))
        elif head == "rpa":
            beta = kv.pop("beta")
            gamma = _parse_gamma_pmf(kv.pop("gamma"))
            slopes, k0 = RandomizedPASlope(beta, *gamma, int(kv.pop("seed"))), 2
        else:
            slopes, k0 = PrefAttachSlope(kv.pop("beta")), 2
    except KeyError as exc:
        raise ValueError(f"preset {name!r} is missing key {exc}") from exc
    if kv:
        raise ValueError(f"unexpected keys {sorted(kv)} for {head} preset")
    return ModelSpec(slopes, k0)


def _reachable(k0: int, s: np.ndarray, first: int = 1) -> np.ndarray:
    """The slopes s_first, s_first+1, ... of a chain whose highest
    reachable state before step `first` is k0, with each 0 replaced by
    +inf so that 1 - z/s is the up-probability of every reachable state z
    (from z = s = 0 growth is certain).  Raises ValueError at the first
    step whose highest reachable state exceeds its slope, where the chain
    has no law.  That state moves up while it is below its slope (from 0
    also at slope 0) and stays otherwise, so before step j it is
    (j - 1) + min(k0 + 1 - first, min over i < j of (max(ceil(s_i), 1) - i))."""
    # one buffer, stepped in place, holds the room of the step before each
    # step, then its prefix minimum, the highest state and the slopes returned
    j = np.arange(first, first + len(s))
    top = np.empty(len(s))
    top[0] = k0 + 1 - first
    np.ceil(s[:-1], out=top[1:])
    np.maximum(top[1:], 1.0, out=top[1:])
    top[1:] -= j[:-1]
    np.minimum.accumulate(top, out=top)
    top += j
    top -= 1
    over = np.flatnonzero(top > s)
    if over.size:
        i = over[0]
        raise ValueError(f"state {int(top[i])} exceeds slope {float(s[i])} at step {first + i}")
    np.copyto(top, s)
    top[top == 0] = np.inf
    return top


def simulate(model: ModelSpec, n: int, seed: int = DEFAULT_SEED) -> Trajectory:
    """Full path Z_1..Z_n; deterministic given seed.  _walk's chain for one
    replicate, stepped in a scalar loop on the same coins and thresholds,
    _BLOCK steps at a time as Python numbers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    svals = _reachable(model.k0, model.slopes.values_float(max(n - 1, 1)))[: n - 1]
    draw = _coins(make_generator(seed, _STREAM_SIM))
    vals = np.empty(n, dtype=np.int64)
    z = vals[0] = model.k0
    for i in range(0, n - 1, _BLOCK):
        s = svals[i : i + _BLOCK]
        block = []
        for u, s_j, scale in zip(draw(s.shape).tolist(), s.tolist(), _coin_scale(s).tolist()):
            z += u < _threshold(s_j, scale, z)
            block.append(z)
        vals[i + 1 : i + 1 + len(block)] = block
    return Trajectory(model, vals, seed)


def _ahead(draw, sizes):
    """draw(size) for each size in order, as a generator: while the caller
    works on one block a worker thread draws the next, so only one thread
    ever calls `draw`.  One block starts no thread.  Close the generator
    (contextlib.closing) to stop the worker when the caller leaves early."""
    sizes = list(sizes)
    if len(sizes) < 2:
        yield from map(draw, sizes)
        return
    # a pool per call: a worker thread does not survive a fork
    with ThreadPoolExecutor(1) as pool:
        nxt = pool.submit(draw, sizes[0])
        for size in sizes[1:]:
            block = nxt.result()
            nxt = pool.submit(draw, size)
            yield block
        yield nxt.result()


def _coins(rng: np.random.Generator):
    """draw(size): chain coins, uniform on the integers 0 .. 2^32 - 1 and
    held as doubles, from the 32-bit halves of rng's 64-bit Philox words,
    low half first.  Reading the words in little-endian byte order takes
    the low half first on every machine, and the half-word a draw leaves
    over starts the next one, so the coins are the stream of
    rng.integers(0, 2**32, dtype=np.uint32) however it is split into
    draws.  The raw words cost about two thirds of that call; the cast to
    double, written straight into the block, is on the drawing thread, so
    the stepping compares doubles."""
    spare = np.empty(0, dtype=np.uint32)

    def draw(size):
        nonlocal spare
        coins = np.empty(size)
        flat = coins.reshape(-1)
        k = flat.size - len(spare)
        halves = rng.bit_generator.random_raw((k + 1) // 2).astype("<u8", copy=False).view("<u4")
        flat[: len(spare)] = spare
        flat[len(spare) :] = halves[:k]
        spare = halves[k:].copy()
        return coins

    return draw


def _coin_scale(s):
    """2^32/s for slopes s.  A slope of +inf (a zero slope, as _reachable
    hands it over) gets the smallest positive double in place of 0, so
    that its threshold is +inf, a certain step, and not inf*0 = nan."""
    return np.maximum(_COINS / s, np.finfo(float).smallest_subnormal)


def _threshold(s, scale, z):
    """T = (s - z)*scale with scale = _coin_scale(s), for numbers or
    arrays: the state z at slope s moves up when its coin U < T.  Never
    2^32 - z*scale, which leaves T > 0 at z = s."""
    return (s - z) * scale


def _walk(rng: np.random.Generator, k0: int, n: int, reps: int, slopes, record: bool = False) -> np.ndarray:
    """Z_n of the chain from Z_1 = k0 for `reps` replicates, or with
    `record` Z_1..Z_n, shape (reps, n).  Step j moves up when its coin
    U < T = (s_j - z)*(2^32/s_j), so P(up) = ceil(T)/2^32, within 2^-32
    of 1 - z/s_j apart from T's own rounding, and the walk's law is within
    (n - 1)*2^-32 of the chain's in total variation.  The coins come
    `rows` steps at a time through _ahead, the same stream as one
    rng.integers(0, 2**32, reps, dtype=np.uint32) per step, and `slopes`
    is the sequence s_1..s_{n-1} every replicate shares, or a function of
    `rows` yielding per-replicate blocks of shape (rows, reps).  No reachable state may exceed its slope
    and no slope may be 0: simulate and simulate_endpoints pass their
    slopes through _reachable, and the bud slopes in trees grow faster
    than the states can."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rows = max(1, _BLOCK // reps)
    if callable(slopes):
        blocks = slopes(rows)
    else:
        blocks = (slopes[i : i + rows] for i in range(0, n - 1, rows))
    sizes = [(min(rows, n - 1 - i), reps) for i in range(0, n - 1, rows)]
    # the states as doubles, stepped in place: each count is an integer
    # below 2^53, so s - z is the same double an int64 state would give
    z = np.full(reps, float(k0))
    up = np.empty(reps, dtype=bool)
    path = np.full((reps, n), k0, dtype=np.int64) if record else None
    j = 0
    with closing(_ahead(_coins(rng), sizes)) as draws:
        for block, u in zip(blocks, draws):
            for u_j, s, scale in zip(u, block, _coin_scale(np.asarray(block))):
                np.less(u_j, _threshold(s, scale, z), out=up)
                z += up
                j += 1
                if record:
                    path[:, j] = z
    return path if record else z.astype(np.int64)


def simulate_endpoints(
    model: ModelSpec, n: int, reps: int, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Z_n over `reps` independent replicates (vectorized)."""
    svals = _reachable(model.k0, model.slopes.values_float(max(n - 1, 1)))
    return _walk(make_generator(seed, _STREAM_SIM), model.k0, n, reps, svals)


def interpolate(traj: Trajectory, t: float) -> float:
    """Scaled path X_n(t): equals t up to k0/n, then linearly interpolates
    Z_{floor(nt)-k0+1}/n; Lipschitz-1 and nondecreasing."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    vals = traj.values
    k0 = traj.model.k0
    n = len(vals) + k0 - 1
    if n < 1:
        raise ValueError("interpolation needs n >= 1")
    if t <= k0 / n:
        return t
    j = int(math.floor(n * t))
    frac = n * t - j
    idx = j - k0
    if idx + 1 >= len(vals):
        return float(vals[-1]) / n
    return (vals[idx] + frac * (vals[idx + 1] - vals[idx])) / n
