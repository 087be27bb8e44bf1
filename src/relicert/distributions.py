"""Declarative samplers for the experiment distributions.

All randomness flows through the counter-based Philox generator so that
identical (spec, seed, n) calls reproduce bit-exactly across platforms and
worker counts.  Sub-streams are derived by extending the Philox key with
stream indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

TILT_KINDS = ("cos1", "lin1")


_M64 = (1 << 64) - 1


def _mix64(*words: int) -> int:
    """Deterministic 64-bit mixer for deriving sub-stream keys."""
    h = 0x9E3779B97F4A7C15
    for w in words:
        h ^= ((w & _M64) + 0x9E3779B97F4A7C15 + ((h << 6) & _M64) + (h >> 2)) & _M64
        h &= _M64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _M64
    h ^= h >> 33
    return h


def _stream_key(seed: int, *stream: int) -> int:
    """The 64-bit Philox key of derive_rng(seed, *stream)."""
    return seed & _M64 if not stream else _mix64(seed, *stream)


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, *stream)))


def derived_rngs(seeds, *stream: int):
    """derive_rng(seed, *stream) for each seed in turn, as one Philox
    generator re-keyed before each yield: key [_stream_key(seed, *stream),
    0], counter 0 and an empty buffer, the state a fresh Philox(key=) has,
    so the draws are the same bits.  A yielded generator is valid only
    until the next one is taken."""
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    for seed in seeds:
        key[0] = _stream_key(seed, *stream)
        bitgen.state = state
        yield rng


def map_trial_chunks(fn, args_base: tuple, trials: int, jobs: int) -> list:
    """fn(args_base + (lo, hi)) over contiguous chunks of range(trials), one
    chunk per worker process (in this process when jobs <= 1 or one chunk
    covers every trial); the results in chunk order.  Each trial seeds its
    own generator from (seed, trial), so the results do not depend on jobs."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if jobs <= 1:
        chunks = [args_base + (0, trials)]
    else:
        size = max(1, (trials + jobs - 1) // jobs)
        chunks = [args_base + (lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    if len(chunks) <= 1:
        return [fn(c) for c in chunks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, chunks))


@dataclass(frozen=True, eq=False)
class IsotropicGaussian:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True, eq=False)
class UniformBall:
    """Uniform on the ball of radius sqrt(d+2), giving identity covariance."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")

    @property
    def radius(self) -> float:
        return math.sqrt(self.d + 2.0)


@dataclass(frozen=True, eq=False)
class UniformCube:
    """Uniform on [lo, hi]^d; defaults to the unit cube."""

    d: int
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")


@dataclass(frozen=True, eq=False)
class NearlyUniform:
    """Tilted density on [0,1]^d with a <= p(x) <= b and a + b = 2.

    tilt 'cos1': p(x) = 1 + (b-a)/2 * cos(2*pi*x_1)
    tilt 'lin1': p(x) = 1 + (b-a)/2 * (2*x_1 - 1)
    """

    d: int
    a: float
    b: float
    tilt: str = "cos1"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not (0.0 < self.a <= self.b):
            raise ValueError("need 0 < a <= b")
        if abs(self.a + self.b - 2.0) > 1e-12:
            raise ValueError("registry tilts integrate to one only when a + b = 2")
        if self.tilt not in TILT_KINDS:
            raise ValueError(f"unknown tilt {self.tilt!r}")

    def density(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        amp = 0.5 * (self.b - self.a)
        if self.tilt == "cos1":
            return 1.0 + amp * np.cos(2.0 * np.pi * X[:, 0])
        return 1.0 + amp * (2.0 * X[:, 0] - 1.0)


@dataclass(frozen=True, eq=False)
class RadialHeavyTail:
    """Isotropic density proportional to (1 + ||x||/sigma)^-(d+1+1/|s|).

    A polynomially-decaying stand-in for fat-tailed families; sigma is set
    so the covariance is the identity, which needs s in [-1/(2d+3), 0).
    The family is reported by name, not by a claimed concavity parameter.
    """

    d: int
    s: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not (-1.0 / (2.0 * self.d + 3.0) - 1e-12 <= self.s < 0.0):
            raise ValueError(f"s must lie in [-1/(2d+3), 0), got {self.s}")

    @property
    def decay(self) -> float:
        return self.d + 1.0 + 1.0 / abs(self.s)

    @property
    def sigma(self) -> float:
        # radial factor r = sigma * u with u ~ BetaPrime(d, decay - d);
        # E[u^p] = B(d+p, decay-d-p) / B(d, decay-d)
        k = self.decay

        def logbeta(a: float, b: float) -> float:
            return lgamma(a) + lgamma(b) - lgamma(a + b)

        eu2 = math.exp(logbeta(self.d + 2.0, k - self.d - 2.0) - logbeta(self.d, k - self.d))
        return math.sqrt(self.d / eu2)


@dataclass(frozen=True, eq=False)
class MeanShift:
    base: "DistributionSpec"
    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        if mu.shape[0] != dimension(self.base):
            raise ValueError("shift vector must match the base dimension")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)


DistributionSpec = (
    IsotropicGaussian | UniformBall | UniformCube | NearlyUniform | RadialHeavyTail | MeanShift
)


def dimension(spec: DistributionSpec) -> int:
    if isinstance(spec, MeanShift):
        return dimension(spec.base)
    return spec.d


def is_rotation_invariant(spec: DistributionSpec) -> bool:
    return isinstance(spec, (IsotropicGaussian, UniformBall, RadialHeavyTail))


def uniform_ball(rng: np.random.Generator, n: int, d: int, radius=1.0) -> np.ndarray:
    """n points uniform in the d-ball of `radius` around 0.  The normals are
    drawn first, then the radius fractions."""
    return _scale_into_ball(rng.standard_normal((n, d)), rng.random(n), d, radius)


def uniform_balls(rngs, n: int, d: int, radius) -> np.ndarray:
    """uniform_ball(rng_i, n, d, radius[i]) for the i-th generator taken
    from the iterable `rngs` (a list, `derived_rngs`, or one generator
    repeated), stacked (len(radius), n, d): each generator draws its normals
    and then its radius fractions before the next is taken, and exactly
    len(radius) are taken.  The arithmetic runs once over the stack."""
    radius = np.asarray(radius)
    g = np.empty((radius.shape[0], n, d))
    u = np.empty((radius.shape[0], n))
    for i, rng in zip(range(radius.shape[0]), rngs):
        rng.standard_normal(out=g[i])
        rng.random(out=u[i])
    return _scale_into_ball(g, u, d, radius[:, None])


def _scale_into_ball(g: np.ndarray, u: np.ndarray, d: int, radius) -> np.ndarray:
    """The normals g, in place, as points of the ball of `radius`: each
    normalised, then scaled by radius * u ** (1/d)."""
    g /= np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-300)
    g *= (radius * u ** (1.0 / d))[..., None]
    return g


def _draw(spec: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    d = dimension(spec)
    if n == 0:
        return np.zeros((0, d))
    if isinstance(spec, IsotropicGaussian):
        return rng.standard_normal((n, d))
    if isinstance(spec, UniformBall):
        return uniform_ball(rng, n, d, spec.radius)
    if isinstance(spec, UniformCube):
        return spec.lo + (spec.hi - spec.lo) * rng.random((n, d))
    if isinstance(spec, NearlyUniform):
        out = np.empty((n, d))
        got = 0
        while got < n:
            batch = max(n - got, 16)
            X = rng.random((batch, d))
            u = rng.random(batch)
            acc = X[u * spec.b <= spec.density(X)]
            take = min(acc.shape[0], n - got)
            out[got : got + take] = acc[:take]
            got += take
        return out
    if isinstance(spec, RadialHeavyTail):
        g = rng.standard_normal((n, d))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        x = rng.beta(spec.d, spec.decay - spec.d, size=n)
        r = spec.sigma * x / (1.0 - x)
        return g * r[:, None]
    if isinstance(spec, MeanShift):
        X = _draw(spec.base, rng, n)  # a fresh array: shift it in place
        for j, m in enumerate(spec.mu):
            X[:, j] += m
        return X
    raise ValueError(f"unknown distribution spec {type(spec).__name__}")


def sample(spec: DistributionSpec, seed: int, n: int) -> np.ndarray:
    """n i.i.d. draws, deterministic given (spec, seed, n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _draw(spec, derive_rng(seed), n)


# ---------------------------------------------------------------------------
# 1-d distribution functions (threshold-class computations)
# ---------------------------------------------------------------------------


def support_1d(spec: DistributionSpec) -> tuple[float, float]:
    if dimension(spec) != 1:
        raise ValueError("1-d support requested for a multi-d spec")
    if isinstance(spec, UniformCube):
        return (spec.lo, spec.hi)
    if isinstance(spec, UniformBall):
        return (-spec.radius, spec.radius)
    if isinstance(spec, NearlyUniform):
        return (0.0, 1.0)
    if isinstance(spec, IsotropicGaussian):
        return (-math.inf, math.inf)
    if isinstance(spec, MeanShift):
        lo, hi = support_1d(spec.base)
        return (lo + spec.mu[0], hi + spec.mu[0])
    raise ValueError(f"no 1-d support bounds for {type(spec).__name__}")


def cdf_1d(spec: DistributionSpec, t: float) -> float:
    """CDF of a 1-d spec; raises for families without a closed form."""
    if dimension(spec) != 1:
        raise ValueError("cdf_1d needs a 1-d spec")
    if isinstance(spec, IsotropicGaussian):
        return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
    if isinstance(spec, UniformCube):
        return min(max((t - spec.lo) / (spec.hi - spec.lo), 0.0), 1.0)
    if isinstance(spec, UniformBall):
        r = spec.radius
        return min(max((t + r) / (2.0 * r), 0.0), 1.0)
    if isinstance(spec, NearlyUniform):
        x = min(max(t, 0.0), 1.0)
        amp = 0.5 * (spec.b - spec.a)
        if spec.tilt == "cos1":
            return x + amp * math.sin(2.0 * math.pi * x) / (2.0 * math.pi)
        return x + amp * (x * x - x)
    if isinstance(spec, MeanShift):
        return cdf_1d(spec.base, t - spec.mu[0])
    raise ValueError(f"no closed-form CDF for {type(spec).__name__}")


def quantile_1d(spec: DistributionSpec, p: float) -> float:
    """Inverse CDF by bisection (the CDFs above are monotone)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    lo, hi = support_1d(spec)
    if p <= 0.0:
        return lo
    if p >= 1.0:
        return hi
    if math.isinf(lo):
        lo = -1.0
        while cdf_1d(spec, lo) > p:
            lo *= 2.0
    if math.isinf(hi):
        hi = 1.0
        while cdf_1d(spec, hi) < p:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf_1d(spec, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def spec_from_dict(d: dict) -> DistributionSpec:
    kind = d["kind"]
    if kind == "gaussian":
        return IsotropicGaussian(d["d"])
    if kind == "uniform_ball":
        return UniformBall(d["d"])
    if kind == "uniform_cube":
        return UniformCube(d["d"], d.get("lo", 0.0), d.get("hi", 1.0))
    if kind == "nearly_uniform":
        return NearlyUniform(d["d"], d["a"], d["b"], d.get("tilt", "cos1"))
    if kind == "radial_heavy_tail":
        return RadialHeavyTail(d["d"], d["s"])
    if kind == "mean_shift":
        return MeanShift(spec_from_dict(d["base"]), np.asarray(d["mu"], dtype=float))
    raise ValueError(f"unknown distribution kind {kind!r}")
