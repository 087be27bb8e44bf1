import itertools
import json
import math

import numpy as np
import pytest
from scipy import integrate

from relicert.distributions import (
    IsotropicGaussian,
    MeanShift,
    NearlyUniform,
    RadialHeavyTail,
    UniformBall,
    UniformCube,
    cdf_1d,
    quantile_1d,
    sample,
    spec_from_dict,
    uniform_ball,
    uniform_balls,
)
from relicert.distributions import _draw, derive_rng, derived_rngs
from relicert.reliability import _craft_attacks


def density_bounds(spec):
    """Exact (a, b) envelope for bounded-support specs, None otherwise."""
    if isinstance(spec, NearlyUniform):
        return (spec.a, spec.b)
    if isinstance(spec, UniformCube):
        h = 1.0 / (spec.hi - spec.lo) ** spec.d
        return (h, h)
    if isinstance(spec, MeanShift):
        return density_bounds(spec.base)
    return None


def spec_to_dict(spec) -> dict:
    """The JSON object `spec_from_dict` reads back into spec."""
    if isinstance(spec, IsotropicGaussian):
        return {"kind": "gaussian", "d": spec.d}
    if isinstance(spec, UniformBall):
        return {"kind": "uniform_ball", "d": spec.d}
    if isinstance(spec, UniformCube):
        return {"kind": "uniform_cube", "d": spec.d, "lo": spec.lo, "hi": spec.hi}
    if isinstance(spec, NearlyUniform):
        return {"kind": "nearly_uniform", "d": spec.d, "a": spec.a, "b": spec.b, "tilt": spec.tilt}
    if isinstance(spec, RadialHeavyTail):
        return {"kind": "radial_heavy_tail", "d": spec.d, "s": spec.s}
    if isinstance(spec, MeanShift):
        return {"kind": "mean_shift", "mu": spec.mu.tolist(), "base": spec_to_dict(spec.base)}
    raise ValueError(f"unknown distribution spec {type(spec).__name__}")


ISOTROPIC_SPECS = [
    IsotropicGaussian(2),
    IsotropicGaussian(5),
    UniformBall(3),
    RadialHeavyTail(2, -0.1),
]


def test_determinism_identical_bytes():
    spec = IsotropicGaussian(2)
    a = sample(spec, seed=42, n=3)
    b = sample(spec, seed=42, n=3)
    assert a.tobytes() == b.tobytes()
    c = sample(spec, seed=43, n=3)
    assert a.tobytes() != c.tobytes()


def test_gaussian_prefix_consistency():
    # shorter draws are a prefix of longer ones from the same seed, which
    # nests training sets across sample sizes for paired comparisons
    spec = IsotropicGaussian(2)
    small = sample(spec, seed=9, n=100)
    big = sample(spec, seed=9, n=10_000)
    assert np.array_equal(small, big[:100])


def test_gaussian_mean_within_mc_tolerance():
    X = sample(IsotropicGaussian(2), seed=1, n=100_000)
    assert np.all(np.abs(X.mean(axis=0)) < 0.02)


def test_ball_support_bound():
    X = sample(UniformBall(3), seed=2, n=20_000)
    assert np.all(np.linalg.norm(X, axis=1) <= math.sqrt(5.0) + 1e-12)


@pytest.mark.parametrize("spec", ISOTROPIC_SPECS, ids=lambda s: type(s).__name__ + str(s.d))
def test_isotropic_covariance(spec):
    X = sample(spec, seed=3, n=100_000)
    cov = np.cov(X.T) if spec.d > 1 else np.atleast_2d(np.var(X))
    assert np.linalg.norm(cov - np.eye(spec.d)) <= 0.05 * spec.d


def test_mean_shift_moves_mean_keeps_covariance():
    mu = np.array([0.5, -0.25])
    base = IsotropicGaussian(2)
    X0 = sample(base, seed=4, n=100_000)
    X1 = sample(MeanShift(base, mu), seed=4, n=100_000)
    assert np.allclose(X1.mean(axis=0) - X0.mean(axis=0), mu, atol=0.02)
    assert np.linalg.norm(np.cov(X1.T) - np.eye(2)) < 0.05 * 2
    assert np.array_equal(X1, X0 + mu)


MEAN_SHIFT_BASES = [
    IsotropicGaussian(3),
    UniformBall(3),
    UniformCube(3, -1.0, 2.0),
    NearlyUniform(3, 0.5, 1.5),
    RadialHeavyTail(3, -0.1),
    MeanShift(IsotropicGaussian(3), np.array([-2.0, 0.125, 1e-3])),
]


@pytest.mark.parametrize("n", [0, 1, 2_000])
@pytest.mark.parametrize("base", MEAN_SHIFT_BASES, ids=lambda s: type(s).__name__)
def test_mean_shift_adds_mu_to_the_base_draw_bitwise(base, n):
    mu = np.array([0.5, -0.25, 3.0])
    X0 = sample(base, seed=9, n=n)
    X1 = sample(MeanShift(base, mu), seed=9, n=n)
    assert X1.shape == (n, 3) and X1.dtype == np.float64
    assert np.array_equal(X1.view(np.int64), (X0 + mu).view(np.int64))


def test_cube_bounds_and_density():
    X = sample(UniformCube(2, -1.0, 1.0), seed=5, n=5000)
    assert X.min() >= -1.0 and X.max() <= 1.0
    assert density_bounds(UniformCube(2)) == (1.0, 1.0)
    assert density_bounds(UniformCube(1, -1.0, 1.0)) == (0.5, 0.5)


def test_nearly_uniform_bounds_and_samples():
    spec = NearlyUniform(2, 0.5, 1.5)
    assert density_bounds(spec) == (0.5, 1.5)
    X = sample(spec, seed=6, n=40_000)
    assert X.min() >= 0.0 and X.max() <= 1.0
    # the cosine tilt pushes mass toward the edges of the first coordinate
    edge = np.mean((X[:, 0] < 0.25) | (X[:, 0] > 0.75))
    assert edge > 0.52
    with pytest.raises(ValueError):
        NearlyUniform(2, 0.5, 1.2)  # a + b must be 2
    with pytest.raises(ValueError):
        NearlyUniform(2, 0.0, 2.0)


def test_density_bounds_unsupported():
    assert density_bounds(IsotropicGaussian(3)) is None
    assert density_bounds(RadialHeavyTail(2, -0.1)) is None
    assert density_bounds(MeanShift(UniformCube(1), np.array([0.3]))) == (1.0, 1.0)


def test_heavy_tail_sigma_against_quadrature():
    spec = RadialHeavyTail(3, -0.1)
    k = spec.decay
    num = integrate.quad(lambda u: u ** (spec.d + 1) * (1 + u) ** (-k), 0, np.inf)[0]
    den = integrate.quad(lambda u: u ** (spec.d - 1) * (1 + u) ** (-k), 0, np.inf)[0]
    sigma_quad = math.sqrt(spec.d / (num / den))
    assert spec.sigma == pytest.approx(sigma_quad, rel=1e-9)


def test_heavy_tail_validates_s_range():
    with pytest.raises(ValueError):
        RadialHeavyTail(2, 0.1)
    with pytest.raises(ValueError):
        RadialHeavyTail(2, -0.5)  # below -1/(2d+3)
    RadialHeavyTail(2, -1.0 / 7.0)  # boundary of the supported regime


def test_heavy_tail_is_heavier_than_gaussian():
    Xh = sample(RadialHeavyTail(2, -0.1), seed=7, n=100_000)
    Xg = sample(IsotropicGaussian(2), seed=7, n=100_000)
    q = 0.999
    qh = np.quantile(np.linalg.norm(Xh, axis=1), q)
    qg = np.quantile(np.linalg.norm(Xg, axis=1), q)
    assert qh > qg * 1.3


def test_spec_json_round_trip():
    specs = [
        IsotropicGaussian(2),
        UniformBall(4),
        UniformCube(1, -0.5, 0.5),
        NearlyUniform(3, 0.5, 1.5, "lin1"),
        RadialHeavyTail(2, -0.05),
        MeanShift(IsotropicGaussian(2), np.array([0.3, 0.0])),
    ]
    for spec in specs:
        blob = json.dumps(spec_to_dict(spec), sort_keys=True)
        back = spec_from_dict(json.loads(blob))
        assert json.dumps(spec_to_dict(back), sort_keys=True) == blob
        a = sample(spec, seed=11, n=4)
        b = sample(back, seed=11, n=4)
        assert a.tobytes() == b.tobytes()


def test_spec_serialization_matches_documented_shape():
    assert spec_to_dict(IsotropicGaussian(2)) == {"kind": "gaussian", "d": 2}
    ms = spec_from_dict({"kind": "mean_shift", "mu": [0.3, 0.0], "base": {"kind": "gaussian", "d": 2}})
    assert isinstance(ms, MeanShift)


def test_cdf_quantile_consistency():
    specs = [
        IsotropicGaussian(1),
        UniformCube(1, -0.5, 0.5),
        UniformBall(1),
        NearlyUniform(1, 0.5, 1.5),
        MeanShift(UniformCube(1, -0.5, 0.5), np.array([0.25])),
    ]
    for spec in specs:
        for p in (0.05, 0.3, 0.5, 0.77, 0.95):
            t = quantile_1d(spec, p)
            assert cdf_1d(spec, t) == pytest.approx(p, abs=1e-9)
    with pytest.raises(ValueError):
        cdf_1d(RadialHeavyTail(1, -0.1), 0.0)


def test_cdf_matches_empirical():
    spec = NearlyUniform(1, 0.5, 1.5)
    X = sample(spec, seed=12, n=100_000)[:, 0]
    for t in (0.2, 0.5, 0.8):
        assert cdf_1d(spec, t) == pytest.approx(np.mean(X <= t), abs=0.01)


def test_zero_draws():
    assert sample(IsotropicGaussian(3), seed=0, n=0).shape == (0, 3)
    with pytest.raises(ValueError):
        sample(IsotropicGaussian(3), seed=0, n=-1)


# The uniform-ball formulas that `uniform_ball` replaced, kept as written:
# the spec sampler and the sampled ball-sup loss.


def _old_draw(rng, n, d, radius):
    g = rng.standard_normal((n, d))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    r = radius * rng.random(n) ** (1.0 / d)
    return g * r[:, None]


def _old_sample_ball(rng, x, eta, n):
    d = x.shape[0]
    g = rng.standard_normal((n, d))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = eta * rng.random(n) ** (1.0 / d)
    return x[None, :] + g * radii[:, None]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_uniform_ball_matches_the_formulas_it_replaced(d, n):
    def rng():
        return np.random.Generator(np.random.Philox(key=100 * d + n))

    spec = UniformBall(d)
    assert _draw(spec, rng(), n).tobytes() == _old_draw(rng(), n, d, spec.radius).tobytes()
    x = np.linspace(-1.0, 1.0, d)
    new = x + uniform_ball(rng(), n, d, 0.3)
    assert new.tobytes() == _old_sample_ball(rng(), x, 0.3, n).tobytes()


@pytest.mark.parametrize("d", [1, 3, 8])
def test_uniform_balls_draws_each_generators_own_ball(d):
    # the attack trials' ball check: each certified trial's 64 points are the
    # ones a one-row certify of that trial draws from its own stream
    radii = np.linspace(0.1, 2.0, 9) * (1.0 - 1e-9)
    got = uniform_balls([derive_rng(s, 101) for s in range(9)], 64, d, radii)
    want = [uniform_ball(derive_rng(s, 101), 64, d, radii[s]) for s in range(9)]
    assert got.tobytes() == np.stack(want).tobytes()
    rekeyed = uniform_balls(derived_rngs(range(9), 101), 64, d, radii)
    assert rekeyed.tobytes() == got.tobytes()
    # an iterator gives up exactly one generator per ball, so row blocks of
    # one check draw what one call draws
    rngs = derived_rngs(range(9), 101)
    blocks = [uniform_balls(rngs, 64, d, radii[lo : lo + 4]) for lo in range(0, 9, 4)]
    assert np.concatenate(blocks).tobytes() == got.tobytes()
    # certify_many's check: one generator for every row, row after row
    one = derive_rng(3, 101)
    want = [uniform_ball(one, 64, d, r) for r in radii]
    repeated = uniform_balls(itertools.repeat(derive_rng(3, 101)), 64, d, radii)
    assert repeated.tobytes() == np.stack(want).tobytes()


_EDGE_SEEDS = [0, 2**63, 2**64 - 1, 7, -1, -(2**63), -12345, 7]


def _stream_bits(rng):
    # 64-bit doubles, then an odd count of 32-bit draws, which leaves half a
    # word buffered: the next re-key must drop it
    return (rng.standard_normal(5).tobytes() + rng.random(3).tobytes()
            + rng.integers(0, 2**31, 3, dtype=np.int32).tobytes())


@pytest.mark.parametrize("stream", [(101,), (), (3, 4)])
def test_derived_rngs_rekey_to_the_derive_rng_streams(stream):
    # one Philox re-keyed per seed draws the bits of a fresh derive_rng(seed,
    # *stream): several rows in one call, keys at the 64-bit edges, negative
    # seeds, and a seed repeated after others
    got = [_stream_bits(rng) for rng in derived_rngs(_EDGE_SEEDS, *stream)]
    assert got == [_stream_bits(derive_rng(seed, *stream)) for seed in _EDGE_SEEDS]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_random_ball_attack_keeps_its_draws(d):
    def rng():
        return np.random.Generator(np.random.Philox(key=d))

    x = np.linspace(-1.0, 1.0, d)
    old = rng()
    g = old.standard_normal(d)
    g /= max(float(np.linalg.norm(g)), 1e-300)
    want = x + 0.2 * old.random() ** (1.0 / d) * g
    got = _craft_attacks(None, x[None, :], 0.2, "random-ball", [rng()], range(1))
    assert got.tobytes() == want.tobytes()
