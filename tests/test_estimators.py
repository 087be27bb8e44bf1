import math

import numpy as np
import pytest

from oracles import run_trial

from relicert import estimators, reliability
from relicert.core import Dataset, LinearHomogeneous, Threshold, _as_point
from relicert.distributions import (
    IsotropicGaussian,
    MeanShift,
    UniformBall,
    UniformCube,
    _draw,
    derive_rng,
    sample,
)
from relicert.losses import LossKind
from relicert.reliability import sr_membership_mask
from relicert.version_space import fit_batch, fit_version_space
from relicert.estimators import (
    RegionEstimate,
    ThetaEstimate,
    _estimate,
    default_r_grid,
    epsilon_for_sample_size,
    estimate_csv_row,
    hoeffding_halfwidth,
    reliable_correctness,
    sample_size_for_epsilon,
    sr_mass,
    theta_pq,
)


def mc_mass(predicate, spec, n: int, seed: int) -> RegionEstimate:
    """Empirical frequency of a vectorized point predicate under spec."""
    if n < 1:
        raise ValueError("need at least one sample")
    X = sample(spec, seed, n)
    vals = np.asarray(predicate(X), dtype=bool)
    if vals.shape != (n,):
        raise ValueError("predicate must map (n, d) points to n booleans")
    return _estimate(float(np.mean(vals)), n, seed)


def overlaps(a: RegionEstimate, b: RegionEstimate) -> bool:
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def dis_ball_membership_rotinv(hstar: LinearHomogeneous, r: float, x) -> bool:
    """Is x flipped by some separator within source-disagreement r of the
    target, for rotationally invariant source distributions?

    There the disagreement mass of two homogeneous separators is their
    normal angle over pi, so the test reduces to whether the minimal
    rotation flipping x (|pi/2 - angle(w*, x)|) is at most pi * r.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    x = _as_point(x, dim=hstar.dimension)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise ValueError("the zero vector is never flipped")
    c = float(hstar.w @ x) / nx
    theta = math.acos(min(max(c, -1.0), 1.0))
    return abs(math.pi / 2.0 - theta) <= math.pi * r


# ---------------------------------------------------------------------------
# plain Monte-Carlo masses
# ---------------------------------------------------------------------------


def test_mc_mass_analytic_half():
    est = mc_mass(lambda X: X[:, 0] <= 0.5, UniformCube(1), n=100_000, seed=1)
    assert est.mass == pytest.approx(0.5, abs=0.01)
    assert est.ci_low <= est.mass <= est.ci_high


def test_mc_mass_always_false():
    est = mc_mass(lambda X: np.zeros(X.shape[0], dtype=bool), UniformCube(2), n=500, seed=2)
    assert est.mass == 0.0 and est.ci_low == 0.0


def test_mc_mass_halfspace_symmetry():
    w = np.array([1.0, 0.0])
    est = mc_mass(lambda X: X @ w >= 0, IsotropicGaussian(2), n=100_000, seed=3)
    assert est.mass == pytest.approx(0.5, abs=0.01)


def test_region_estimate_invariants():
    with pytest.raises(ValueError):
        RegionEstimate(mass=0.5, ci_low=0.6, ci_high=0.7, n=100, seed=0)
    with pytest.raises(ValueError):
        RegionEstimate(mass=0.5, ci_low=0.0, ci_high=1.0, n=10_000, seed=0)
    hw = hoeffding_halfwidth(100)
    RegionEstimate(mass=0.5, ci_low=0.5 - hw, ci_high=0.5 + hw, n=100, seed=0)


def test_ci_calibration():
    # Hoeffding is conservative, so coverage should be near-total
    truth = 0.3
    covered = 0
    reps = 200
    for k in range(reps):
        est = mc_mass(lambda X: X[:, 0] <= truth, UniformCube(1), n=200, seed=1000 + k)
        covered += int(est.ci_low <= truth <= est.ci_high)
    assert covered / reps >= 0.93


# ---------------------------------------------------------------------------
# safely-reliable masses
# ---------------------------------------------------------------------------


def test_sr_mass_threshold_example():
    est = sr_mass(
        "threshold", Threshold(0.0), UniformCube(1, -1.0, 1.0),
        m=200, eta1=0.05, eta2=0.05, kind=LossKind.ST,
        trials=12, n_test=4000, seed=6,
    )
    assert est.mass == pytest.approx(0.89, abs=0.03)
    assert est.mass >= 1 - 2 * (0.05 + 0.05) - 0.1


def test_sr_mass_zero_when_attack_swamps_support():
    est = sr_mass(
        "threshold", Threshold(0.0), UniformCube(1, -1.0, 1.0),
        m=100, eta1=3.0, eta2=0.0, kind=LossKind.ST, trials=3, n_test=500, seed=7,
    )
    assert est.mass == 0.0


def test_sr_mass_ca_tl_identical_under_shared_seeds():
    hstar = LinearHomogeneous(np.array([0.3, -0.95]))
    kw = dict(m=250, eta1=0.05, eta2=0.0, trials=4, n_test=1500, seed=8)
    ca = sr_mass("linear", hstar, IsotropicGaussian(2), kind=LossKind.CA, **kw)
    tl = sr_mass("linear", hstar, IsotropicGaussian(2), kind=LossKind.TL, **kw)
    assert ca.mass == tl.mass


def test_sr_mass_triangle_additivity():
    hstar = LinearHomogeneous(np.array([1.0, 1.0]))
    kw = dict(m=400, kind=LossKind.ST, trials=4, n_test=1500, seed=9)
    a = sr_mass("linear", hstar, IsotropicGaussian(2), eta1=0.04, eta2=0.06, **kw)
    b = sr_mass("linear", hstar, IsotropicGaussian(2), eta1=0.10, eta2=0.0, **kw)
    assert a.mass == b.mass  # the distance test depends only on the sum
    assert overlaps(a, b)


def test_sr_mass_jobs_invariance():
    hstar = Threshold(0.0)
    kw = dict(m=150, eta1=0.05, eta2=0.05, kind=LossKind.ST, trials=6, n_test=800, seed=10)
    a = sr_mass("threshold", hstar, UniformCube(1, -1.0, 1.0), jobs=1, **kw)
    b = sr_mass("threshold", hstar, UniformCube(1, -1.0, 1.0), jobs=3, **kw)
    assert a.mass == b.mass


def test_sr_mass_ca_jobs_invariance_linear():
    hstar = LinearHomogeneous(np.array([0.3, -0.95]))
    kw = dict(m=100, eta1=0.1, eta2=0.05, kind=LossKind.CA, trials=7, n_test=400, seed=12)
    a = sr_mass("linear", hstar, IsotropicGaussian(2), jobs=1, **kw)
    b = sr_mass("linear", hstar, IsotropicGaussian(2), jobs=3, **kw)
    assert (a.mass, a.ci_low, a.ci_high) == (b.mass, b.ci_low, b.ci_high)
    assert 0.0 < a.mass < 1.0


def test_shift_st_jobs_invariance_linear():
    hstar = LinearHomogeneous(np.array([0.48, 0.6, -0.64]))
    Q = MeanShift(IsotropicGaussian(3), 0.5 * hstar.w)
    kw = dict(m=80, trials=7, n_test=500, eta1=0.1, eta2=0.05, kind=LossKind.ST, seed=13)
    a = reliable_correctness("linear", hstar, IsotropicGaussian(3), Q, jobs=1, **kw)
    b = reliable_correctness("linear", hstar, IsotropicGaussian(3), Q, jobs=3, **kw)
    assert (a.mass, a.ci_low, a.ci_high) == (b.mass, b.ci_low, b.ci_high)
    assert 0.0 < a.mass < 1.0


def test_trial_loops_match_one_fit_per_trial_across_sub_batches():
    # both trial workers fit in sub-batches of fit_batch(m, d) trials: 51 + 9
    # for the shift trials below, 68 + 68 + 14 for the attack trials; each
    # trial must come out bit for bit as a loop fitting one trial at a time,
    # and the attack trials' batched finish as the one-trial oracle
    assert (fit_batch(80, 3), fit_batch(60, 3)) == (51, 68)
    hstar = LinearHomogeneous(np.array([0.48, 0.6, -0.64]))
    P = IsotropicGaussian(3)
    Q = MeanShift(P, 0.5 * hstar.w)

    def one_fit(rng, m):
        X = _draw(P, rng, m)
        return fit_version_space(Dataset(X, hstar.predict_many(X)), "linear", hstar.w)

    strengths = (0.1, 0.05, LossKind.ST)
    got = estimators._shift_trial_mean(("linear", hstar, P, Q, 80, *strengths, 300, 14, 0, 60))
    want = []
    for t in range(60):
        vs = one_fit(derive_rng(14, t, 0), 80)
        T = _draw(Q, derive_rng(14, t, 1), 300)
        want.append(float(np.mean(sr_membership_mask(vs, hstar, T, *strengths))))
    assert got == want

    attack = (0.2, LossKind.ST, "boundary-directed")
    fits = reliability.fitted_batches("linear", hstar, P, 60, range(150),
                                      lambda t: derive_rng(32 ^ t))
    assert [(t, vs.rays().tobytes()) for batch, _, vss in fits for t, vs in zip(batch, vss)] == [
        (t, one_fit(np.random.Generator(np.random.Philox(key=32 ^ t)), 60).rays().tobytes())
        for t in range(150)
    ]
    certified, witnesses = reliability._run_trial_range(
        ("linear", hstar, P, 60, *attack, 32, 0, 150)
    )
    want = []
    for t in range(150):
        rng = np.random.Generator(np.random.Philox(key=32 ^ t))
        vs = one_fit(rng, 60)
        want.append(run_trial(t, 32 ^ t, rng, vs, hstar, P, *attack))
    assert certified == sum(binding for binding, _ in want)
    assert witnesses == [bad for _, bad in want if bad is not None]


# ---------------------------------------------------------------------------
# rotation-invariant hypothesis-ball membership
# ---------------------------------------------------------------------------


def test_dis_ball_rotinv_examples():
    hstar = LinearHomogeneous(np.array([0.0, 1.0]))
    assert dis_ball_membership_rotinv(hstar, 0.25, [1.0, 0.0])
    assert not dis_ball_membership_rotinv(hstar, 0.25, [0.0, 1.0])
    for x in ([0.3, -2.0], [5.0, 0.1], [-1.0, -1.0]):
        assert dis_ball_membership_rotinv(hstar, 0.5, x)
    with pytest.raises(ValueError):
        dis_ball_membership_rotinv(hstar, 0.25, [0.0, 0.0])


def test_dis_ball_rotinv_against_bruteforce():
    # dense rotation grid + empirical disagreement on a large reference draw
    rng = np.random.default_rng(11)
    hstar = LinearHomogeneous(np.array([0.6, 0.8]))
    ref = sample(IsotropicGaussian(2), seed=12, n=100_000)
    phis = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
    W = np.column_stack([np.cos(phis), np.sin(phis)])
    ref_signs = ref @ hstar.w >= 0
    emp_dis = np.empty(W.shape[0])  # empirical disagreement, 16 rotations at a time
    for lo in range(0, W.shape[0], 16):
        chunk = W[lo : lo + 16] @ ref.T
        emp_dis[lo : lo + 16] = np.mean((chunk >= 0) != ref_signs[None, :], axis=1)
    mism = 0
    for _ in range(300):
        r = float(rng.uniform(0.02, 0.45))
        x = rng.standard_normal(2)
        ball = emp_dis <= r
        flips = (W[ball] @ x >= 0) != (float(hstar.w @ x) >= 0)
        brute = bool(np.any(flips))
        got = dis_ball_membership_rotinv(hstar, r, x)
        if got != brute:
            # disagreements may only live within sampling tolerance of the
            # rotation boundary
            nx = np.linalg.norm(x)
            theta = math.acos(min(max(float(hstar.w @ x) / nx, -1), 1))
            assert abs(abs(math.pi / 2 - theta) / math.pi - r) <= 1e-2
            mism += 1
    assert mism <= 12


# ---------------------------------------------------------------------------
# disagreement coefficient
# ---------------------------------------------------------------------------


def test_theta_threshold_shift_example():
    P = UniformCube(1, -0.5, 0.5)
    Q = UniformCube(1, -1.0, 1.0)
    est = theta_pq("threshold", Threshold(0.0), P, Q, epsilon=0.01, n=100_000, seed=13)
    assert est.value == pytest.approx(1.0, abs=0.1)
    assert est.method == "threshold-cdf"


def test_theta_threshold_same_distribution():
    P = UniformCube(1, -0.5, 0.5)
    est = theta_pq("threshold", Threshold(0.0), P, P, epsilon=0.01, n=100_000, seed=13)
    assert est.value == pytest.approx(2.0, abs=0.2)


def test_theta_monotone_in_target_spread():
    P = UniformCube(1, -0.5, 0.5)
    narrow = theta_pq("threshold", Threshold(0.0), P, UniformCube(1, -1, 1), epsilon=0.01, seed=14)
    wide = theta_pq("threshold", Threshold(0.0), P, UniformCube(1, -2, 2), epsilon=0.01, seed=14)
    assert wide.value == pytest.approx(0.5 * narrow.value, rel=0.05)


def test_theta_rotinv_symmetric_across_targets():
    # rotation-invariant source and target of different radial laws give the
    # same coefficient as the same-distribution case
    hstar = LinearHomogeneous(np.array([0.28, 0.96]))
    same = theta_pq("linear", hstar, UniformBall(2), UniformBall(2), epsilon=0.05, n=100_000, seed=15)
    cross = theta_pq("linear", hstar, UniformBall(2), IsotropicGaussian(2), epsilon=0.05, n=100_000, seed=16)
    hw = 2 * hoeffding_halfwidth(100_000) / 0.05  # mass error over smallest r
    assert abs(same.value - cross.value) <= max(0.1, hw)


def test_theta_gaussian_source_cdf_path():
    est = theta_pq(
        "threshold", Threshold(0.0), IsotropicGaussian(1), IsotropicGaussian(1),
        epsilon=0.05, n=10_000, seed=17,
    )
    assert est.method == "threshold-cdf"
    assert est.value > 1.0  # same-distribution coefficient is at least 1


def test_theta_estimate_validation():
    grid = default_r_grid(0.01)
    with pytest.raises(ValueError):
        ThetaEstimate(value=5.0, r_grid=grid, masses=np.ones_like(grid),
                      epsilon=0.01, n=10, seed=0, method="x")
    with pytest.raises(ValueError):
        theta_pq("threshold", Threshold(0.0), UniformCube(1), UniformCube(1),
                 epsilon=0.1, r_grid=np.array([0.05]))


def test_theta_qualitative_dimension_trend(tmp_path):
    # finiteness and growth with dimension for the linear class; the curve is
    # recorded, no constants asserted
    rows = ["d,theta"]
    values = []
    for d in (2, 4, 8):
        w = np.zeros(d)
        w[0] = 1.0
        est = theta_pq("linear", LinearHomogeneous(w), IsotropicGaussian(d),
                       IsotropicGaussian(d), epsilon=0.02, n=40_000, seed=18)
        assert math.isfinite(est.value)
        values.append(est.value)
        rows.append(f"{d},{est.value!r}")
    (tmp_path / "theta_trend.csv").write_text("\n".join(rows) + "\n")
    assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------------------
# reliable correctness under shift
# ---------------------------------------------------------------------------


def test_reliable_correctness_threshold_shift():
    P = UniformCube(1, -0.5, 0.5)
    Q = UniformCube(1, -1.0, 1.0)
    est = reliable_correctness("threshold", Threshold(0.0), P, Q,
                               m=1000, trials=10, n_test=4000, seed=19)
    assert est.mass >= 0.995
    eps = epsilon_for_sample_size(1000, vc_dim=1)
    assert est.mass >= 1.0 - 1.0 * eps - 0.05


def test_reliable_correctness_requires_zero_etas_without_loss():
    with pytest.raises(ValueError):
        reliable_correctness("threshold", Threshold(0.0), UniformCube(1), UniformCube(1),
                             m=10, trials=1, n_test=10, eta1=0.1)


def test_reliable_correctness_realizability_abort():
    bad = Dataset.from_points([[0.4], [0.6]], [1, -1])  # mislabeled for t*=0.5
    with pytest.raises(ValueError, match="realizable"):
        reliable_correctness("threshold", Threshold(0.5), UniformCube(1), UniformCube(1),
                             m=10, trials=1, n_test=10, labeled_test=bad)


def test_pq_mean_shift_bound():
    hstar = LinearHomogeneous(np.array([1.0, 0.0]))
    P = IsotropicGaussian(2)
    mu = 0.3 * hstar.w
    base = reliable_correctness("linear", hstar, P, P, m=500, trials=6, n_test=2000,
                                eta1=0.05, eta2=0.05, kind=LossKind.ST, seed=20)
    shifted = reliable_correctness("linear", hstar, P, MeanShift(P, mu),
                                   m=500, trials=6, n_test=2000,
                                   eta1=0.05, eta2=0.05, kind=LossKind.ST, seed=20)
    assert shifted.mass >= base.mass - 2 * 0.3 - 0.1


def test_sample_size_round_trips():
    eps = epsilon_for_sample_size(sample_size_for_epsilon(0.1, 3), 3)
    assert eps <= 0.1 + 1e-9


def test_estimate_csv_row_schema():
    est = RegionEstimate(mass=0.5, ci_low=0.4, ci_high=0.6, n=100, seed=7)
    row = estimate_csv_row("sr-mass", "linear", LossKind.ST, 0.05, 0.05, 100, 2, 10, 1000, est)
    parts = row.split(",")
    assert len(parts) == 13
    assert parts[0] == "sr-mass" and parts[1] == "linear" and parts[2] == "st"
    assert parts[-1] == "7"
