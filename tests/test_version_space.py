import itertools
import math

import numpy as np
import pytest

from oracles import (
    boundary_margin,
    cap_stays_unanimous,
    cone_codes_where,
    cone_distances_where,
    cone_membership_lp,
    cone_margins_lp,
    cone_membership_pointwise,
    cone_min_abs_inner_svd,
    cone_rays_qhull,
    geometry_2d_many,
    lift_threshold_dataset,
    membership_2d,
    membership_threshold,
    radius_2d_bruteforce,
)

from relicert.core import BaseBoundary, Dataset, LinearHomogeneous, OffsetBoundary, Threshold
from relicert.losses import LossKind
from relicert.reliability import certify
from relicert import version_space
from relicert.version_space import (
    ConeVS,
    DegenerateVersionSpaceError,
    IntervalVS,
    OffsetClass,
    RealizabilityError,
    _build_cone_bank,
    _build_cone_banks,
    erm,
    fit_stack,
    fit_version_space,
    fit_version_spaces,
    member_labels,
    random_members,
)


def two_point_interval():
    S = Dataset.from_points([[0.2], [0.8]], [-1, 1])
    return fit_version_space(S, "threshold")


def spec_arc():
    S = Dataset.from_points([[1.0, 0.5], [1.0, -0.5]], [1, -1])
    return S, fit_version_space(S, "linear")


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_threshold_interval():
    vs = two_point_interval()
    assert isinstance(vs, IntervalVS)
    assert (vs.lo, vs.hi) == (0.2, 0.8)
    # (lo, hi]: the negative sample's cut reads -1, the positive one's +1
    assert vs.membership_many(np.array([[0.2], [0.8]])).tolist() == [-1, 1]


def test_hinted_fit_raises_the_ray_cap_at_the_fit(monkeypatch):
    rng = np.random.default_rng(5)
    w = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    X = rng.standard_normal((40, 5))
    S = Dataset(X, np.where(X @ w >= 0.0, 1, -1))
    monkeypatch.setattr("relicert.version_space.RAY_CAP", 8)
    with pytest.raises(DegenerateVersionSpaceError, match="above the cap of 8"):
        fit_version_space(S, "linear", interior_hint=w)
    monkeypatch.undo()
    assert fit_version_space(S, "linear", interior_hint=w).rays().shape[0] > 8


def test_fit_arc_matches_angle_grid():
    # in the plane the cone is the arc of normal angles [63.43, 116.57] degrees
    S, vs = spec_arc()
    assert isinstance(vs, ConeVS)
    angles = sorted(math.degrees(math.atan2(r[1], r[0])) for r in vs.rays())
    assert angles == pytest.approx([63.43494882, 116.56505118], abs=1e-4)
    # the negative sample's facet is open: its direction reads -1.  The
    # positive sample's facet is closed: its normal labels the antipode of
    # that sample +1, against every other normal, so the antipode is disputed
    x_neg, x_pos = S.X[1] / np.linalg.norm(S.X[1]), S.X[0] / np.linalg.norm(S.X[0])
    assert vs.membership_many(np.vstack([x_neg, -x_pos])).tolist() == [-1, 0]
    Z = 1.5 * np.random.default_rng(2).standard_normal((200, 2))
    Z = Z[[boundary_margin(vs, z) > 1e-3 for z in Z]]
    codes, _ = geometry_2d_many(S.X, S.y, Z)
    assert vs.membership_many(Z).tolist() == codes.tolist()


def test_fit_empty_dataset_full_class():
    assert fit_version_space(Dataset.empty(1), "threshold").lo == -math.inf
    plane = fit_version_space(Dataset.empty(2), "linear")
    assert isinstance(plane, ConeVS) and plane.A.shape == (0, 2)
    # every normal is consistent: only the origin is agreed
    Z = np.vstack([[0.0, 0.0], np.random.default_rng(1).standard_normal((50, 2))])
    codes, _ = geometry_2d_many(np.zeros((0, 2)), np.zeros(0, dtype=int), Z, step=1e-3)
    assert plane.membership_many(Z).tolist() == codes.tolist() == [1] + [0] * 50
    cone = fit_version_space(Dataset.empty(3), "linear")
    assert isinstance(cone, ConeVS) and cone.A.shape == (0, 3)


def test_hinted_fit_of_an_empty_linear_sample():
    # an empty sample's generators are +-e_i, which cancel: its interior is
    # its first generator, e1, hinted or not, alone or stacked with a sample
    # the hint orders
    w = np.array([0.6, 0.8, 0.0])
    plain = fit_version_space(Dataset.empty(3), "linear")
    hinted = fit_version_space(Dataset.empty(3), "linear", interior_hint=w)
    X = np.random.default_rng(3).standard_normal((5, 3))
    S = Dataset(X, LinearHomogeneous(w).predict_many(X))
    stacked, served = fit_version_spaces([Dataset.empty(3), S], "linear", interior_hint=w)
    for vs in (hinted, stacked):
        assert vs.interior.tolist() == plain.interior.tolist() == [1.0, 0.0, 0.0]
        assert vs.rays().tobytes() == plain.rays().tobytes()
        assert vs.A.shape == (0, 3) and vs.slack == math.inf
    assert 0.0 < served.slack < 1.0
    assert served.slack == np.min(served.A @ served.interior)
    # its member draw: the interior fraction, then a Gaussian normal
    rng, ref = (np.random.Generator(np.random.Philox(key=9)) for _ in range(2))
    ref.random()
    g = ref.standard_normal(3)
    assert np.allclose(random_members([hinted], [rng])[0], g / np.linalg.norm(g),
                       rtol=0, atol=1e-15)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("concept", ["linear", "threshold"])
def test_member_draws_are_rows_of_one_batched_draw(concept):
    # each row of random_members is its one-row call, and every draw takes the interior fraction, then (cones) the unit vector and the step
    rng = np.random.default_rng(8)
    d = 3 if concept == "linear" else 1
    hstar = LinearHomogeneous(np.array([0.6, -0.48, 0.64])) if d == 3 else Threshold(0.1)
    samples = []
    for m in (0, 1, 2, 40, 40):
        X = rng.standard_normal((m, d))
        samples.append(Dataset(X, hstar.predict_many(X)))
    vss = fit_version_spaces(samples, concept, getattr(hstar, "w", None))

    def streams():
        return [np.random.Generator(np.random.Philox(key=50 + i)) for i in range(len(vss))]

    batch, rngs = random_members(vss, streams()), streams()
    for i, (vs, rng) in enumerate(zip(vss, rngs)):
        assert random_members([vs], [rng])[0].tobytes() == batch[i].tobytes()
        ref = streams()[i]
        u = 0.02 + 0.96 * ref.random()
        if d == 1:
            if math.isinf(vs.lo) and math.isinf(vs.hi):
                want = ref.standard_normal()
            elif math.isinf(vs.lo) or math.isinf(vs.hi):
                want = vs.hi - ref.random() if math.isinf(vs.lo) else vs.lo + ref.random()
            else:
                want = vs.lo + u * (vs.hi - vs.lo)
            assert batch[i] == want
        else:
            g = ref.standard_normal(3)
            v = g
            if vs.A.shape[0]:
                v = vs.interior + 0.45 * vs.slack * ref.random() * (g / np.linalg.norm(g))
                assert np.all(vs.A @ batch[i] >= 0.0)
            assert np.allclose(batch[i], v / np.linalg.norm(v), rtol=0, atol=1e-15)
        assert rng.random() == ref.random()  # both streams stand at the same draw


def test_fit_stack_pads_with_label_0():
    # a zero row of label 0 is no point: the padded stack fits the samples
    rng = np.random.default_rng(4)
    for concept, d in (("linear", 3), ("threshold", 1)):
        X = rng.standard_normal((3, 30, d))
        y = np.where(X[..., 0] >= 0.1, 1, -1)
        y[1, 20:], X[1, 20:] = 0, 0.0
        fits = fit_stack(X, y, concept)
        for c, n in enumerate((30, 20, 30)):
            one = fit_version_space(Dataset(X[c, :n], y[c, :n]), concept)
            if concept == "linear":
                assert fits[c].rays().tobytes() == one.rays().tobytes()
                assert fits[c].A.tobytes() == one.A.tobytes()
            else:
                assert (fits[c].lo, fits[c].hi) == (one.lo, one.hi)


def test_fit_rejects_nonrealizable():
    S = Dataset.from_points([[0.8], [0.2]], [-1, 1])
    with pytest.raises(RealizabilityError):
        fit_version_space(S, "threshold")
    S2 = Dataset.from_points([[1.0, 0.0], [2.0, 0.0]], [1, -1])
    with pytest.raises(RealizabilityError):
        fit_version_space(S2, "linear")
    # every homogeneous separator labels the origin +1
    with pytest.raises(RealizabilityError):
        fit_version_space(Dataset.from_points([[0.0, 0.0]], [-1]), "linear")


def test_fit_rejects_positive_nu():
    # only realizable samples are fitted: there is no error threshold to pass
    S = Dataset.from_points([[0.2], [0.8]], [-1, 1])
    with pytest.raises(TypeError):
        fit_version_space(S, "threshold", nu=0.1)
    with pytest.raises(TypeError):
        fit_version_space(S, "threshold", nu=1.5)


def test_fit_offset_interval():
    base = BaseBoundary("sine", (0.2, 0.1, 1.0))
    concept = OffsetClass(base)
    hstar = OffsetBoundary(base, 0.1)
    rng = np.random.default_rng(0)
    X = rng.random((40, 2))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, concept)
    assert isinstance(vs, IntervalVS)
    assert vs.lo < 0.1 <= vs.hi


# ---------------------------------------------------------------------------
# erm
# ---------------------------------------------------------------------------


def test_erm_threshold_midpoint():
    S = Dataset.from_points([[0.2], [0.8]], [-1, 1])
    assert erm(S, "threshold").t == pytest.approx(0.5)


def test_erm_arc_midpoint():
    S, _ = spec_arc()
    w = erm(S, "linear").w
    assert abs(w[0]) < 1e-12 and w[1] == pytest.approx(1.0)


def test_erm_single_sample_half_circle():
    S = Dataset.from_points([[1.0, 0.0]], [1])
    w = erm(S, "linear").w
    assert np.allclose(w, [1.0, 0.0], atol=1e-12)


def test_erm_is_always_consistent():
    rng = np.random.default_rng(3)
    for d, concept in ((1, "threshold"), (2, "linear"), (4, "linear")):
        wstar = rng.standard_normal(d)
        h = Threshold(0.0) if d == 1 else LinearHomogeneous(wstar)
        X = rng.standard_normal((25, d))
        S = Dataset(X, h.predict_many(X))
        g = erm(S, concept)
        assert np.array_equal(g.predict_many(S.X), S.y)



def test_erm_without_lp_margin_is_the_canonical_normal():
    # no rows, or no interior (margin 0): erm gives the fitted cone's
    # canonical normal, bit for bit; an interval gives its canonical cut
    X = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    for S in (Dataset.from_points(X, [1, 1, 1]), Dataset.empty(3)):
        w = erm(S, "linear").w
        assert w.tobytes() == fit_version_space(S, "linear").canonical.tobytes()
    base = BaseBoundary("affine", (0.1, 0.5))
    S = Dataset.from_points([[0.5, 0.2], [0.5, 0.9]], [-1, 1])
    h = erm(S, OffsetClass(base))
    assert isinstance(h, OffsetBoundary) and h.base is base
    assert h.offset == fit_version_space(S, OffsetClass(base)).canonical


def test_hinted_interior_is_the_normalised_generator_sum():
    # a hint orders the ray build and is no member: the interior, also the
    # canonical member, is the normalised sum of the cone's own generators,
    # stacked or alone, with a lineality space (+-l) or without
    rng = np.random.default_rng(12)
    w = np.array([0.6, -0.48, 0.64])
    X = rng.standard_normal((40, 3))
    S = Dataset(X, LinearHomogeneous(w).predict_many(X))
    line = Dataset.from_points([[0.3, 0.4, 1.2]], [1])
    cones = [fit_version_space(T, "linear", interior_hint=w) for T in (S, line)]
    cones += fit_version_spaces([S, line], "linear", interior_hint=w)
    for vs in cones:
        total = vs.rays().sum(axis=0)
        assert np.allclose(vs.interior, total / np.linalg.norm(total), rtol=0, atol=1e-15)
        assert vs.canonical is vs.interior
        assert np.linalg.norm(vs.interior - w) > 1e-3 and np.min(vs.A @ vs.interior) > 0.0
    assert len(cones[1].rays()) > 2  # the line's cone holds +-l


@pytest.mark.parametrize("d", [3, 5])
def test_hinted_and_unhinted_fits_agree(d):
    # one full-rank sample, hinted by its target or not: the same decision,
    # the same generators and the same interior, up to the rounding of the
    # row order; a sample no hint can serve raises either way
    rng = np.random.default_rng(40 + d)
    for m in (d, 20, 60):
        w = rng.standard_normal(d)
        X = rng.standard_normal((m, d))
        S = Dataset(X, np.where(X @ w >= 0.0, 1, -1))
        plain = fit_version_space(S, "linear")
        hinted = fit_version_space(S, "linear", interior_hint=w)
        W, V = plain.rays(), hinted.rays()
        assert W.shape == V.shape
        assert np.abs(W[:, None, :] - V[None, :, :]).max(axis=2).min(axis=1).max() <= 1e-12
        assert np.abs(plain.interior - hinted.interior).max() <= 1e-12
    # a point and its antipode, both negative: no normal is negative on both
    S = Dataset(np.vstack([X, X[:1], -X[:1]]), np.append(S.y, [-1, -1]))
    for hint in (None, w):
        with pytest.raises(RealizabilityError):
            fit_version_space(S, "linear", interior_hint=hint)


@pytest.mark.parametrize("concept, hstar, ok", [
    ("threshold", Threshold(0.1), True),
    ("linear", LinearHomogeneous([1.0, 0.0]), True),
    (OffsetClass(BaseBoundary("affine", (0.1, 0.5))),
     OffsetBoundary(BaseBoundary("affine", (0.1, 0.5)), 0.2), True),
    ("threshold", LinearHomogeneous([1.0]), False),
    ("linear", Threshold(0.1), False),
    (OffsetClass(BaseBoundary("constant", (0.5,))), LinearHomogeneous([0.6, 0.8]), False),
    (OffsetClass(BaseBoundary("affine", (0.1, 0.5))),
     OffsetBoundary(BaseBoundary("affine", (0.1, 0.4)), 0.2), False),
    (OffsetClass(BaseBoundary("constant", (0.5,))),
     OffsetBoundary(BaseBoundary("sine", (0.5, 0.1, 1.0)), 0.0), False),
    ("threshold", OffsetBoundary(BaseBoundary("constant", (0.5,)), 0.0), False),
])
def test_check_target_pairs_each_class_with_its_targets(concept, hstar, ok):
    if ok:
        version_space.check_target(concept, hstar)
    else:
        with pytest.raises(ValueError, match="is not the concept class"):
            version_space.check_target(concept, hstar)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_cone_fit_without_interior(d):
    # e1 is consistent, but no normal is strictly positive on all three rows
    X = np.zeros((3, d))
    X[0, 1], X[1, 1], X[2, 0] = 1.0, -1.0, 1.0
    S = Dataset.from_points(X, [1, 1, 1])
    vs = fit_version_space(S, "linear")
    assert np.array_equal(member_labels(vs, vs.canonical[None], X[None])[0], S.y)
    assert np.array_equal(erm(S, "linear").predict_many(X), S.y)  # margin 0: the ray interior
    if d == 2:
        # e1 is the only consistent normal: every point is agreed, sign(z1)
        Z = np.vstack([np.random.default_rng(8).standard_normal((500, 2)), [[0.0, 1.0]]])
        assert np.array_equal(vs.membership_many(Z), np.where(Z[:, 0] >= 0.0, 1, -1))


def test_negative_sample_on_a_cone_without_interior_is_realizable():
    # (0, 1) and (0, -1), both +1, pin w2 = 0, and the negative (1, 0) leaves
    # w1 < 0: every consistent normal is strict on the negative sample, though
    # none is strict on all three
    S = Dataset.from_points([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]], [1, 1, -1])
    vs = fit_version_space(S, "linear")
    assert np.allclose(vs.interior, [-1.0, 0.0], atol=1e-12)
    assert np.array_equal(member_labels(vs, vs.canonical[None], S.X[None])[0], S.y)


def test_membership_interval_examples():
    vs = two_point_interval()
    assert vs.membership_many(np.array([[0.1], [0.5], [0.9]])).tolist() == [-1, 0, 1]
    # half-open boundary behavior
    assert vs.membership_many(np.array([[0.2], [0.8]])).tolist() == [-1, 1]


def test_membership_arc_example():
    _, vs = spec_arc()
    Z = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, -2.0], [0.0, 0.0]])
    assert vs.membership_many(Z).tolist() == [1, 0, -1, 1]


def test_membership_matches_angle_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        wstar = rng.standard_normal(2)
        h = LinearHomogeneous(wstar)
        X = rng.standard_normal((12, 2))
        S = Dataset(X, h.predict_many(X))
        vs = fit_version_space(S, "linear")
        for _ in range(8):
            z = rng.standard_normal(2) * 1.5
            if boundary_margin(vs, z) < 1e-6:
                continue
            got = int(vs.membership_many(z[None, :])[0])
            assert got == membership_2d(S.X, S.y, z, step=2e-4)


@pytest.mark.parametrize(
    "points, labels",
    [
        ([[0.0, 1.0]], [1]),
        ([[0.0, -1.0]], [1]),
        ([[0.0, 1.0]], [-1]),
        ([[0.0, 1.0], [1.0, 0.3]], [1, 1]),
        ([[0.0, -2.0], [1.0, -0.3]], [-1, 1]),
    ],
)
def test_arc_fit_with_samples_on_the_second_axis(points, labels):
    # a constraint half-circle that starts or ends exactly at angle 0
    S = Dataset.from_points(points, labels)
    vs = fit_version_space(S, "linear")
    rng = np.random.default_rng(6)
    for z in rng.standard_normal((40, 2)) * 1.5:
        if boundary_margin(vs, z) < 1e-3:
            continue
        got = int(vs.membership_many(z[None, :])[0])
        assert got == membership_2d(S.X, S.y, z, step=2e-4)


def test_cone_membership_matches_interval_on_lifted_thresholds():
    rng = np.random.default_rng(5)
    for _ in range(30):
        t = rng.uniform(-0.5, 0.5)
        h = Threshold(t)
        X = rng.standard_normal((15, 1))
        y = h.predict_many(X)
        if np.unique(y).size < 2:
            continue
        S = Dataset(X, y)
        vs1 = fit_version_space(S, "threshold")
        XL, yL = lift_threshold_dataset(S.X, S.y)
        vs2 = fit_version_space(Dataset(XL, yL), "linear")
        for _ in range(8):
            z = rng.standard_normal()
            if min(abs(z - vs1.lo), abs(z - vs1.hi)) < 1e-6:
                continue
            a = int(vs1.membership_many(np.array([[z]]))[0])
            b = int(vs2.membership_many(np.array([[z, 1.0]]))[0])
            assert a == b == membership_threshold(S.X, S.y, [z])


# ---------------------------------------------------------------------------
# distances to the disputed region
# ---------------------------------------------------------------------------


def test_dis_distance_interval_example():
    vs = two_point_interval()
    dist = vs.dis_distance_many(np.array([[1.0], [0.5], [0.0]]))
    assert dist[0] == pytest.approx(0.2)
    assert dist[1] == 0.0
    assert dist[2] == pytest.approx(0.2)


def test_dis_distance_arc_example():
    _, vs = spec_arc()
    dist = vs.dis_distance_many(np.array([[0.0, 1.0]]))[0]
    assert dist == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-9)


def test_dis_distance_arc_matches_bruteforce():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(12):
        wstar = rng.standard_normal(2)
        h = LinearHomogeneous(wstar)
        X = rng.standard_normal((10, 2))
        S = Dataset(X, h.predict_many(X))
        vs = fit_version_space(S, "linear")
        z = rng.standard_normal(2) * 1.5
        if vs.membership_many(z[None, :])[0] == 0:
            continue
        brute = radius_2d_bruteforce(S.X, S.y, z)
        assert vs.dis_distance_many(z[None, :])[0] == pytest.approx(brute, abs=2e-3)
        checked += 1
    assert checked >= 5


def test_cone_distance_matches_svd_enumeration():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(25):
        d = int(rng.integers(3, 6))
        wstar = rng.standard_normal(d)
        h = LinearHomogeneous(wstar)
        X = rng.standard_normal((11, d))
        S = Dataset(X, h.predict_many(X))
        vs = fit_version_space(S, "linear")
        z = rng.standard_normal(d)
        code = int(vs.membership_many(z[None, :])[0])
        if code == 0:
            continue
        value = float(vs.dis_distance_many(z[None, :])[0])
        brute = cone_min_abs_inner_svd(vs.A, z, code)
        assert value == pytest.approx(brute, abs=1e-9)
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("d, m", [(4, 60), (5, 40), (6, 30)])
def test_cone_radius_matches_qhull_rays_beyond_subset_enumeration(d, m):
    # C(m, d - 1) > 20 000: too many subsets to enumerate, so the oracle
    # takes the rays from a convex hull in the polar chart
    assert math.comb(m, d - 1) > 20_000
    rng = np.random.default_rng(40 + d)
    hstar = LinearHomogeneous(rng.standard_normal(d))
    X = rng.standard_normal((m, d))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, "linear")
    rays = cone_rays_qhull(vs.A, hstar.w)
    checked = 0
    for z in 3.0 * rng.standard_normal((40, d)):
        vals = rays @ z
        if vals.min() < 0.0 < vals.max():
            continue  # disputed
        code = 1 if vals.min() >= 0.0 else -1
        true = float(np.min(code * vals))
        cert = certify(vs, z, LossKind.ST)
        assert cert.prediction == code
        assert cert.radius <= true + 1e-12
        assert cert.radius == pytest.approx(true, rel=1e-9, abs=1e-12)
        checked += 1
    assert checked >= 8


def _lineality_case(name):
    """A sample whose cone contains a line, and an orthonormal basis of
    null(A) from scipy."""
    from scipy.linalg import null_space

    if name == "empty":
        return Dataset.empty(3), np.eye(3)
    rng = np.random.default_rng(17)
    if name == "m<d":
        X = rng.standard_normal((2, 4))
    else:  # a scaled copy of the first sample leaves A rank-deficient at m = d
        X = rng.standard_normal((2, 3))
        X = np.vstack([X, 2.0 * X[:1]])
    S = Dataset(X, LinearHomogeneous(np.ones(X.shape[1])).predict_many(X))
    return S, null_space(X).T


@pytest.mark.parametrize("name", ["m<d", "repeated-row", "empty"])
def test_cone_with_lineality_matches_lp_oracle(name):
    S, null = _lineality_case(name)
    vs = fit_version_space(S, "linear")
    d = S.dimension
    rng = np.random.default_rng(5)
    # only points of the row space of A, such as the origin, can be agreed
    Z = np.vstack([rng.standard_normal((20, d)), rng.standard_normal((20, len(S))) @ S.X])
    codes = vs.membership_many(Z)
    assert codes.tolist() == [cone_membership_lp(vs.A, z) for z in Z]
    assert np.any(codes != 0)
    assert np.all(vs.dis_distance_many(Z)[codes != 0] == 0.0)
    # the oracle's reason for distance 0: a step along null(A) disputes z
    for z in Z[codes != 0]:
        assert all(cone_membership_lp(vs.A, z + 1e-6 * l) == 0 for l in null)


def test_cone_in_the_plane_matches_arc():
    # the angle grid stands in for the arc of consistent normal angles where
    # it can decide membership; the LP decides the points within 1e-3 of a
    # ray, and distances are checked exactly against the subset oracle
    rng = np.random.default_rng(23)
    Z = 2.0 * rng.standard_normal((2000, 2))
    for m in (0, 1, 3, 20, 60):
        hstar = LinearHomogeneous(rng.standard_normal(2))
        X = rng.standard_normal((m, 2))
        S = Dataset(X, hstar.predict_many(X)) if m else Dataset.empty(2)
        vs = fit_version_space(S, "linear")
        assert isinstance(vs, ConeVS)
        codes = vs.membership_many(Z)
        off = np.abs(vs.rays() @ Z.T).min(axis=0) > 1e-3  # no grid tie
        assert np.array_equal(codes[off], geometry_2d_many(S.X, S.y, Z[off])[0])
        assert [cone_membership_lp(vs.A, z) for z in Z[~off]] == codes[~off].tolist()
        dist = vs.dis_distance_many(Z)
        assert np.all(dist[codes == 0] == 0.0)
        for i in np.flatnonzero(codes != 0)[:200]:
            assert abs(dist[i] - cone_min_abs_inner_svd(vs.A, Z[i], codes[i])) <= 1e-12


def test_antipodal_samples_give_a_line_of_normals():
    # (0, 1) and (0, -1), both +1: the normals are the line w2 = 0, where
    # the arc of normal angles was two isolated points
    S = Dataset.from_points([[0.0, 1.0], [0.0, -1.0]], [1, 1])
    vs = fit_version_space(S, "linear")
    assert np.array_equal(member_labels(vs, vs.canonical[None], S.X[None])[0], S.y)
    assert sorted(map(tuple, np.round(vs.rays(), 12))) == [(-1.0, 0.0), (1.0, 0.0)]
    Z = np.array([[0.0, 2.0], [0.0, -3.0], [0.0, 0.0], [1.0, 0.5], [-1.0, 0.0]])
    # e1 and -e1 label only the second axis alike (sign(0) = +1)
    assert vs.membership_many(Z).tolist() == [1, 1, 1, 0, 0]
    assert vs.dis_distance_many(Z).tolist() == [0.0] * 5


def _strict_facet_sample():
    # a d = 3 sample whose negative samples' facets carry rays
    rng = np.random.default_rng(21)
    hstar = LinearHomogeneous(np.array([0.3, -0.2, 1.0]))
    X = rng.standard_normal((8, 3))
    S = Dataset(X, hstar.predict_many(X))
    return S, fit_version_space(S, "linear")


def test_cone_tie_rule_on_negative_sample_facets():
    # rays on a negative sample's facet are limits of consistent normals;
    # the +-tolerance rule labels the facet's normal direction as they do
    S, vs = _strict_facet_sample()
    checked = 0
    for x in S.X[S.y < 0]:
        u = x / np.linalg.norm(x)
        if np.min(np.abs(vs.rays() @ u)) > 1e-12:
            continue  # no ray on this facet
        assert vs.membership_many(np.vstack([u, -u])).tolist() == [-1, 1]
        checked += 1
    assert checked >= 2


def test_cone_tie_rule_on_positive_sample_facets():
    # both samples +1: the rays e1 and e2 are consistent normals, and each
    # labels the other sample's antipode +1 where the other ray says -1
    S = Dataset.from_points([[1.0, 0.0], [0.0, 1.0]], [1, 1])
    vs = fit_version_space(S, "linear")
    Z = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
    assert vs.membership_many(Z).tolist() == [0, 0, 1, -1, 1]


def _one_row_queries(vss, Z):
    """Each row's codes and distances from its own space's one-row queries."""
    codes = np.array([vs.membership_many(z[None, :])[0] for vs, z in zip(vss, Z)])
    dist = np.array([vs.dis_distance_many(z[None, :])[0] for vs, z in zip(vss, Z)])
    return codes, dist


def _paired_cones(rng):
    """Rows Z[i] against cones vss[i] of five generator counts: per cone,
    Gaussian points, its samples' directions and their antipodes, its rays,
    and the origin, in a random order."""
    hstar = LinearHomogeneous(np.array([0.48, 0.6, -0.64]))
    cones = [_strict_facet_sample()[1], fit_version_space(Dataset.empty(3), "linear"),
             fit_version_space(Dataset.from_points([[0.2, 0.9, -0.4]], [-1]), "linear")]
    for m in (3, 12, 60):
        X = rng.standard_normal((m, 3))
        cones.append(fit_version_space(Dataset(X, hstar.predict_many(X)), "linear"))
    sizes = [vs.rays().shape[0] for vs in cones]
    assert len(set(sizes)) >= 5
    assert (cones[0].bank.plus_above == version_space.STRICT_LP_TOL).sum() >= 2
    assert sizes[2] == 5  # one ray, and +-l for a 2-d lineality space
    vss, rows = [], []
    for vs in cones:
        U = vs.A if vs.A.shape[0] else np.eye(3)
        P = np.vstack([rng.standard_normal((20, 3)), U, -U, vs.rays(), np.zeros((1, 3))])
        vss += [vs] * len(P)
        rows.append(P)
    order = rng.permutation(len(vss))
    return [vss[i] for i in order], np.vstack(rows)[order]


def _paired_intervals(rng, base):
    """Rows against intervals: half-infinite cuts, and points whose cut
    coordinate sits at every lo and hi."""
    bounds = ((0.2, 0.8), (-math.inf, 0.5), (0.1, math.inf), (-math.inf, math.inf),
              (-0.3, -0.25))
    spaces = [IntervalVS(lo, hi, base) for lo, hi in bounds]
    values = [0.2, 0.8, 0.5, 0.1, -0.3, -0.25, 0.0, 1.5, -2.0, 0.6]
    vss = [spaces[i % len(spaces)] for i in range(len(spaces) * len(values))]
    u = np.array([values[i // len(spaces)] for i in range(len(vss))])
    if base is None:
        return vss, u[:, None]
    x1 = rng.uniform(0.0, 1.0, len(u))  # points whose residual is about u
    return vss, np.column_stack([x1, u + base(x1[:, None])])


def test_paired_rows_are_the_one_row_queries():
    rng = np.random.default_rng(5)
    vss, Z = _paired_cones(rng)
    codes, dist = version_space.stack_query(vss, Z[:, None])
    want_codes, want_dist = _one_row_queries(vss, Z)
    assert codes.dtype == np.int8 and np.array_equal(codes[:, 0], want_codes)
    assert {-1, 0, 1} <= set(want_codes.tolist())
    assert np.array_equal(dist[:, 0].view(np.int64), want_dist.view(np.int64))
    for base in (None, BaseBoundary("sine", (0.1, 0.3, 2.0))):
        vss, Z = _paired_intervals(rng, base)
        codes, dist = version_space.stack_query(vss, Z[:, None])
        want_codes, want_dist = _one_row_queries(vss, Z)
        assert np.array_equal(codes[:, 0], want_codes)
        assert np.array_equal(dist[:, 0].view(np.int64), want_dist.view(np.int64))
        assert {-1, 0, 1} <= set(want_codes.tolist())


def test_attack_directions_step_against_the_first_least_generator():
    # a cone row steps against the first generator with the least code *
    # <w, x> (along -w when <w, x> >= 1e-15, else along w); a disputed row
    # draws a random unit from its own generator, and no other row draws
    rng = np.random.default_rng(5)
    vss, Z = _paired_cones(rng)
    S, arc = spec_arc()
    strict = arc.bank.plus_above == version_space.STRICT_LP_TOL
    x_neg = S.X[1] / np.linalg.norm(S.X[1])  # 0 on the strict ray: its least value
    for pairs in ([(vs, z) for vs, z in zip(vss, Z)], [(arc, x_neg), (arc, -x_neg)]):
        spaces, X = [vs for vs, _ in pairs], np.array([z for _, z in pairs])
        D = version_space.attack_directions(spaces, X, [np.random.default_rng(i)
                                                        for i in range(len(X))])
        for i, (vs, x) in enumerate(pairs):
            code = int(vs.membership_many(x[None])[0])
            if code == 0:
                want = version_space._random_unit(np.random.default_rng(i), X.shape[1])
            else:
                w = vs.rays()[np.argmin(code * (vs.rays() @ x))]  # the first to attain it
                want = -w if w @ x >= 1e-15 else w
            assert D[i].tobytes() == want.tobytes(), i
    assert D[0].tobytes() == arc.rays()[strict][0].tobytes()
    assert 0 in [int(vs.membership_many(z[None])[0]) for vs, z in zip(vss, Z)]

    # an interval row steps along the last axis toward the disputed cuts,
    # and a disputed row flips a coin
    for base in (None, BaseBoundary("sine", (0.1, 0.3, 2.0))):
        vss, Z = _paired_intervals(rng, base)
        D = version_space.attack_directions(vss, Z, [np.random.default_rng(i)
                                                     for i in range(len(Z))])
        codes = _one_row_queries(vss, Z)[0]
        want = np.zeros(Z.shape)
        want[:, -1] = [-c if c else (1.0 if np.random.default_rng(i).random() < 0.5 else -1.0)
                       for i, c in enumerate(codes)]
        assert np.array_equal(D, want) and {-1, 0, 1} <= set(codes.tolist())


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_stacked_queries_are_the_one_space_queries(d, monkeypatch):
    # cones of different generator counts, padded to one block's largest,
    # and intervals: every row of a stack, in one block, in blocks of
    # several spaces and in point chunks, has its one-space codes and
    # distances, bit for bit, whether the stack is a list of spaces, their
    # gather (`as_stack`) or one fit of their samples, whose blocks are views
    # of its padded arrays.  Every chunk holds at least two points.
    rng = np.random.default_rng(40 + d)
    hstar = LinearHomogeneous(rng.standard_normal(d))
    samples = [Dataset.empty(d)]
    for m in (1, 3, 12, 40):
        X = rng.standard_normal((m, d))
        samples.append(Dataset(X, hstar.predict_many(X)))
    cones = [fit_version_space(S, "linear", hstar.w if len(S) else None) for S in samples]
    assert len({vs.rays().shape[0] for vs in cones}) >= 3
    X = np.zeros((len(samples), 40, d))
    y = np.zeros(X.shape[:2], dtype=np.int64)
    for c, S in enumerate(samples):
        X[c, : len(S)], y[c, : len(S)] = S.X, S.y
    fitted = fit_stack(X, y, "linear", hstar.w)
    assert [vs.rays().tobytes() for vs in fitted] == [vs.rays().tobytes() for vs in cones]
    base = BaseBoundary("affine", tuple(rng.uniform(-0.5, 0.5, d)))
    intervals = [IntervalVS(lo, hi, b) for b in (None, base)
                 for lo, hi in ((0.2, 0.8), (-math.inf, 0.5), (0.1, math.inf), (-0.3, -0.25))]
    n = 40
    for vss in (cones, intervals[:4], intervals[4:]):
        width = 1 if vss[0].dim == 1 else d
        T = np.empty((len(vss), n, width))
        for k, vs in enumerate(vss):
            U = vs.A if isinstance(vs, ConeVS) and vs.A.shape[0] else np.eye(width)
            T[k] = np.vstack([U, -U, rng.standard_normal((n, width))])[:n]
        want = [(vs.membership_many(X), vs.dis_distance_many(X)) for vs, X in zip(vss, T)]
        assert {-1, 0, 1} <= {int(c) for codes, _ in want for c in codes}
        rays = max(vs.rays().shape[0] if isinstance(vs, ConeVS) else 1 for vs in vss)
        stacks = [vss, version_space.as_stack(vss)] + ([fitted] if vss is cones else [])
        for chunk, several in [(version_space.SR_CHUNK_ELEMS, None),
                               ((2 * max(width, rays) * n) << 5, True), (9 * rays, False)]:
            monkeypatch.setattr(version_space, "SR_CHUNK_ELEMS", chunk)
            blocks = version_space.mask_blocks(vss, n, width)
            assert several is None or (max(map(len, blocks)) > 1 and len(blocks) > 1) == several
            sizes = []
            version_space._query_blocks(vss, T, lambda rows, cols, P, *_: sizes.append(P.shape[1]))
            assert min(sizes) >= 2 and (min(sizes) < n) == (chunk == 9 * rays)
            for stack in stacks:
                codes, dist = version_space.stack_query(stack, T)
                for k, (want_codes, want_dist) in enumerate(want):
                    assert np.array_equal(codes[k], want_codes), (chunk, k)
                    assert np.array_equal(dist[k].view(np.int64),
                                          want_dist.view(np.int64)), (chunk, k)
            monkeypatch.undo()
    # paired queries (one point per space, T = Z[:, None]) of a fitted stack
    # of 60 trials, whose blocks are narrower than its padded width: a
    # block's values are those of its own padding to its largest count, bit
    # for bit.  Below d = 8 they are each row's one-space
    # query too; at d = 8 a padded matrix-vector product may round otherwise
    pick = np.arange(60) % len(samples)
    paired = fit_stack(X[pick], y[pick], "linear", hstar.w)
    Z = np.vstack([rng.standard_normal((30, d)), samples[-1].X[:15], -samples[-1].X[15:30]])
    one = [(cones[c].membership_many(z[None])[0], cones[c].dis_distance_many(z[None])[0])
           for c, z in zip(pick, Z)]
    width = paired.bank.W.shape[1]
    for chunk in (version_space.SR_CHUNK_ELEMS, 64 * width):
        monkeypatch.setattr(version_space, "SR_CHUNK_ELEMS", chunk)
        blocks = version_space.mask_blocks(paired, 1, d)
        tops = [paired.bank.counts[b.start : b.stop].max() for b in blocks]
        assert chunk != 64 * width or (len(blocks) > 2 and min(tops) < width)
        padded = np.empty(len(Z))
        for b in blocks:
            rows = slice(b.start, b.stop)
            top = paired.bank.counts[rows].max()
            V = np.ascontiguousarray(paired.bank.W[rows, :top]) @ Z[rows, :, None]
            code = version_space._codes((V > paired.bank.plus_above[rows, :top, None]).any(axis=1),
                                        (V < -version_space.STRICT_LP_TOL).any(axis=1))
            padded[rows] = version_space._ray_gap(V, code)[:, 0]
        for stack in (paired, [cones[c] for c in pick]):
            codes, dist = version_space.stack_query(stack, Z[:, None])
            assert np.array_equal(dist[:, 0].view(np.int64), padded.view(np.int64))
            assert codes[:, 0].tolist() == [int(c) for c, _ in one]
            want = np.array([v for _, v in one])
            if d < 8:
                assert np.array_equal(dist[:, 0].view(np.int64), want.view(np.int64))
            else:
                assert np.allclose(dist[:, 0], want, rtol=1e-12, atol=1e-15)
        monkeypatch.undo()


def test_witness_rule_ties_on_single_and_paired_paths():
    # intervals: a cut at u = hi labels u +1 (sign(0) = +1), and no cut in
    # (lo, hi] labels u = lo +1
    spaces = [IntervalVS(0.2, 0.8), IntervalVS(-math.inf, 0.8), IntervalVS(0.2, math.inf)]
    for vs, u, code in zip(spaces + spaces[:1], (0.8, 0.8, 0.2, 0.2), (1, 1, -1, -1)):
        assert vs.membership_many(np.array([[u]])).tolist() == [code]
        assert vs.dis_distance_many(np.array([[u]])).tolist() == [0.0]
    Z = np.array([[0.8], [0.8], [0.2], [0.2]])
    codes, dist = version_space.stack_query(spaces + spaces[:1], Z[:, None])
    assert codes[:, 0].tolist() == [1, 1, -1, -1] and dist[:, 0].tolist() == [0.0] * 4

    # a cone with a ray on a positive sample's facet and a ray on the
    # negative sample's (strict) facet
    S, vs = spec_arc()
    strict = vs.bank.plus_above == version_space.STRICT_LP_TOL
    assert strict.sum() == 1
    x_pos, x_neg = S.X[0] / np.linalg.norm(S.X[0]), S.X[1] / np.linalg.norm(S.X[1])
    ties = np.abs(vs.rays() @ np.vstack([x_pos, x_neg]).T) <= version_space.STRICT_LP_TOL
    assert ties[~strict, 0].all() and ties[strict, 1].all()
    # -x_pos: 0 on the free ray is a +1 witness, and the strict ray is a -1
    # witness, so the point is disputed; x_neg: 0 on the strict ray is no
    # witness, so only the free ray's -1 counts
    Z = np.vstack([-x_pos, x_neg])
    assert vs.membership_many(Z).tolist() == [0, -1]
    codes, dist = version_space.stack_query([vs, vs], Z[:, None])
    assert codes[:, 0].tolist() == [0, -1]
    assert [a.tolist() for a in _one_row_queries([vs, vs], Z)] == [[0, -1], dist[:, 0].tolist()]
    assert dist[0, 0] == 0.0 and dist[1, 0] <= 1e-15  # x_neg is on the strict facet


def test_cone_need_masks_are_the_distance_test():
    # a cone's mask at need > 0 decides from each point's least and largest
    # generator value: it must be the distance test, dist >= need, on points
    # at distance exactly need, disputed points, needs at and below
    # STRICT_LP_TOL, and generators on strict facets (plus_above = +tol)
    tol = version_space.STRICT_LP_TOL
    # generators e1, e2, e3, the second on a strict facet: the values are
    # the points' coordinates
    bank = version_space._Bank(np.eye(3), np.array([-tol, tol, -tol]), np.arange(0))
    grid = ConeVS(np.zeros((0, 3)), np.zeros(0, dtype=bool), np.ones(3) / math.sqrt(3.0), 3,
                  bank, math.inf)
    strict_vs = _strict_facet_sample()[1]
    vss, Z = _paired_cones(np.random.default_rng(5))
    _, dist = version_space.stack_query(vss, Z[:, None])
    agreed = np.unique(dist[dist > 0.0])
    assert (strict_vs.bank.plus_above == tol).any() and agreed.size > 10
    for need in (tol / 4, tol, 2.5 * tol, 1e-3, *agreed[:: agreed.size // 4]):
        values = (-1.0, -need, -tol, -0.5 * tol, -0.0, 0.0, 0.5 * tol, tol, need, 1.0)
        T = np.array(list(itertools.product(values, repeat=3)))
        own = np.vstack([Z, strict_vs.A, -strict_vs.A])[None]
        for space, P in ((grid, T[None]), (strict_vs, own), (None, Z[:, None])):
            stack = vss if space is None else [space]
            codes, dist = version_space.stack_query(stack, P)
            mask = version_space.stack_query(stack, P, need=need)
            assert np.array_equal(mask, dist >= need), need
            if space is grid:
                assert {-1, 0, 1} <= set(codes.ravel().tolist())
                assert mask.any() and not mask.all() and (dist == need).any()


@pytest.mark.parametrize("d, m, seed, n, rays", [(2, 100, 3, 10_000, 2), (5, 20, 24, 5, 30)])
def test_ray_major_queries_match_pointwise_oracles(d, m, seed, n, rays, monkeypatch):
    # the queries reduce (rays, points) products over their leading axis;
    # the oracles walk the generators one point at a time
    rng = np.random.default_rng(seed)
    hstar = LinearHomogeneous(rng.standard_normal(d))
    X = rng.standard_normal((m, d))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, "linear", interior_hint=hstar.w)
    R = vs.rays()
    assert R.shape == (rays, d)
    # ties: the samples' directions and their antipodes, and the origin
    U = S.X / np.linalg.norm(S.X, axis=1, keepdims=True)
    Z = np.vstack([1.5 * rng.standard_normal((n, d)), U, -U, np.zeros((1, d))])
    codes = vs.membership_many(Z)
    assert codes.tolist() == [cone_membership_pointwise(vs, z) for z in Z]
    dist = vs.dis_distance_many(Z)
    want = [0.0 if c == 0 else max(min(float(w @ (c * z)) for w in R), 0.0)
            for c, z in zip(codes, Z)]
    assert np.max(np.abs(dist - want)) <= 1e-12
    caps = {}
    for eta in (0.05, 0.3):
        caps[eta] = version_space.stack_query([vs], Z[None], hstar=hstar, eta=eta)[0]
        y = hstar.predict_many(Z)
        assert caps[eta].tolist() == [c != 0 and cap_stays_unanimous(R, hstar.w, z, yz, eta)
                                      for c, z, yz in zip(codes, Z, y)]
    # and the meaning of the codes, away from ties
    off = np.abs(R @ Z[:n].T).min(axis=0) > 1e-3
    if d == 2:
        assert np.array_equal(codes[:n][off], geometry_2d_many(S.X, S.y, Z[:n][off])[0])
    else:
        assert codes[:n][off].tolist() == [cone_membership_lp(vs.A, z) for z in Z[:n][off]]

    # extreme rows: products that overflow to +-inf, signed zeros and subnormals
    big = 1.7e308 * np.vstack([np.ones(d), np.sign(R), -np.sign(R)])
    E = np.vstack([big, -big, np.zeros((1, d)), np.full((1, d), -0.0),
                   5e-324 * np.sign(U[:3]), -5e-324 * np.sign(U[:3]),
                   1e-310 * rng.standard_normal((3, d))])
    ZE = np.vstack([Z, E])
    with np.errstate(over="ignore"):
        V = R @ ZE.T
        assert np.isinf(V).any() and not np.isnan(V).any()
        one = (vs.membership_many(ZE), vs.dis_distance_many(ZE))
        assert one[0].tolist() == [cone_membership_pointwise(vs, z) for z in ZE]
        # the select formulas that the arithmetic replaced, on the same product
        assert np.array_equal(one[0], cone_codes_where(V, vs.bank.plus_above))
        assert np.array_equal(one[1].view(np.int64),
                              cone_distances_where(V, one[0]).view(np.int64))
        assert not np.signbit(one[1]).any()
        assert np.isinf(one[1]).any()

        # the same queries in at least three blocks, the last one ragged
        size = ZE.shape[0] // 3 - 1
        assert ZE.shape[0] % size and ZE.shape[0] // size >= 3
        assert ZE.shape[0] * rays <= version_space.SR_CHUNK_ELEMS  # one block above
        monkeypatch.setattr(version_space, "SR_CHUNK_ELEMS", rays * size)
        assert np.array_equal(vs.membership_many(ZE), one[0])
        assert np.array_equal(vs.dis_distance_many(ZE).view(np.int64), one[1].view(np.int64))
    for eta, cap in caps.items():
        assert np.array_equal(version_space.stack_query([vs], Z[None], hstar=hstar, eta=eta)[0],
                              cap)


@pytest.mark.parametrize("d, m", [(2, 100), (3, 60), (4, 40)])
def test_hinted_ray_build_cuts_only_facets(d, m):
    # past the first d rows, every row the build cuts with carries d - 1
    # independent tight rays: a facet, never a redundant row.  Each of the
    # eight targets labels four samples, fitted in one batch.
    extra = 0
    for seed in range(8):
        rng = np.random.default_rng([70, d, seed])
        hstar = LinearHomogeneous(rng.standard_normal(d))
        samples = []
        for _ in range(4):
            X = rng.standard_normal((m, d))
            samples.append(Dataset(X, hstar.predict_many(X)))
        for vs in fit_version_spaces(samples, "linear", interior_hint=hstar.w):
            W = vs.rays()
            for i in vs.bank.cuts[d:]:
                tight = W[np.abs(W @ vs.A[i]) <= 1e-9]
                assert np.linalg.matrix_rank(tight) == d - 1
                extra += 1
    assert extra > 0


def _unit_rows(X, y):
    """The fit's cone rows y x / |x| and their strict flags."""
    raw = y[:, None] * X
    return raw / np.linalg.norm(raw, axis=1, keepdims=True), y < 0


def _polygon_cone(n, rng):
    """Rows of a d = 3 cone whose cross-section is an n-gon: n facets and n
    rays around e3, each row on its own facet."""
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    X = np.column_stack([np.cos(t), np.sin(t), np.full(n, 0.3)])
    return X, np.ones(n, dtype=np.int64)


def _mixed_stack(d, rng):
    """A stack of cones in R^d with ragged row counts (zero rows pad them),
    hinted and unhinted, one with a zero row among its rows and one whose
    lowest-slack rows are a duplicated sample (dependent first rows)."""
    cones = []
    for i, m in enumerate([d + 1, 12, 40, 25, 7, 40]):
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        X = rng.standard_normal((m, d))
        y = np.where(X @ w >= 0.0, 1, -1)
        if i == 3:  # the row closest to the target's boundary, twice: the two
            # lowest-slack rows on the hint, so the first rows are dependent
            j = int(np.argmin(np.abs(X @ w) / np.linalg.norm(X, axis=1)))
            X, y = np.vstack([X, X[j]]), np.append(y, y[j])
        A, strict = _unit_rows(X, y)
        hinted = i in (0, 2, 3, 4) and np.min(A @ w) > 1e-9
        cones.append((A, strict, w if hinted else None))
    A, strict, _ = cones[2]  # a zero row among its rows: no row
    cones[2] = (np.insert(A, 5, 0.0, axis=0), np.insert(strict, 5, False), cones[2][2])
    m = max(A.shape[0] for A, _, _ in cones)
    stack = np.zeros((len(cones), m, d))
    strict = np.zeros((len(cones), m), dtype=bool)
    interior = np.full((len(cones), d), np.nan)
    for c, (A_c, s_c, w) in enumerate(cones):
        stack[c, : A_c.shape[0]] = A_c
        strict[c, : A_c.shape[0]] = s_c
        if w is not None:
            interior[c] = w
    return cones, stack, strict, interior


def _same_bank(a, b):
    assert a.W.shape == b.W.shape
    assert np.array_equal(a.W.view(np.int64), b.W.view(np.int64))
    assert np.array_equal(a.plus_above.view(np.int64), b.plus_above.view(np.int64))
    assert np.array_equal(a.cuts, b.cuts)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_batched_ray_build_is_batch_invariant(d, monkeypatch):
    # every cone of a mixed stack gets its one-cone bank, bit for bit, and so
    # does every cone of any sub-stack in another order, and of the stack
    # with SR_CHUNK_ELEMS so small that the shared flags of the candidate
    # pairs are counted in one-row blocks
    rng = np.random.default_rng(90 + d)
    cones, stack, strict, interior = _mixed_stack(d, rng)
    alone = []
    for A_c, s_c, w in cones:
        bank = _build_cone_bank(A_c, s_c, w)
        assert np.allclose(np.linalg.norm(bank.W, axis=1), 1.0)
        alone.append(bank)
    rays = [bank.W.shape[0] for bank in alone]
    cuts = [bank.cuts.size for bank in alone]
    assert len(set(cuts)) > 1 and (d == 2 or len(set(rays)) > 1)  # ragged; 2-d cones have 2 rays
    banks, missed, inner = _build_cone_banks(stack, strict, interior)
    for c, (A_c, s_c, w) in enumerate(cones):
        _same_bank(banks[c], alone[c])
        hint = np.full((1, d), np.nan) if w is None else w[None]
        _, one_missed, one_inner = _build_cone_banks(A_c[None], s_c[None], hint)
        assert missed[c] == one_missed[0] == 0
        assert np.array_equal(inner[c].view(np.int64), one_inner[0].view(np.int64))
    order = rng.permutation(len(cones))[:4]
    for c, bank in zip(order, _build_cone_banks(stack[order], strict[order], interior[order])[0]):
        _same_bank(bank, alone[c])
    monkeypatch.setattr(version_space, "SR_CHUNK_ELEMS", 4)
    for c, bank in enumerate(_build_cone_banks(stack, strict, interior)[0]):
        _same_bank(bank, alone[c])


def test_done_cones_leave_the_ray_build_in_groups(monkeypatch):
    # cones that finish cutting wait in the stack until half of it is done,
    # then leave together: polygon cones finish at their own steps (a
    # triangle at step 0), so the full-rank cones leave in several groups,
    # and cones whose rows span a plane take the rotated path.  Every cone
    # must get its one-cone bank, bit for bit, counts and cut counts
    # included, also with the pair tests in one-row blocks
    rng = np.random.default_rng(33)
    cones = [_unit_rows(*_polygon_cone(n, rng)) for n in (3, 14, 5, 9, 24, 4, 18, 7)]
    for n in (6, 11):  # rank 2: rows in the plane x3 = 0
        t = np.sort(rng.uniform(-1.2, 1.2, n))
        cones.append(_unit_rows(np.column_stack([np.cos(t), np.sin(t), np.zeros(n)]),
                                np.ones(n, dtype=np.int64)))
    m = max(A.shape[0] for A, _ in cones)
    stack, strict = np.zeros((len(cones), m, 3)), np.zeros((len(cones), m), dtype=bool)
    for c, (A_c, s_c) in enumerate(cones):
        stack[c, : A_c.shape[0]], strict[c, : A_c.shape[0]] = A_c, s_c
    alone = [_build_cone_bank(A_c, s_c, None) for A_c, s_c in cones]
    groups = []

    def by_cone(done_at, K):
        groups.append([(cone.tolist(), n_cuts.tolist()) for cone, _, _, _, n_cuts in done_at])
        return by_cone_of(done_at, K)

    by_cone_of = version_space._by_cone
    monkeypatch.setattr(version_space, "_by_cone", by_cone)
    for small in (False, True):
        if small:
            monkeypatch.setattr(version_space, "SR_CHUNK_ELEMS", 4)
        groups.clear()
        banks = _build_cone_banks(stack, strict, np.full((len(cones), 3), np.nan))[0]
        for c, bank in enumerate(alone):
            _same_bank(banks[c], bank)
            assert (banks.counts[c], banks.n_cuts[c]) == (bank.W.shape[0], bank.cuts.size)
        rotated, full = groups  # rank groups build in ascending rank
        assert len(full) >= 2 and sorted(c for cone, _ in full for c in cone) == list(range(8))
        assert sorted(c for cone, _ in rotated for c in cone) == [0, 1]
        steps = {n for _, n_cuts in full for n in n_cuts}
        assert len(steps) >= 3 and 3 in steps  # the triangle is done at step 0


def test_batched_fit_is_batch_invariant():
    # fits of ragged samples, one with a zero-norm point and one with a
    # duplicated point, match their one-sample fits bit for bit
    rng = np.random.default_rng(97)
    w = rng.standard_normal(3)
    samples = []
    for m in (60, 33, 60, 8, 3):
        X = rng.standard_normal((m, 3))
        samples.append(Dataset(X, np.where(X @ w >= 0.0, 1, -1)))
    X = np.vstack([samples[1].X[:10], np.zeros((1, 3)), samples[1].X[10:]])
    samples[1] = Dataset(X, np.where(X @ w >= 0.0, 1, -1))  # the origin, label +1
    X = np.vstack([samples[2].X, samples[2].X[:1]])
    samples[2] = Dataset(X, np.where(X @ w >= 0.0, 1, -1))
    X = rng.standard_normal((20, 3))  # another target's sample: the hint does not serve it
    samples.append(Dataset(X, np.where(X @ rng.standard_normal(3) >= 0.0, 1, -1)))
    for hint in (w, None):
        batch = fit_version_spaces(samples, "linear", interior_hint=hint)
        for S, vs in zip(samples, batch):
            one = fit_version_space(S, "linear", interior_hint=hint)
            _same_bank(vs.bank, one.bank)
            assert np.array_equal(vs.A, one.A) and np.array_equal(vs.strict, one.strict)
            assert np.array_equal(vs.interior.view(np.int64), one.interior.view(np.int64))
        assert vs.A.shape[0] == len(S)
        assert batch[1].A.shape[0] == len(samples[1]) - 1  # the zero row is no row


def test_degenerate_cones_keep_only_extreme_rays(monkeypatch):
    # integer-grid samples give rays on more than d - 1 cut rows and pairs
    # sharing more than d - 2, where adjacency needs its second test (no
    # third ray on the shared cuts); a pair it wrongly admits would add a
    # generator that is no extreme ray.  The generators must be qhull's
    # extreme rays, one each, and the second test must have rejected pairs.
    rejected = []

    def held_by_two(F, c, common):
        out = held(F, c, common)
        rejected.append(int((~out).sum()))
        return out

    held = version_space._held_by_two
    monkeypatch.setattr(version_space, "_held_by_two", held_by_two)
    rng = np.random.default_rng(71)
    cases = 0
    while cases < 80:
        d, m = int(rng.integers(3, 6)), int(rng.integers(6, 30))
        X = rng.integers(-2, 3, (m, d)).astype(float)
        w = rng.integers(-2, 3, d).astype(float)
        S = Dataset(X, np.where(X @ w >= 0.0, 1, -1))
        A = _unit_rows(*[a[np.any(X != 0.0, axis=1)] for a in (S.X, S.y)])[0]
        if not w.any() or np.linalg.matrix_rank(A) < d:
            continue
        try:
            w0 = fit_version_space(S, "linear").interior
        except RealizabilityError:
            continue
        if np.min(A @ w0) <= 1e-9:  # no interior
            continue
        R = cone_rays_qhull(A, w0)
        want = R[np.unique(np.round(R, 8), axis=0, return_index=True)[1]]  # qhull repeats rays
        for hint in (w, None):
            W = fit_version_space(S, "linear", interior_hint=hint).rays()
            assert W.shape[0] == want.shape[0]
            assert (W @ want.T).max(axis=1).min() > 1.0 - 1e-9
        cases += 1
    assert sum(rejected) > 0


def test_batched_ray_cap_names_the_member(monkeypatch):
    # a member past the cap raises from the batch what it raises alone
    rng = np.random.default_rng(98)
    cones = [_unit_rows(*_polygon_cone(10, rng))]
    for _ in range(3):
        w = rng.standard_normal(3)
        X = rng.standard_normal((10, 3))
        cones.append(_unit_rows(X, np.where(X @ w >= 0.0, 1, -1)))
    cones = [cones[1], cones[0], cones[2], cones[3]]
    monkeypatch.setattr(version_space, "RAY_CAP", 8)
    for c in (0, 2, 3):
        assert _build_cone_bank(*cones[c], None).W.shape[0] <= 8
    with pytest.raises(DegenerateVersionSpaceError) as alone:
        _build_cone_bank(*cones[1], np.array([0.0, 0.0, 1.0]))
    stack = np.stack([A for A, _ in cones])
    strict = np.stack([s for _, s in cones])
    interior = np.full((4, 3), np.nan)
    interior[1] = [0.0, 0.0, 1.0]
    with pytest.raises(DegenerateVersionSpaceError) as batched:
        _build_cone_banks(stack, strict, interior)
    assert "above the cap of 8" in str(alone.value)
    assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("d", [2, 3])
def test_erm_solves_a_small_lp_at_large_m(d, monkeypatch):
    # the fit without a hint solves no LP; erm's max-margin LP runs over the
    # rows the ray build cut with, and its margin is the minimum slack over
    # all m rows
    from scipy.optimize import linprog

    solved = []

    def recording(C):
        w, s = max_margin_direction(C)
        solved.append((C.shape[0], w, s))
        return w, s

    max_margin_direction = version_space.max_margin_direction
    monkeypatch.setattr(version_space, "max_margin_direction", recording)
    rng = np.random.default_rng(60 + d)
    hstar = LinearHomogeneous(rng.standard_normal(d))
    X = rng.standard_normal((15_987, d))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, "linear")
    assert solved == []
    h = erm(S, "linear")
    [(rows, w, s)] = solved
    assert rows < 100
    assert s > 0.0
    assert float(np.min(vs.A @ w)) == pytest.approx(s, rel=1e-9)
    assert np.allclose(h.w, w / np.linalg.norm(w))
    # the full LP: max s with A w >= s and |w|_inf <= 1, over every row
    m = vs.A.shape[0]
    full = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.hstack([-vs.A, np.ones((m, 1))]),
                   b_ub=np.zeros(m), bounds=[(-1.0, 1.0)] * d + [(None, None)])
    assert s == pytest.approx(-full.fun, rel=1e-7)


def _ray_fit_against_lp(X, y):
    """Fit (X, y) without a hint and check the realizability decision and
    the interior against scipy's LP; returns (realizable, has interior)."""
    S = Dataset(X, y)
    norms = np.linalg.norm(X, axis=1)
    A = (y[:, None] * X)[norms > 0] / norms[norms > 0, None]
    strict = y[norms > 0] < 0
    if np.any((norms == 0) & (y < 0)):
        want, on_all = False, 0.0
    else:
        on_strict, on_all, reach = cone_margins_lp(A, strict)
        want = (on_strict if on_strict is not None else reach) > 1e-9
    try:
        vs = fit_version_space(S, "linear")
    except RealizabilityError:
        assert not want
        return False, False
    assert want
    w = vs.interior
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    assert np.all(vs.A @ w >= -1e-12)
    assert np.all(vs.A[vs.strict] @ w > 0.0)
    if on_all > 1e-9:  # the cone has interior, and the normal lies inside it
        assert np.min(vs.A @ w) > 0.0
    # off the ties, the interior normal labels the sample as given
    clear = np.abs(X @ w) > 1e-12
    assert np.array_equal(member_labels(vs, vs.canonical[None], X[clear][None])[0], y[clear])
    return True, on_all > 1e-9


@pytest.mark.parametrize("grid", [False, True])
def test_ray_interior_and_realizability_match_lp(grid, monkeypatch):
    # Gaussian samples, or degenerate ones on the integer grid {-2..2}^d
    # (d = 3, 4) with many ties; labels from a target or at random
    import relicert.lp as lp

    monkeypatch.setattr(lp, "maximize_over_cone_box", None)  # the fit solves no LP
    rng = np.random.default_rng(70 + grid)
    seen = set()
    for _ in range(80 if grid else 40):
        if grid:
            d, m = int(rng.integers(3, 5)), int(rng.integers(2, 9))
            X = rng.integers(-2, 3, (m, d)).astype(float)
            w = rng.integers(-2, 3, d).astype(float)
            w[0] += not w.any()
        else:
            d, m = int(rng.integers(2, 6)), int(rng.integers(1, 30))
            X = rng.standard_normal((m, d))
            w = rng.standard_normal(d)
        y = np.where(X @ w >= 0.0, 1, -1) if rng.random() < 0.6 else rng.choice([-1, 1], m)
        seen.add(_ray_fit_against_lp(X, y))
    assert seen == {(False, False), (True, True)} | ({(True, False)} if grid else set())


def test_dis_distance_zero_iff_disputed_or_boundary():
    vs = two_point_interval()
    rng = np.random.default_rng(8)
    zs = np.array([rng.uniform(-1, 2) for _ in range(200)])
    codes = vs.membership_many(zs[:, None])
    for z, code, dist in zip(zs, codes, vs.dis_distance_many(zs[:, None])):
        if code == 0:
            assert dist == 0.0
        elif dist == 0.0:
            assert min(abs(z - vs.lo), abs(z - vs.hi)) < 1e-12


def test_monotonicity_under_nesting():
    rng = np.random.default_rng(9)
    for _ in range(20):
        wstar = rng.standard_normal(2)
        h = LinearHomogeneous(wstar)
        X = rng.standard_normal((30, 2))
        S_small = Dataset(X[:8], h.predict_many(X[:8]))
        S_big = Dataset(X, h.predict_many(X))
        v_small = fit_version_space(S_small, "linear")
        v_big = fit_version_space(S_big, "linear")
        Z = np.array([rng.standard_normal(2) for _ in range(10)])
        m_small, m_big = v_small.membership_many(Z), v_big.membership_many(Z)
        assert np.all((m_small == 0) | (m_big == m_small))


def test_target_always_in_version_space():
    rng = np.random.default_rng(10)
    for d in (1, 2, 5):
        if d == 1:
            h = Threshold(rng.uniform(-1, 1))
            concept = "threshold"
        else:
            h = LinearHomogeneous(rng.standard_normal(d))
            concept = "linear"
        X = rng.standard_normal((20, d))
        S = Dataset(X, h.predict_many(X))
        vs = fit_version_space(S, concept)
        if isinstance(vs, IntervalVS):
            assert vs.lo < h.t <= vs.hi
        else:
            assert float(np.min(vs.A @ h.w)) >= -1e-12


# ---------------------------------------------------------------------------
# margin exclusion
# ---------------------------------------------------------------------------


def margin_exclusion_delta(delta1: float, c: float, dnorm: float) -> float:
    """Margin below which points with norms in [c, dnorm] must be disputed.

    delta1 is an admissible rotation angle (see margin_exclusion_delta1_bound);
    any admissible rotation of the target normal stays consistent with the
    sample, and within this margin some such rotation flips the point.
    """
    if not 0.0 < delta1 < math.pi / 2.0:
        raise ValueError("delta1 must lie in (0, pi/2)")
    if not 0.0 < c < dnorm:
        raise ValueError("need 0 < c < dnorm")
    t = math.tan(delta1)
    return c * c * t / math.sqrt((dnorm + t * t) ** 2 + c * c * t * t)


def margin_exclusion_delta1_bound(S: Dataset, hstar: LinearHomogeneous) -> float:
    """Largest admissible rotation angle: min_i |<w*, x_i>| / ||x_i||."""
    if len(S) == 0:
        raise ValueError("the admissibility bound needs a nonempty sample")
    margins = np.abs(hstar.margins(S.X))
    norms = np.linalg.norm(S.X, axis=1)
    if np.any(norms == 0.0) or np.any(margins == 0.0):
        raise ValueError("sample points must be off the target decision boundary")
    return float(np.min(margins / norms))


def test_margin_exclusion_closed_form_values():
    assert margin_exclusion_delta(0.1, 1.0, 2.0) == pytest.approx(0.0498540, abs=1e-6)
    assert margin_exclusion_delta(0.2, 0.5, 1.0) == pytest.approx(0.0484482, abs=1e-6)


def test_margin_exclusion_vanishes_with_delta1():
    vals = [margin_exclusion_delta(d1, 1.0, 2.0) for d1 in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_margin_exclusion_domain_checks():
    with pytest.raises(ValueError):
        margin_exclusion_delta(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        margin_exclusion_delta(0.1, 2.0, 1.0)
    with pytest.raises(ValueError):
        margin_exclusion_delta(2.0, 1.0, 2.0)


def test_delta1_bound_helper():
    h = LinearHomogeneous(np.array([0.0, 1.0]))
    S = Dataset.from_points([[1.0, 0.5], [0.0, -2.0]], [1, -1])
    # ratios: 0.5/sqrt(1.25) and 2/2
    assert margin_exclusion_delta1_bound(S, h) == pytest.approx(0.5 / math.sqrt(1.25))
    with pytest.raises(ValueError):
        margin_exclusion_delta1_bound(Dataset.from_points([[1.0, 0.0]], [1]), h)


def _exclusion_instance(rng, d=2, c=0.5, dnorm=2.0):
    wstar = rng.standard_normal(d)
    hstar = LinearHomogeneous(wstar)
    X = rng.standard_normal((15, d))
    S = Dataset(X, hstar.predict_many(X))
    delta1 = min(0.999 * margin_exclusion_delta1_bound(S, hstar), math.pi / 2 - 1e-9)
    delta = margin_exclusion_delta(delta1, c, dnorm)
    # a point in the norm shell with sub-threshold margin
    margin = rng.uniform(-1.0, 1.0) * 0.999 * delta
    rho = rng.uniform(c, dnorm)
    perp = rng.standard_normal(d)
    perp -= (perp @ hstar.w) * hstar.w
    perp /= np.linalg.norm(perp)
    x = margin * hstar.w + math.sqrt(rho**2 - margin**2) * perp
    return hstar, S, delta1, x, margin


def test_margin_exclusion_rotation_construction():
    # the sub-threshold margin admits a consistent separator flipping x,
    # built by tilting the target normal toward x
    rng = np.random.default_rng(11)
    for _ in range(100):
        hstar, S, delta1, x, margin = _exclusion_instance(rng)
        sgn = 1.0 if margin >= 0 else -1.0
        xs = sgn * x  # work on the positive-margin side
        ip = float(hstar.w @ xs)
        nx2 = float(xs @ xs)
        t1 = math.tan(delta1)
        lam_lo = ip / nx2
        s, cph = math.sin(delta1), math.cos(delta1)
        disc = s * cph * math.sqrt(max(nx2 - ip * ip, 0.0))
        lam_max = (-s * s * ip + disc) / (cph * cph * nx2 - ip * ip)
        assert lam_max > lam_lo
        lam = 0.5 * (lam_lo + lam_max)
        w_h = hstar.w - lam * xs
        w_h /= np.linalg.norm(w_h)
        angle = math.acos(min(max(float(w_h @ hstar.w), -1.0), 1.0))
        assert angle <= delta1 + 1e-9
        assert float(w_h @ xs) < 0.0
        h = LinearHomogeneous(w_h)
        assert np.array_equal(h.predict_many(S.X), S.y)


def test_margin_exclusion_property_small():
    rng = np.random.default_rng(12)
    for _ in range(150):
        hstar, S, delta1, x, _ = _exclusion_instance(rng)
        vs = fit_version_space(S, "linear")
        assert vs.membership_many(x[None, :])[0] == 0


def test_margin_exclusion_statement_denominator_also_holds():
    # the more conservative closed form (linear rather than squared tangent
    # term in the first denominator factor) certifies a subset, so exclusion
    # holds under it as well; the implementation keeps the sharper form
    rng = np.random.default_rng(13)
    c, dnorm = 0.5, 2.0
    for _ in range(50):
        hstar, S, delta1, _, _ = _exclusion_instance(rng)
        t1 = math.tan(delta1)
        sharper = margin_exclusion_delta(delta1, c, dnorm)
        conservative = c * c * t1 / math.sqrt((dnorm + dnorm * t1) ** 2 + (c * c * t1) ** 2)
        assert conservative <= sharper + 1e-15


def test_translation_exclusion_for_offsets():
    rng = np.random.default_rng(14)
    base = BaseBoundary("quadratic", (0.3, 0.5))
    concept = OffsetClass(base)
    hstar = OffsetBoundary(base, 0.05)
    for _ in range(30):
        X = rng.random((25, 2))
        S = Dataset(X, hstar.predict_many(X))
        vs = fit_version_space(S, concept)
        gap = float(np.min(np.abs(hstar.margins(S.X))))
        z = rng.random(2)
        resid = float(hstar.margins(z[None, :])[0])
        if abs(resid) < gap:
            assert vs.membership_many(z[None, :])[0] == 0
