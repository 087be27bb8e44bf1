import math

import numpy as np
import pytest

from oracles import (
    cone_membership_lp,
    cone_min_abs_inner_svd,
    cone_rays_qhull,
    lift_threshold_dataset,
    membership_2d,
    membership_threshold,
    radius_2d_bruteforce,
)

from relicert.core import BaseBoundary, Dataset, LinearHomogeneous, OffsetBoundary, Threshold
from relicert.losses import LossKind
from relicert.reliability import certify
from relicert.version_space import (
    AngleArcVS,
    ConeVS,
    IntervalVS,
    Membership,
    OffsetClass,
    RealizabilityError,
    agree_membership,
    canonical_member,
    dis_distance,
    erm,
    fit_version_space,
    margin_exclusion_delta,
    margin_exclusion_delta1_bound,
)

M = Membership


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
    assert vs.lo_open and not vs.hi_open


def test_fit_arc_matches_angle_grid():
    S, vs = spec_arc()
    assert isinstance(vs, AngleArcVS)
    assert math.degrees(vs.phi_lo) == pytest.approx(63.43494882, abs=1e-4)
    assert math.degrees(vs.phi_hi) == pytest.approx(116.56505118, abs=1e-4)
    # endpoints: the negative-label constraint binds at the low end
    assert vs.lo_open and not vs.hi_open


def test_fit_empty_dataset_full_class():
    assert fit_version_space(Dataset.empty(1), "threshold").lo == -math.inf
    arc = fit_version_space(Dataset.empty(2), "linear")
    assert arc.width == pytest.approx(2 * math.pi)
    cone = fit_version_space(Dataset.empty(3), "linear")
    assert isinstance(cone, ConeVS) and cone.A.shape == (0, 3)


def test_fit_rejects_nonrealizable():
    S = Dataset.from_points([[0.8], [0.2]], [-1, 1])
    with pytest.raises(RealizabilityError):
        fit_version_space(S, "threshold")
    S2 = Dataset.from_points([[1.0, 0.0], [2.0, 0.0]], [1, -1])
    with pytest.raises(RealizabilityError):
        fit_version_space(S2, "linear")
    with pytest.raises(RealizabilityError):
        fit_version_space(S2, "linear", representation="cone")


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


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_cone_fit_without_interior(d):
    # e1 is consistent, but no normal is strictly positive on all three rows
    X = np.zeros((3, d))
    X[0, 1], X[1, 1], X[2, 0] = 1.0, -1.0, 1.0
    S = Dataset.from_points(X, [1, 1, 1])
    vs = fit_version_space(S, "linear", representation="cone")
    assert np.array_equal(canonical_member(vs).predict_many(X), S.y)
    if d == 2:
        arc = fit_version_space(S, "linear")
        Z = np.random.default_rng(8).standard_normal((500, 2))
        assert np.array_equal(vs.membership_many(Z), arc.membership_many(Z))


def test_membership_interval_examples():
    vs = two_point_interval()
    assert agree_membership(vs, [0.1]) is M.AGREE_MINUS
    assert agree_membership(vs, [0.5]) is M.DISAGREE
    assert agree_membership(vs, [0.9]) is M.AGREE_PLUS
    # half-open boundary behavior
    assert agree_membership(vs, [0.2]) is M.AGREE_MINUS
    assert agree_membership(vs, [0.8]) is M.AGREE_PLUS


def test_membership_arc_example():
    _, vs = spec_arc()
    assert agree_membership(vs, [0.0, 1.0]) is M.AGREE_PLUS
    assert agree_membership(vs, [1.0, 0.0]) is M.DISAGREE
    assert agree_membership(vs, [0.5, -2.0]) is M.AGREE_MINUS
    assert agree_membership(vs, [0.0, 0.0]) is M.AGREE_PLUS


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
            if vs.boundary_margin(z) < 1e-6:
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
        if vs.boundary_margin(z) < 1e-3:
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
        vs2 = fit_version_space(Dataset(XL, yL), "linear", representation="cone")
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
    assert dis_distance(vs, [1.0]) == pytest.approx(0.2)
    assert dis_distance(vs, [0.5]) == 0.0
    assert dis_distance(vs, [0.0]) == pytest.approx(0.2)


def test_dis_distance_arc_example():
    _, vs = spec_arc()
    assert dis_distance(vs, [0.0, 1.0]) == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-9)


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
        if agree_membership(vs, z) is M.DISAGREE:
            continue
        brute = radius_2d_bruteforce(S.X, S.y, z)
        assert dis_distance(vs, z) == pytest.approx(brute, abs=2e-3)
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
    vs = fit_version_space(S, "linear", representation="cone")
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
    rng = np.random.default_rng(23)
    Z = 2.0 * rng.standard_normal((2000, 2))
    for m in (0, 1, 3, 20, 60):
        hstar = LinearHomogeneous(rng.standard_normal(2))
        X = rng.standard_normal((m, 2))
        S = Dataset(X, hstar.predict_many(X)) if m else Dataset.empty(2)
        arc = fit_version_space(S, "linear")
        cone = fit_version_space(S, "linear", representation="cone")
        assert isinstance(arc, AngleArcVS) and isinstance(cone, ConeVS)
        codes = arc.membership_many(Z)
        assert np.array_equal(cone.membership_many(Z), codes)
        assert np.max(np.abs(cone.dis_distance_many(Z) - arc.dis_distance_many(Z))) <= 1e-12


def test_cone_tie_rule_on_negative_sample_facets():
    # rays on a negative sample's facet are limits of consistent normals;
    # the +-tolerance rule labels the facet's normal direction as they do
    rng = np.random.default_rng(21)
    hstar = LinearHomogeneous(np.array([0.3, -0.2, 1.0]))
    X = rng.standard_normal((8, 3))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, "linear", representation="cone")
    checked = 0
    for x in X[S.y < 0]:
        u = x / np.linalg.norm(x)
        if np.min(np.abs(vs.rays() @ u)) > 1e-12:
            continue  # no ray on this facet
        assert vs.membership_many(np.vstack([u, -u])).tolist() == [-1, 1]
        checked += 1
    assert checked >= 2


def test_dis_distance_zero_iff_disputed_or_boundary():
    vs = two_point_interval()
    rng = np.random.default_rng(8)
    for _ in range(200):
        z = rng.uniform(-1, 2)
        dist = dis_distance(vs, [z])
        if agree_membership(vs, [z]) is M.DISAGREE:
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
        for _ in range(10):
            z = rng.standard_normal(2)
            m_small = agree_membership(v_small, z)
            if m_small is not M.DISAGREE:
                assert agree_membership(v_big, z) is m_small


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
        elif isinstance(vs, AngleArcVS):
            phi = math.atan2(h.w[1], h.w[0])
            rel = (phi - vs.phi_lo) % (2 * math.pi)
            assert rel <= vs.width + 1e-12
        else:
            assert float(np.min(vs.A @ h.w)) >= -1e-12


# ---------------------------------------------------------------------------
# margin exclusion
# ---------------------------------------------------------------------------


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
        assert agree_membership(vs, x) is M.DISAGREE


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
            assert agree_membership(vs, z) is M.DISAGREE
