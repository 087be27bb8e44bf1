import json
import math
import re

import numpy as np
import pytest

from oracles import (
    cap_stays_unanimous,
    cone_min_abs_inner_svd,
    contract_report,
    margin_certify_halving,
    safely_reliable_pointwise,
)

from relicert.core import (
    BaseBoundary,
    Dataset,
    LinearHomogeneous,
    OffsetBoundary,
    Threshold,
    _as_point,
    predict,
)
from relicert.distributions import IsotropicGaussian, UniformCube, derived_rngs
from relicert.estimators import sample_size_for_epsilon
from relicert.losses import LossKind
from relicert import reliability, version_space
from relicert.reliability import (
    BALL_CONSTANCY_SAMPLES,
    LabelConstancyError,
    ReliabilityCertificate,
    certify,
    certify_many,
    margin_alpha,
    margin_certify_many,
    safely_reliable_membership,
    sr_membership_mask,
    verify_contract,
)
from relicert.version_space import (
    ConeVS,
    OffsetClass,
    fit_batch,
    fit_version_space,
)


def interval_vs():
    S = Dataset.from_points([[0.2], [0.8]], [-1, 1])
    return fit_version_space(S, "threshold")


def certify_general_finite(vs, z, u_inverse) -> ReliabilityCertificate:
    """Accept/abstain certificate for a finite preimage of possible sources.

    Accepts (radius +inf as an accept marker) iff every point that could
    have been perturbed to z is in the agreement region and all of them
    carry one common agreed label.
    """
    z = _as_point(z)
    U = np.atleast_2d(np.asarray(u_inverse, dtype=float))
    if U.shape[0] == 0:
        raise ValueError("the preimage set must not be empty")
    if U.shape[1] != z.shape[0]:
        raise ValueError("preimage dimension mismatch")
    if not np.any(np.all(np.abs(U - z[None, :]) <= 1e-12, axis=1)):
        raise ValueError("the preimage of z must contain z itself")
    codes = vs.membership_many(U)
    if np.any(codes == 0) or np.unique(codes).size != 1:
        return ReliabilityCertificate(None, -1.0, LossKind.ST, "analytic")
    return ReliabilityCertificate(int(codes[0]), math.inf, LossKind.ST, "analytic")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certify_examples():
    vs = interval_vs()
    c1 = certify(vs, [0.1], LossKind.TL)
    assert c1.prediction == -1 and math.isinf(c1.radius)
    c2 = certify(vs, [1.0], LossKind.ST)
    assert c2.prediction == 1 and c2.radius == pytest.approx(0.2)
    for kind in LossKind:
        c3 = certify(vs, [0.5], kind)
        assert c3.abstained and c3.radius == -1.0


def test_certificate_invariants():
    with pytest.raises(ValueError):
        ReliabilityCertificate(None, 0.0, LossKind.ST, "analytic")
    with pytest.raises(ValueError):
        ReliabilityCertificate(1, -1.0, LossKind.ST, "analytic")
    with pytest.raises(ValueError):
        ReliabilityCertificate(1, -0.5, LossKind.ST, "analytic")


def test_certificate_json_shape():
    vs = interval_vs()
    d = certify(vs, [1.0], LossKind.ST).to_json_dict([1.0], seed=5)
    assert d == {
        "point": [1.0],
        "prediction": 1,
        "radius": pytest.approx(0.2),
        "loss": "st",
        "method": "analytic",
        "seed": 5,
    }
    d2 = certify(vs, [0.5], LossKind.CA).to_json_dict([0.5])
    assert d2["prediction"] == "abstain" and d2["radius"] == -1
    d3 = certify(vs, [0.1], LossKind.TL).to_json_dict([0.1])
    assert d3["radius"] == "inf" and d3["prediction"] == 0


def test_accepts_iff_agreement_exhaustive_sweep():
    vs = interval_vs()
    zs = np.linspace(-0.5, 1.5, 401)
    for z, code in zip(zs, vs.membership_many(zs[:, None])):
        for kind in (LossKind.CA, LossKind.TL):
            cert = certify(vs, [z], kind)
            assert cert.abstained == (code == 0)
            if not cert.abstained:
                assert math.isinf(cert.radius)


def test_certify_st_radius_at_agreement_boundary():
    vs = interval_vs()
    cert = certify(vs, [0.8], LossKind.ST)
    assert cert.prediction == 1 and cert.radius == 0.0


def test_certify_singleton_arc_uses_boundary_distance():
    # (1, 0) and (-1, 0) pin w1 = 0 and (0, 1) picks w2 >= 0: e2 is the
    # only consistent normal, so no point is disputed
    S = Dataset.from_points([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1, 1, 1])
    vs = fit_version_space(S, "linear")
    assert np.allclose(vs.rays(), [[0.0, 1.0]])
    cert = certify(vs, [3.0, 2.0], LossKind.ST)
    assert cert.prediction == 1
    assert cert.radius == pytest.approx(2.0)  # distance to the single boundary


def test_certify_general_finite_examples():
    vs = interval_vs()
    ok = certify_general_finite(vs, [1.0], [[1.0]])
    assert ok.prediction == 1 and math.isinf(ok.radius)
    # preimage touching the disputed middle: abstain
    bad = certify_general_finite(vs, [1.0], [[1.0], [0.5], [0.9]])
    assert bad.abstained
    # preimage on both agreement sides: abstain despite full agreement
    mixed = certify_general_finite(vs, [1.0], [[1.0], [0.1]])
    assert mixed.abstained
    with pytest.raises(ValueError):
        certify_general_finite(vs, [1.0], np.zeros((0, 1)))
    with pytest.raises(ValueError):
        certify_general_finite(vs, [1.0], [[0.9]])  # must contain z


def _certify_many_case(name):
    """A version space and query points: Gaussian points plus the ties (the
    samples, their negations and the origin, or the interval's ends)."""
    rng = np.random.default_rng(31)
    if name in ("threshold", "offset"):
        if name == "threshold":
            vs = interval_vs()
            Z = np.vstack([rng.uniform(-0.5, 1.5, (40, 1)), [[0.2], [0.8], [0.5]]])
        else:
            base = BaseBoundary("sine", (0.2, 0.1, 1.0))
            X = rng.random((40, 2))
            vs = fit_version_space(Dataset(X, OffsetBoundary(base, 0.1).predict_many(X)),
                                   OffsetClass(base))
            Z = np.vstack([rng.random((40, 2)), X])
        return vs, Z
    if name == "antipodal":
        X = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.5, -0.5]])
        S = Dataset.from_points(X, [1, 1, -1])
    elif name == "empty":
        S = Dataset.empty(3)
    else:
        d, m = {"cone2": (2, 30), "cone3": (3, 30), "cone5": (5, 12), "m<d": (4, 2)}[name]
        X = rng.standard_normal((m, d))
        S = Dataset(X, LinearHomogeneous(rng.standard_normal(d)).predict_many(X))
    d = S.dimension
    Z = np.vstack([2.0 * rng.standard_normal((40, d)), S.X, -S.X, np.zeros((1, d))])
    return fit_version_space(S, "linear"), Z


@pytest.mark.parametrize(
    "name", ["threshold", "offset", "cone2", "cone3", "cone5", "m<d", "empty", "antipodal"]
)
def test_certify_many_matches_pointwise_certify(name):
    vs, Z = _certify_many_case(name)
    pointed = name.startswith("cone")
    for kind in LossKind:
        labels, radii = certify_many(vs, Z, kind, seed=9)
        assert labels.dtype == np.int8 and labels.shape == radii.shape == (Z.shape[0],)
        certs = [certify(vs, z, kind, seed=9) for z in Z]
        assert labels.tolist() == [c.prediction or 0 for c in certs]
        one = np.array([c.radius for c in certs])
        assert np.array_equal(radii == -1.0, labels == 0)
        finite = np.isfinite(one)
        assert np.array_equal(np.isinf(radii), ~finite)
        # one product against many: rounding is relative to the operands, so
        # a radius that cancels to about 0 at a tie is compared at z's scale
        scale = np.maximum(np.abs(one), np.abs(Z).max(axis=1))[finite]
        assert np.all(np.abs(radii[finite] - one[finite]) <= 4 * np.spacing(scale))
        if kind is not LossKind.ST:
            assert np.all(np.isinf(radii[labels != 0]))
        elif pointed:
            agreed = np.flatnonzero(labels != 0)
            for i in np.r_[agreed[:12], agreed[-12:]]:  # Gaussian points and ties
                brute = max(cone_min_abs_inner_svd(vs.A, Z[i], labels[i]), 0.0)
                assert radii[i] == pytest.approx(brute, abs=1e-9)
        elif name in ("m<d", "empty", "antipodal"):
            # a cone with a line of normals certifies its agreed points at 0
            assert np.all(radii[labels != 0] == 0.0)
        assert np.any(labels != 0)
        empty_labels, empty_radii = certify_many(vs, Z[:0], kind, seed=9)
        assert empty_labels.shape == empty_radii.shape == (0,)


def test_certify_many_rejects_bad_points():
    vs = interval_vs()
    with pytest.raises(ValueError, match="finite"):
        certify_many(vs, [[0.1], [math.nan]], LossKind.ST)
    with pytest.raises(ValueError, match="shape"):
        certify_many(vs, np.zeros((2, 1, 1)), LossKind.ST)


def test_wrong_canonical_member_fails_the_ball_check_at_its_point(monkeypatch):
    S = Dataset.from_points([[1.0, 0.5], [1.0, -0.5]], [1, -1])
    vs = fit_version_space(S, "linear")
    assert vs.canonical_member() is vs.canonical_member()  # built once
    Z = np.array([[3.0, 3.0], [-3.0, 3.0], [0.0, 3.0]])
    labels, radii = certify_many(vs, Z, LossKind.ST)
    assert labels.tolist() == [1, 1, 1] and np.all(radii > 0.0)
    # the boundary of (1, 1) runs through the second point, and through the
    # third point's ball; the first point's ball stays on its positive side
    monkeypatch.setattr(ConeVS, "canonical_member", lambda self: LinearHomogeneous([1.0, 1.0]))
    certify(vs, Z[0], LossKind.ST)
    named = f"radius {radii[1]} around {Z[1]} contains both labels"
    with pytest.raises(LabelConstancyError) as err:
        certify_many(vs, Z, LossKind.ST)
    assert str(err.value) == f"certified ball of {named}"
    with pytest.raises(LabelConstancyError, match=re.escape(str(Z[2]))):
        certify(vs, Z[2], LossKind.ST)
    # in blocks of two rows, behind five good balls, the second point is still named
    monkeypatch.setattr(reliability, "SR_CHUNK_ELEMS", 2 * BALL_CONSTANCY_SAMPLES * 2)
    good = np.array([[4.0, 3.0], [3.0, 4.0], [5.0, 3.0], [3.0, 5.0]])
    with pytest.raises(LabelConstancyError) as err:
        certify_many(vs, np.vstack([Z[:1], good, Z[1:]]), LossKind.ST)
    assert str(err.value) == f"certified ball of {named}"


def test_wrong_canonical_member_fails_the_batched_ball_check(monkeypatch):
    # the attack trials' certificates: one paired_geometry pass, then the
    # finish certify_many ends in, each row drawing from its own trial's
    # stream; each row certifies as its one-row certify does, and the ball
    # check labels each ball by its row's canonical member
    S = Dataset.from_points([[1.0, 0.5], [1.0, -0.5]], [1, -1])
    vs = fit_version_space(S, "linear")
    Z = np.array([[3.0, 3.0], [-3.0, 3.0], [0.0, 3.0]])
    seeds = [4, 5, 6]

    def finish():
        labels, radii, _ = version_space.paired_geometry([vs] * 3, Z)
        return reliability._certificates(
            LossKind.ST, labels, radii, [vs] * 3, Z,
            lambda rows: derived_rngs([seeds[i] for i in rows], 101))

    labels, radii = finish()
    for z, label, radius, seed in zip(Z, labels, radii, seeds):
        cert = certify(vs, z, LossKind.ST, seed=seed)
        assert (cert.prediction, cert.radius) == (label, radius)
    monkeypatch.setattr(ConeVS, "canonical", property(lambda self: np.array([0.6, 0.8])))
    with pytest.raises(LabelConstancyError) as err:
        finish()
    assert str(err.value) == (
        f"certified ball of radius {radii[1]} around {Z[1]} contains both labels")


# ---------------------------------------------------------------------------
# safely-reliable membership
# ---------------------------------------------------------------------------


def test_sr_reduces_to_rr_membership_at_zero_attack():
    vs = interval_vs()
    hstar = Threshold(0.5)
    for z in np.linspace(-0.5, 1.5, 101):
        cert = certify(vs, [z], LossKind.ST)
        want = (not cert.abstained) and cert.radius >= 0.3
        got = safely_reliable_membership(vs, hstar, [z], 0.0, 0.3, LossKind.ST)
        assert got == want


def test_sr_interval_examples():
    vs = interval_vs()
    hstar = Threshold(0.5)
    assert safely_reliable_membership(vs, hstar, [1.05], 0.1, 0.1, LossKind.ST)
    assert not safely_reliable_membership(vs, hstar, [0.9], 0.1, 0.1, LossKind.ST)


def test_sr_triangle_identity_on_grid():
    # one-shot distance test == nested two-step ball definition (1-d exact)
    vs = interval_vs()
    hstar = Threshold(0.5)
    eta1, eta2 = 0.07, 0.13
    for x in np.linspace(-1.0, 2.0, 601):
        direct = safely_reliable_membership(vs, hstar, [x], eta1, eta2, LossKind.ST)
        # nested: every point of the closed eta1-interval needs radius >= eta2
        edges = [x - eta1, x + eta1]
        nested = all(
            (not certify(vs, [e], LossKind.ST).abstained)
            and certify(vs, [e], LossKind.ST).radius >= eta2
            for e in edges
        ) and bool(np.all(vs.membership_many(np.linspace(x - eta1, x + eta1, 9)[:, None])))
        assert direct == nested


def test_sr_ca_equals_tl_on_random_2d():
    rng = np.random.default_rng(0)
    wstar = rng.standard_normal(2)
    hstar = LinearHomogeneous(wstar)
    X = rng.standard_normal((200, 2))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, "linear")
    mismatches = 0
    for _ in range(500):
        x = rng.standard_normal(2)
        ca = safely_reliable_membership(vs, hstar, x, 0.08, 0.0, LossKind.CA)
        tl = safely_reliable_membership(vs, hstar, x, 0.08, 0.0, LossKind.TL)
        mismatches += int(ca != tl)
    assert mismatches == 0


def test_sr_ca_on_cone_matches_arc_decisions():
    # the arc's cap test also read the midpoint normal; the cap minimum is
    # superadditive, so the two extreme rays decide alone
    rng = np.random.default_rng(1)
    wstar = rng.standard_normal(2)
    hstar = LinearHomogeneous(wstar)
    X = rng.standard_normal((60, 2))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, "linear")
    R = vs.rays()
    assert R.shape == (2, 2)
    mid = R.sum(axis=0) / np.linalg.norm(R.sum(axis=0))  # the arc's midpoint normal
    arc = np.vstack([R[0], mid, R[1]])
    for _ in range(120):
        x = rng.standard_normal(2)
        a = safely_reliable_membership(vs, hstar, x, 0.1, 0.0, LossKind.CA)
        code = int(vs.membership_many(x[None, :])[0])
        b = code != 0 and cap_stays_unanimous(arc, hstar.w, x, predict(hstar, x), 0.1)
        assert a == b


def _mask_case(name: str):
    """A version space, its target concept and test points, with the edge
    points x = 0 and points on the target's boundary (a.x = 0 exactly)."""
    rng = np.random.default_rng(31)
    if name in ("interval", "interval-empty"):
        hstar, concept = Threshold(0.25), "threshold"
        X = rng.uniform(-1.0, 1.0, size=(0 if name.endswith("empty") else 25, 1))
        if not name.endswith("empty"):
            X = np.vstack([X, [[0.25]]])  # on the target cut: hi = 0.25
        edges = [[0.0], [0.25], [0.35], [-0.35]]
        T = np.vstack([rng.uniform(-1.5, 1.5, size=(60, 1)), edges])
    elif name == "offset":
        base = BaseBoundary("affine", (0.25, 0.5))
        hstar, concept = OffsetBoundary(base, 0.125), OffsetClass(base)
        X = np.vstack([rng.uniform(0.0, 1.0, size=(30, 2)), [[0.5, 0.625]]])
        # x2 - (0.25 + 0.5 x1) - 0.125 is exactly 0 at (0.5, 0.625): hi = 0.125
        edges = [[0.0, 0.0], [0.5, 0.625], [0.5, 0.9], [0.5, 0.3]]
        T = np.vstack([rng.uniform(-0.2, 1.2, size=(60, 2)), edges])
    elif name in ("arc", "arc-empty"):
        hstar, concept = LinearHomogeneous(np.array([1.0, 0.0])), "linear"
        X = rng.standard_normal((0 if name.endswith("empty") else 40, 2))
        if not name.endswith("empty"):
            X = np.vstack([X, [[0.0, 1.0]]])  # on the target boundary: hstar is an endpoint
        edges = [[0.0, 0.0], [0.0, 2.0], [0.0, -2.0], [2.0, 0.0], [0.05, 1.0]]
        T = np.vstack([1.5 * rng.standard_normal((60, 2)), edges])
    else:  # cone, d = 3
        hstar, concept = LinearHomogeneous(np.array([1.0, 0.0, 0.0])), "linear"
        X = rng.standard_normal((0 if name.endswith("empty") else 11, 3))
        if not name.endswith("empty"):
            X = np.vstack([X, [[0.0, 1.0, 0.0]]])
        edges = [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]]
        T = np.vstack([1.5 * rng.standard_normal((40, 3)), edges])
    S = Dataset(X, hstar.predict_many(X)) if len(X) else Dataset.empty(T.shape[1])
    vs = fit_version_space(S, concept)
    return vs, hstar, T


@pytest.mark.parametrize(
    "name", ["interval", "offset", "arc", "cone", "interval-empty", "arc-empty", "cone-empty"]
)
def test_sr_mask_matches_pointwise_oracle(name):
    vs, hstar, T = _mask_case(name)
    if name == "cone":
        assert isinstance(vs, ConeVS) and vs.rays().shape[1] == 3
    hits = 0
    for kind in LossKind:
        for eta1, eta2 in [(0.0, 0.0), (0.0, 0.1), (0.1, 0.05), (0.3, 0.0)]:
            mask = sr_membership_mask(vs, hstar, T, eta1, eta2, kind)
            assert mask.dtype == bool and mask.shape == (T.shape[0],)
            want = [safely_reliable_pointwise(vs, hstar, x, eta1, eta2, kind) for x in T]
            assert mask.tolist() == want
            one = [safely_reliable_membership(vs, hstar, x, eta1, eta2, kind) for x in T]
            assert one == want
            hits += int(np.sum(mask))
    # an empty sample leaves every point disputed, except the origin of the
    # homogeneous classes
    assert hits > 0 or name == "interval-empty"


def _one_hypothesis_arc():
    """(0, 1), (0, -1) and (1, 0), all +1: e1 is the only consistent normal."""
    S = Dataset.from_points([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]], [1, 1, 1])
    return fit_version_space(S, "linear")


@pytest.mark.parametrize("name", ["interval", "offset", "arc", "arc-width-0", "cone"])
def test_st_mask_matches_certified_radius(name):
    if name == "arc-width-0":
        vs, hstar = _one_hypothesis_arc(), LinearHomogeneous(np.array([1.0, 0.0]))
        assert np.allclose(vs.rays(), [[1.0, 0.0]])
        z = [0.05, 3.0]
        assert certify(vs, z, LossKind.ST).radius == pytest.approx(0.05)
        assert not safely_reliable_membership(vs, hstar, z, 0.1, 0.0, LossKind.ST)
        T = np.vstack([1.5 * np.random.default_rng(5).standard_normal((60, 2)), [z]])
    else:
        vs, hstar, T = _mask_case(name)
    for eta1, eta2 in [(0.0, 0.1), (0.1, 0.0), (0.1, 0.05), (0.3, 0.2)]:
        mask = sr_membership_mask(vs, hstar, T, eta1, eta2, LossKind.ST)
        radii = [certify(vs, z, LossKind.ST, seed=4).radius for z in T]
        assert mask.tolist() == [r >= eta1 + eta2 for r in radii]


def test_sr_rejects_negative_strengths():
    vs = interval_vs()
    with pytest.raises(ValueError):
        safely_reliable_membership(vs, Threshold(0.5), [1.0], -0.1, 0.0, LossKind.ST)


# ---------------------------------------------------------------------------
# margin certification
# ---------------------------------------------------------------------------


def test_margin_certify_worked_example():
    h = LinearHomogeneous(np.array([1.0, 0.0]))
    z = np.array([0.5, math.sqrt(0.75)])  # norm 1, margin 0.5
    eta = margin_certify_many(h, [z], eps=0.01, c1=1.0)[1][0]
    assert eta == pytest.approx(0.43977435, abs=1e-6)


def test_margin_certify_norm_and_margin_edges():
    h = LinearHomogeneous(np.array([1.0, 0.0]))
    alpha = math.log(1.0 / (math.sqrt(2) * 0.01))
    big = np.array([alpha * math.sqrt(2) + 0.1, 0.0])
    assert margin_certify_many(h, [big], eps=0.01)[1][0] == -1.0
    exact = np.array([alpha * math.sqrt(2), 0.0])
    assert margin_certify_many(h, [exact], eps=0.01)[1][0] == -1.0
    # margin exactly at the exclusion level: certified at radius zero
    margin = 1.0 * alpha * 0.01 * math.sqrt(2)
    z = np.array([margin, 1.0])
    got = margin_certify_many(h, [z], eps=0.01)[1][0]
    assert got == pytest.approx(0.0, abs=1e-12)


def test_margin_halving_parity():
    rng = np.random.default_rng(2)
    h = LinearHomogeneous(np.array([0.6, -0.8]))
    for _ in range(60):
        z = rng.standard_normal(2) * rng.uniform(0.2, 4.0)
        a = margin_certify_many(h, [z], eps=0.03)[1][0]
        b = margin_certify_halving(h, z, eps=0.03)
        assert a == pytest.approx(b, abs=1e-9)


def test_margin_certify_many_matches_halving_oracle():
    # one batched call over the points of test_margin_halving_parity and the
    # two edges of test_margin_certify_norm_and_margin_edges, rebuilt for h
    rng = np.random.default_rng(2)
    h = LinearHomogeneous(np.array([0.6, -0.8]))
    eps = 0.03
    alpha = margin_alpha(eps, 2)
    band = 1.0 * alpha * eps * math.sqrt(2)
    points = [rng.standard_normal(2) * rng.uniform(0.2, 4.0) for _ in range(60)]
    on_norm_edge = np.array([alpha * math.sqrt(2), 0.0])  # |z| = alpha*sqrt(d): abstains
    on_band = band * h.w  # margin exactly at the exclusion level: radius 0
    assert np.linalg.norm(on_norm_edge) == alpha * math.sqrt(2)
    assert h.margins(on_band[None, :])[0] == band
    Z = np.array(points + [on_norm_edge, on_band])
    labels, radii = margin_certify_many(h, Z, eps)
    assert labels.dtype == np.int8
    for z, label, radius in zip(Z, labels, radii):
        want = margin_certify_halving(h, z, eps=eps)
        assert radius == pytest.approx(want, abs=1e-9)
        assert label == (predict(h, z) if want >= 0.0 else 0)
        assert (radius == -1.0) == (label == 0)
    assert labels[-2] == 0 and radii[-2] == -1.0
    assert labels[-1] == 1 and radii[-1] == 0.0
    assert 0 < np.count_nonzero(labels) < len(Z)


def test_margin_certificate_wrapping():
    h = LinearHomogeneous(np.array([1.0, 0.0]))
    labels, radii = margin_certify_many(h, [[0.5, 0.5], [-0.5, 0.5], [100.0, 0.0]], eps=0.01)
    assert labels.tolist() == [1, -1, 0]
    assert radii[0] > 0.0 and radii[1] > 0.0 and radii[2] == -1.0


def test_margin_alpha_rejects_nan():
    with pytest.raises(ValueError):
        margin_alpha(math.nan, 2)


def test_margin_certifier_never_beats_exact_path():
    # matched sample size per the uniform-convergence scale
    rng = np.random.default_rng(3)
    eps, d = 0.05, 2
    m = sample_size_for_epsilon(eps, vc_dim=d)
    failures = 0
    for trial in range(40):
        wstar = rng.standard_normal(d)
        hstar = LinearHomogeneous(wstar)
        X = rng.standard_normal((m, d))
        S = Dataset(X, hstar.predict_many(X))
        vs = fit_version_space(S, "linear")
        from relicert.version_space import erm

        h = erm(S, "linear")
        for _ in range(5):
            z = rng.standard_normal(d)
            if margin_certify_many(h, [z], eps=eps)[1][0] > 0:
                cert = certify(vs, z, LossKind.ST)
                if cert.abstained or cert.radius <= 0:
                    failures += 1
    assert failures == 0


# ---------------------------------------------------------------------------
# contract verification
# ---------------------------------------------------------------------------


def test_contract_thresholds_zero_violations():
    rep = verify_contract(
        "threshold", Threshold(0.0), IsotropicGaussian(1),
        m=200, trials=800, budget=0.1, kind=LossKind.ST,
        strategy="boundary-directed", seed=21,
    )
    assert rep.violations == 0
    assert 0 < rep.certified <= rep.trials


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("strategy", ["boundary-directed", "random-ball", "grid"])
def test_contract_2d_all_losses_and_strategies(kind, strategy):
    hstar = LinearHomogeneous(np.array([0.8, -0.6]))
    rep = verify_contract(
        "linear", hstar, IsotropicGaussian(2),
        m=48, trials=250, budget=0.15, kind=kind, strategy=strategy, seed=22,
    )
    assert rep.violations == 0
    assert rep.certified > 0


def test_contract_5d_cone_path():
    rng = np.random.default_rng(4)
    hstar = LinearHomogeneous(rng.standard_normal(5))
    for kind in LossKind:
        rep = verify_contract(
            "linear", hstar, IsotropicGaussian(5),
            m=12, trials=200, budget=0.15, kind=kind,
            strategy="boundary-directed", seed=23,
        )
        assert rep.violations == 0
        assert rep.certified > 0


def test_contract_uniform_data_and_report_shape():
    rep = verify_contract(
        "threshold", Threshold(0.3), UniformCube(1, -1.0, 1.0),
        m=150, trials=300, budget=0.05, kind=LossKind.TL,
        strategy="random-ball", seed=24,
    )
    assert rep.violations == 0
    blob = rep.to_json_dict()
    assert blob["trials"] == 300 and blob["witnesses"] == []
    assert blob["config"]["loss"] == "tl"


def test_contract_worker_count_invariance():
    hstar = Threshold(0.0)
    kwargs = dict(m=100, trials=120, budget=0.1, kind=LossKind.ST,
                  strategy="random-ball", seed=25)
    r1 = verify_contract("threshold", hstar, IsotropicGaussian(1), **kwargs, jobs=1)
    r2 = verify_contract("threshold", hstar, IsotropicGaussian(1), **kwargs, jobs=3)
    assert r1.certified == r2.certified
    assert r1.violations == r2.violations == 0


def test_contract_worker_count_invariance_linear():
    # each worker fits its chunk of cones in one batch: the report, every
    # witness included, does not depend on the chunks
    hstar = LinearHomogeneous(np.array([0.6, -0.48, 0.64]))
    kwargs = dict(m=60, trials=90, budget=0.2, kind=LossKind.ST,
                  strategy="boundary-directed", seed=31)
    r1 = verify_contract("linear", hstar, IsotropicGaussian(3), **kwargs, jobs=1)
    r3 = verify_contract("linear", hstar, IsotropicGaussian(3), **kwargs, jobs=3)
    assert r1.to_json_dict() == r3.to_json_dict()
    assert 0 < r1.certified < r1.trials


_SINE = BaseBoundary("sine", (0.5, 0.1, 1.0))

# (concept, target, distribution, m, trials): every case runs at least three
# fit sub-batches of fit_batch(m, d) trials, the last one ragged
_FINISH_CASES = {
    "linear2": ("linear", LinearHomogeneous(np.array([0.8, -0.6])), IsotropicGaussian(2), 200, 100),
    "linear3": ("linear", LinearHomogeneous(np.array([0.6, -0.48, 0.64])), IsotropicGaussian(3),
                60, 150),
    "linear5": ("linear", LinearHomogeneous(np.array([0.5, -0.5, 0.5, 0.3, -0.4])),
                IsotropicGaussian(5), 30, 80),
    "threshold": ("threshold", Threshold(0.2), IsotropicGaussian(1), 400, 100),
    "offset": (OffsetClass(_SINE), OffsetBoundary(_SINE, 0.05), UniformCube(2), 300, 100),
}


def _finish_parity(case, strategy, kind, jobs, seed):
    concept, hstar, dist, m, trials = _FINISH_CASES[case]
    step = fit_batch(m, dist.d)
    assert trials > 2 * step and trials % step
    args = (concept, hstar, dist, m, trials, 0.2, kind, strategy)
    got = verify_contract(*args, seed=seed, jobs=jobs).to_json_dict()
    want = contract_report(*args, seed=seed)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return got


@pytest.mark.parametrize("strategy", ["boundary-directed", "random-ball", "grid"])
@pytest.mark.parametrize("case", list(_FINISH_CASES))
def test_batched_finish_matches_per_trial_oracle(case, strategy):
    # each sub-batch's finish (array passes, one product per trial) must give
    # the report of the one-trial-at-a-time oracle, bit for bit
    for kind in LossKind:
        got = _finish_parity(case, strategy, kind, 3 if kind is LossKind.CA else 1, seed=40)
        assert got["violations"] == 0 and got["certified"] > 0


@pytest.mark.parametrize("case", ["linear3", "threshold"])
def test_batched_finish_matches_per_trial_oracle_on_witnesses(case, monkeypatch):
    # a learner on the wrong side of the target: fixed_loss fires inside
    # certified radii, and the witnesses must match the oracle's.  The batched
    # draw is patched where the finish calls it and where the one-row
    # `random_member` of the oracle calls it, so both see the same learners
    draw = version_space.random_members

    def wrong_side(vss, rngs):
        members = draw(vss, rngs)
        return -members if isinstance(vss[0], ConeVS) else members + 1.0

    monkeypatch.setattr(version_space, "random_members", wrong_side)
    monkeypatch.setattr(reliability, "random_members", wrong_side)
    for kind in LossKind:
        got = _finish_parity(case, "boundary-directed", kind, 1, seed=41)
        assert got["violations"] > 0


@pytest.mark.parametrize("case", ["linear3", "threshold"])
def test_contract_on_empty_samples_matches_oracle(case):
    # m = 0: every trial fits the whole class (the hinted cone keeps e1 and
    # draws its learner as a Gaussian normal) and abstains
    concept, hstar, dist, _, _ = _FINISH_CASES[case]
    for kind in LossKind:
        args = (concept, hstar, dist, 0, 30, 0.2, kind, "boundary-directed")
        got = verify_contract(*args, seed=3).to_json_dict()
        assert got == contract_report(*args, seed=3)
        assert got["violations"] == 0
    with pytest.raises(ValueError, match="m must be nonnegative"):
        verify_contract(concept, hstar, dist, -1, 30, 0.2, LossKind.ST, seed=3)


def test_contract_binding_uses_open_ball():
    # an attack exactly at the issued radius is outside the guarantee
    vs = fit_version_space(Dataset.from_points([[0.2], [0.8]], [-1, 1]), "threshold")
    cert = certify(vs, [1.0], LossKind.ST)
    assert cert.radius == pytest.approx(0.2)
    # distance exactly 0.2 must not count as certified in the runner's sense
    assert not (cert.radius > 0.2)


def test_prediction_matches_target_on_acceptance():
    rng = np.random.default_rng(5)
    hstar = LinearHomogeneous(np.array([0.0, 1.0]))
    X = rng.standard_normal((50, 2))
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, "linear")
    for _ in range(50):
        z = rng.standard_normal(2)
        cert = certify(vs, z, LossKind.ST)
        if not cert.abstained:
            assert cert.prediction == predict(hstar, z)
