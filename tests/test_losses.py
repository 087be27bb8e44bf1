import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relicert.core import (
    BaseBoundary,
    FiniteMap,
    LinearHomogeneous,
    MetricBall,
    OffsetBoundary,
    Threshold,
    predict,
)
from relicert.losses import LossKind, fixed_loss, fixed_loss_many, robust_loss_sup


def _lin(a, b):
    return LinearHomogeneous(np.array([a, b], dtype=float))


def test_fixed_loss_definitions():
    h, hstar = _lin(0.0, 1.0), _lin(1.0, 0.0)
    x, z = [1.0, 1.0], [1.0, -1.0]
    # h(z) = -1, hstar(z) = +1, hstar(x) = +1
    assert fixed_loss(LossKind.TL, h, hstar, x, z) == 1
    assert fixed_loss(LossKind.CA, h, hstar, x, z) == 1
    assert fixed_loss(LossKind.ST, h, hstar, x, z) == 1


def test_fixed_loss_stability_zero():
    h, hstar = _lin(0.0, 1.0), _lin(0.0, 1.0)
    # h(z) = +1 matches hstar(x) = +1
    assert fixed_loss(LossKind.ST, h, hstar, [0.0, 2.0], [1.0, 1.0]) == 0


def test_fixed_loss_ca_constraint_gates():
    h, hstar = _lin(0.0, 1.0), _lin(1.0, 0.0)
    x, z = [1.0, 1.0], [-1.0, -5.0]
    # hstar flips between x and z, so the constrained adversary scores zero
    assert predict(hstar, x) != predict(hstar, z)
    assert fixed_loss(LossKind.CA, h, hstar, x, z) == 0


@pytest.mark.parametrize("family", ["threshold", "linear", "offset"])
def test_fixed_loss_many_matches_pointwise(family):
    rng = np.random.default_rng(3)
    base = BaseBoundary("sine", (0.1, 0.3, 1.5))
    for _ in range(20):
        if family == "threshold":
            h, hstar = Threshold(rng.normal()), Threshold(rng.normal())
            d = 1
        elif family == "linear":
            h, hstar = _lin(*rng.normal(size=2)), _lin(*rng.normal(size=2))
            d = 2
        else:
            h, hstar = OffsetBoundary(base, rng.normal()), OffsetBoundary(base, rng.normal())
            d = 2
        x = rng.normal(size=d)
        Z = np.vstack([x, x + 0.8 * rng.normal(size=(40, d))])
        for kind in LossKind:
            many = fixed_loss_many(kind, h, hstar, x, Z)
            assert many.dtype.kind == "i" and many.shape == (Z.shape[0],)
            assert many.tolist() == [fixed_loss(kind, h, hstar, x, z) for z in Z]


@given(
    a1=st.floats(-1, 1), b1=st.floats(-1, 1),
    a2=st.floats(-1, 1), b2=st.floats(-1, 1),
    x1=st.floats(-2, 2), x2=st.floats(-2, 2),
    z1=st.floats(-2, 2), z2=st.floats(-2, 2),
)
@settings(max_examples=120, deadline=None)
def test_pointwise_dominance(a1, b1, a2, b2, x1, x2, z1, z2):
    if abs(a1) + abs(b1) < 1e-6 or abs(a2) + abs(b2) < 1e-6:
        return
    h, hstar = _lin(a1, b1), _lin(a2, b2)
    x, z = [x1, x2], [z1, z2]
    ca = fixed_loss(LossKind.CA, h, hstar, x, z)
    tl = fixed_loss(LossKind.TL, h, hstar, x, z)
    stab = fixed_loss(LossKind.ST, h, hstar, x, z)
    assert ca <= tl
    if ca == 1:
        assert stab == 1


@given(
    a1=st.floats(-1, 1), b1=st.floats(-1, 1),
    a2=st.floats(-1, 1), b2=st.floats(-1, 1),
    x1=st.floats(-2, 2), x2=st.floats(-2, 2),
)
@settings(max_examples=80, deadline=None)
# both rules predict +1 at the origin; the regions {h != hstar} only reach it
# through their open faces
@example(a1=0.0, b1=1.0, a2=1.0, b2=0.0, x1=0.0, x2=0.0)
# h and hstar differ by 2.5e-61: a thin but nonempty disagreement region
@example(a1=1.0, b1=-2.548339456027492e-61, a2=1.0, b2=0.0, x1=0.0, x2=1.0)
def test_identity_perturbation_collapse(a1, b1, a2, b2, x1, x2):
    if abs(a1) + abs(b1) < 1e-6 or abs(a2) + abs(b2) < 1e-6:
        return
    h, hstar = _lin(a1, b1), _lin(a2, b2)
    x = [x1, x2]
    point = int(predict(h, x) != predict(hstar, x))
    ball = MetricBall(0.0)
    for kind in LossKind:
        res = robust_loss_sup(kind, h, hstar, x, ball)
        assert res.method == "exact"
        assert res.value == point


def test_exact_ball_sup_stability_examples():
    h = hstar = _lin(0.0, 1.0)
    x = [0.0, 1.0]
    assert robust_loss_sup(LossKind.ST, h, hstar, x, MetricBall(0.5)).value == 0
    assert robust_loss_sup(LossKind.ST, h, hstar, x, MetricBall(1.5)).value == 1
    # identical predictors never violate the true-label loss
    assert robust_loss_sup(LossKind.TL, h, hstar, x, MetricBall(100.0)).value == 0
    assert robust_loss_sup(LossKind.CA, h, hstar, x, MetricBall(100.0)).value == 0


def test_exact_ball_sup_threshold_geometry():
    h, hstar = Threshold(0.5), Threshold(0.2)
    # disagreement zone [0.2, 0.5); x = 0.7 sits 0.2 away from it
    x = [0.7]
    assert robust_loss_sup(LossKind.TL, h, hstar, x, MetricBall(0.19)).value == 0
    assert robust_loss_sup(LossKind.TL, h, hstar, x, MetricBall(0.21)).value == 1
    # not a tie: in binary floating point 0.7 - 0.2 = 0.49999999999999994 < 0.5,
    # so the ball reaches a point where h = -1 and hstar = +1
    assert robust_loss_sup(LossKind.TL, h, hstar, x, MetricBall(0.2)).value == 1
    # an exact tie: the ball around 0.75 touches [0.2, 0.5) only at its open
    # end 0.5, where h(0.5) = hstar(0.5) = +1 (sign(0) = +1)
    for kind in LossKind:
        assert robust_loss_sup(kind, h, hstar, [0.75], MetricBall(0.25)).value == 0


def test_exact_ball_sup_keeps_pointwise_dominance_at_decimal_ties():
    # CA <= TL and CA <= ST hold pointwise, so they hold for the suprema too.
    # Radii within one rounding of |x - t_h| put the ball's edge on h's
    # boundary, where margins computed in floating point misjudge the reach.
    h, hstar = Threshold(-0.03), Threshold(-0.96)
    # 0.83 - 0.86 < -0.03 in exact arithmetic on these floats
    for kind in LossKind:
        assert robust_loss_sup(kind, h, hstar, [0.83], MetricBall(0.86)).value == 1
    rng = np.random.default_rng(5)
    for _ in range(2000):
        t_h, t_s, x = (round(float(v), 2) for v in rng.uniform(-2, 2, size=3))
        eta = abs(round(abs(x - t_h) + float(rng.choice([-0.01, 0.0, 0.01])), 2))
        h, hstar = Threshold(t_h), Threshold(t_s)
        ca, tl, stab = (
            robust_loss_sup(kind, h, hstar, [x], MetricBall(eta)).value
            for kind in (LossKind.CA, LossKind.TL, LossKind.ST)
        )
        assert ca <= tl
        assert ca <= stab


def test_exact_ball_sup_against_dense_sampling():
    rng = np.random.default_rng(7)
    disagreements = 0
    for _ in range(150):
        h = _lin(*rng.standard_normal(2))
        hstar = _lin(*rng.standard_normal(2))
        x = rng.standard_normal(2) * 1.5
        eta = float(rng.random() * 1.2)
        # dense deterministic cover of the ball: boundary + interior rings
        angles = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        zs = np.vstack([x + r * eta * ring for r in (1.0, 0.6, 0.25)] + [x[None, :]])
        for kind in LossKind:
            exact = robust_loss_sup(kind, h, hstar, x, MetricBall(eta)).value
            sampled = int(fixed_loss_many(kind, h, hstar, x, zs).max())
            if sampled > exact:
                disagreements += 1  # sampled witness beats 'exact': a bug
            # sampled is a lower bound, so exact >= sampled must always hold
            assert exact >= sampled
    assert disagreements == 0


def test_finite_map_enumeration():
    h, hstar = Threshold(0.5), Threshold(0.2)
    fm = FiniteMap({(0.7,): ((0.7,), (0.3,))})
    res = robust_loss_sup(LossKind.TL, h, hstar, [0.7], fm)
    assert res.method == "enumerated"
    assert res.value == 1  # 0.3 lands in the disagreement zone


def test_sampled_lower_bound_never_exceeds_exact():
    # constant-base offsets are axis-aligned slabs with a known exact answer
    rng = np.random.default_rng(11)
    base = BaseBoundary("constant", (0.0,))
    for _ in range(40):
        t_h, t_s = rng.uniform(-0.5, 0.5, size=2)
        h, hstar = OffsetBoundary(base, t_h), OffsetBoundary(base, t_s)
        x = rng.uniform(-1, 1, size=2)
        eta = float(rng.random())
        res = robust_loss_sup(
            LossKind.ST, h, hstar, x, MetricBall(eta), n_samples=256, seed=3
        )
        assert res.method == "sampled-lower-bound"
        assert res.samples == 256
        # exact slab geometry: some z in the ball gets h(z) != hstar(x)
        ystar = 1 if x[1] - t_s >= 0 else -1
        if ystar > 0:
            exact = int(x[1] - t_h - eta < 0)
        else:
            exact = int(x[1] - t_h + eta >= 0)
        assert res.value <= exact


def test_mixed_classes_rejected():
    with pytest.raises(ValueError):
        fixed_loss(LossKind.TL, Threshold(0.0), _lin(1.0, 0.0), [0.0], [0.0])
