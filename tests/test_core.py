import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relicert.core import (
    BaseBoundary,
    Dataset,
    DatasetFormatError,
    DimensionMismatchError,
    FiniteMap,
    LinearHomogeneous,
    MetricBall,
    OffsetBoundary,
    Threshold,
    empirical_disagreement,
    empirical_error,
    hypothesis_from_dict,
    predict,
    read_dataset_csv,
    write_dataset_csv,
)


def test_predict_linear_positive_inner_product():
    h = LinearHomogeneous(np.array([1.0, 0.0]))
    assert predict(h, [0.5, -2.0]) == 1


def test_predict_threshold_above():
    assert predict(Threshold(0.3), [0.7]) == 1


def test_predict_offset_below_boundary():
    h = OffsetBoundary(BaseBoundary("constant", (0.0,)), 0.2)
    assert predict(h, [0.5, 0.1]) == -1


def test_zero_margin_maps_to_plus_one():
    assert predict(Threshold(0.5), [0.5]) == 1
    assert predict(LinearHomogeneous(np.array([0.0, 1.0])), [3.0, 0.0]) == 1


def test_linear_weights_renormalized():
    h = LinearHomogeneous(np.array([3.0, 4.0]))
    assert np.linalg.norm(h.w) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        LinearHomogeneous(np.zeros(2))


def test_dimension_mismatch_raises():
    h = LinearHomogeneous(np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        predict(h, [1.0, 2.0, 3.0])


def test_empirical_error_quarter():
    S = Dataset.from_points([[0.1], [0.2], [0.6], [0.9]], [-1, -1, 1, 1])
    # threshold at 0.5 flips the 0.2 sample when labeled +1 there
    S_bad = Dataset(S.X, np.array([-1, 1, 1, 1]))
    assert empirical_error(Threshold(0.5), S_bad) == pytest.approx(0.25)
    assert empirical_error(Threshold(0.5), S) == 0.0


def test_empirical_error_constant_wrong():
    S = Dataset.from_points([[0.0], [1.0], [2.0]], [-1, -1, -1])
    assert empirical_error(Threshold(-10.0), S) == 1.0


def test_empirical_error_empty_raises():
    with pytest.raises(ValueError):
        empirical_error(Threshold(0.0), Dataset.empty(1))


def test_disagreement_direct_enumeration():
    S = Dataset.from_points([[0.1], [0.4], [0.9]], [1, 1, 1])
    assert empirical_disagreement(Threshold(0.3), Threshold(0.6), S) == pytest.approx(1 / 3)


def test_disagreement_identity_and_complement():
    S = Dataset.from_points([[0.1], [0.4], [0.9]], [1, 1, 1])
    assert empirical_disagreement(Threshold(0.3), Threshold(0.3), S) == 0.0
    h1 = LinearHomogeneous(np.array([1.0]))
    h2 = LinearHomogeneous(np.array([-1.0]))
    S2 = Dataset.from_points([[0.5], [2.0], [-1.0]], [1, 1, -1])
    assert empirical_disagreement(h1, h2, S2) == 1.0


@given(
    t1=st.floats(-2, 2),
    t2=st.floats(-2, 2),
    pts=st.lists(st.floats(-3, 3), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_disagreement_is_error_after_relabeling(t1, t2, pts):
    S = Dataset.from_points([[p] for p in pts], [1] * len(pts))
    h1, h2 = Threshold(t1), Threshold(t2)
    assert empirical_disagreement(h1, h2, S) == pytest.approx(
        empirical_error(h1, S.relabeled_by(h2))
    )
    assert empirical_disagreement(h1, h2, S) == pytest.approx(
        empirical_disagreement(h2, h1, S)
    )


def test_hypothesis_serialization_round_trip():
    hs = [
        Threshold(0.125),
        LinearHomogeneous(np.array([0.6, -0.8])),
        OffsetBoundary(BaseBoundary("sine", (0.1, 0.2, 1.0)), -0.75),
    ]
    for h in hs:
        blob = json.dumps(h.to_dict())
        h2 = hypothesis_from_dict(json.loads(blob))
        x = np.array([[0.3, 0.4]]) if not isinstance(h, Threshold) else np.array([[0.3]])
        assert np.array_equal(h.predict_many(x), h2.predict_many(x))
        assert json.dumps(h2.to_dict()) == blob  # bit-exact fields


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    S = Dataset(rng.standard_normal((9, 2)), np.where(rng.random(9) < 0.5, 1, -1))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, S)
    S2 = read_dataset_csv(path)
    assert np.array_equal(S.X, S2.X) and np.array_equal(S.y, S2.y)


def test_csv_bad_label_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,label\n0.5,1\n0.7,2\n")
    with pytest.raises(DatasetFormatError, match=":3"):
        read_dataset_csv(path)


def test_csv_header_only_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2,label\n")
    S = read_dataset_csv(path)
    assert len(S) == 0 and S.dimension == 2


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,label\n0.5\n")
    with pytest.raises(DatasetFormatError, match=":2"):
        read_dataset_csv(path)


def test_dataset_is_immutable():
    S = Dataset.from_points([[0.0]], [1])
    with pytest.raises(ValueError):
        S.X[0, 0] = 5.0


def test_finite_map_requires_self():
    with pytest.raises(ValueError):
        FiniteMap({(0.0,): ((1.0,),)})
    fm = FiniteMap({(0.0,): ((0.0,), (1.0,))})
    assert fm.perturbations([0.0]).shape == (2, 1)


def test_metric_ball_validation():
    with pytest.raises(ValueError):
        MetricBall(-0.1)
    assert MetricBall(0.0).radius == 0.0


def test_boundary_registry_lipschitz():
    assert BaseBoundary("constant", (0.4,)).lipschitz == 0.0
    assert BaseBoundary("affine", (0.0, 3.0, 4.0)).lipschitz == pytest.approx(5.0)
    b = BaseBoundary("sine", (0.0, 0.5, 2.0))
    assert b.lipschitz == pytest.approx(0.5 * 2 * math.pi * 2.0)
    with pytest.raises(ValueError):
        BaseBoundary("cubic", (1.0,))


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=40, deadline=None)
def test_predict_total_and_deterministic(t, x):
    h = Threshold(t)
    assert predict(h, [x]) == predict(h, [x])
    assert predict(h, [x]) in (-1, 1)
