"""Correctness checks the benchmark applies to the artifacts the CLI writes.

All of this is the benchmark's own code: nothing is imported from relicert,
so a defect in the package cannot hide itself by also breaking its check.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

# a radius above the exact reference by more than this share is over-certified;
# the slack only absorbs floating-point noise
OVERCERT_REL = 1e-9
OVERCERT_ABS = 1e-12
RAY_FEAS_TOL = 1e-10


def cone_rows(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normalised signed samples y_i x_i: the cone {w : A w >= 0} of
    consistent homogeneous separators."""
    raw = y[:, None] * X
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def extreme_rays_svd(A: np.ndarray) -> np.ndarray:
    """Every extreme ray of {w : A w >= 0}, as unit rows, found by taking
    the null vector of each (d-1)-subset of rows with an SVD and keeping the
    feasible signs.  Exhaustive: C(m, d-1) subsets."""
    m, d = A.shape
    subsets = np.array(list(combinations(range(m), d - 1)), dtype=np.int64)
    _, _, vt = np.linalg.svd(A[subsets])
    R = vt[:, -1, :]
    R = np.vstack([R, -R])
    return R[(R @ A.T).min(axis=1) >= -RAY_FEAS_TOL]


def reference_certificate(rays: np.ndarray, z: np.ndarray) -> tuple[int, float]:
    """(label, distance to the disagreement region) at z; label 0 when the
    consistent separators disagree at z (sign(0) = +1)."""
    vals = rays @ z
    if vals.min() >= 0.0:
        return 1, float(vals.min())
    if vals.max() < 0.0:
        return -1, float(-vals.max())
    return 0, 0.0


def judge_certificate(cert: dict, label: int, dist: float) -> dict:
    """Compare one certificate from the CLI with the exact reference.

    Returns {"certified": bool, "ok": bool, "tightness": float | None,
    "reason": str | None}.  Abstaining is always sound; a prediction must
    match the reference label, and its radius must not exceed the
    reference distance."""
    pred = cert["prediction"]
    radius = cert["radius"]
    tight = None
    if dist > 0.0:
        issued = -1.0 if pred == "abstain" else (math.inf if radius == "inf" else float(radius))
        tight = max(min(issued, dist), 0.0) / dist
    if pred == "abstain":
        return {"certified": False, "ok": True, "tightness": tight, "reason": None}
    want = 1 if label > 0 else 0
    if label == 0 or pred != want:
        return {"certified": True, "ok": False, "tightness": tight,
                "reason": f"prediction {pred} where the reference label is {label}"}
    r = math.inf if radius == "inf" else float(radius)
    if r > dist * (1.0 + OVERCERT_REL) + OVERCERT_ABS:
        return {"certified": True, "ok": False, "tightness": tight,
                "reason": f"radius {r!r} exceeds exact distance {dist!r}"}
    return {"certified": True, "ok": True, "tightness": tight, "reason": None}


def read_certificates(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)["certificates"]


def read_attack_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)["report"]


def read_estimate_mass(path) -> float:
    """The `mass` column of the single estimate row of an sr-mass/shift CSV."""
    with open(path, "r", encoding="utf-8") as f:
        rows = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    header = rows[0].split(",")
    return float(rows[1].split(",")[header.index("mass")])


def mass_order_ok(ca: float, tl: float, st: float) -> bool:
    """Safely-reliable regions nest: CA contains TL contains ST."""
    return ca >= tl >= st


def shift_bound_ok(st: float, plain: float) -> bool:
    """The ST safely-reliable region lies inside the agreement region."""
    return st <= plain
