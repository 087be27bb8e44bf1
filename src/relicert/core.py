"""Core data model: points, labels, datasets, concept classes, perturbations.

Labels live internally in {+1, -1}; on disk (CSV, JSON) they are {0, 1}
with 0 <-> -1.  Every prediction rule is a sign of a real-valued margin,
with the convention sign(0) = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

POSITIVE = 1
NEGATIVE = -1


class DimensionMismatchError(ValueError):
    pass


class DatasetFormatError(ValueError):
    pass


def _as_point(x, dim: int | None = None) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"a point must be a 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.shape[0]}")
    return p


def label_to_external(y: int) -> int:
    return 1 if y > 0 else 0


def label_from_external(v: int) -> int:
    if v == 0:
        return NEGATIVE
    if v == 1:
        return POSITIVE
    raise ValueError(f"external label must be 0 or 1, got {v!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled sample: points stacked row-wise, labels in {+1, -1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array (n_samples, dimension)")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must align with points")
        if not np.all(np.isfinite(X)):
            raise ValueError("all coordinates must be finite")
        if X.shape[0] and not np.all(np.abs(y) == 1):
            raise ValueError("labels must be +1 or -1")
        if X.shape[1] < 1:
            raise ValueError("dimension must be positive")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.X.shape[0]

    @staticmethod
    def empty(dimension: int) -> "Dataset":
        return Dataset(np.zeros((0, dimension)), np.zeros(0, dtype=np.int64))

    @staticmethod
    def from_points(points, labels) -> "Dataset":
        X = np.asarray([_as_point(p) for p in points], dtype=float)
        if X.size == 0:
            raise ValueError("use Dataset.empty for empty datasets")
        return Dataset(X, np.asarray(labels, dtype=np.int64))

    def relabeled_by(self, h: "Hypothesis") -> "Dataset":
        return Dataset(self.X, h.predict_many(self.X))


# ---------------------------------------------------------------------------
# boundary functions for the offset class
# ---------------------------------------------------------------------------

_BASE_KINDS = ("constant", "affine", "sine", "quadratic")


@dataclass(frozen=True, eq=False)
class BaseBoundary:
    """One of a fixed registry of boundary functions f over [0,1]^d.

    Each entry is evaluable, bounded on the unit cube and carries its exact
    Lipschitz constant.  Arbitrary callables are deliberately not accepted.

    kinds:
      constant:  f(x) = c                       params = (c,)
      affine:    f(x) = a.x + b                 params = (b, a_1 .. a_d)
      sine:      f(x) = c + amp*sin(2*pi*k.x)   params = (c, amp, k_1 .. k_d)
      quadratic: f(x) = c + amp*(x_1 - 1/2)^2   params = (c, amp)
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _BASE_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("boundary parameters must be finite")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "constant":
            return np.full(X.shape[0], self.params[0])
        if self.kind == "affine":
            b, a = self.params[0], np.asarray(self.params[1:])
            self._check_dim(X.shape[1])
            return X @ a + b
        if self.kind == "sine":
            c, amp, k = self.params[0], self.params[1], np.asarray(self.params[2:])
            self._check_dim(X.shape[1])
            return c + amp * np.sin(2.0 * np.pi * (X @ k))
        c, amp = self.params
        return c + amp * (X[:, 0] - 0.5) ** 2

    def _check_dim(self, d: int) -> None:
        expected = len(self.params) - (1 if self.kind == "affine" else 2)
        if d != expected:
            raise DimensionMismatchError(
                f"{self.kind} boundary expects input dimension {expected}, got {d}"
            )

    @property
    def lipschitz(self) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "affine":
            return float(np.linalg.norm(self.params[1:]))
        if self.kind == "sine":
            amp, k = self.params[1], np.asarray(self.params[2:])
            return float(abs(amp) * 2.0 * np.pi * np.linalg.norm(k))
        # quadratic: |f'| = |2*amp*(x_1 - 1/2)| <= |amp| on [0,1]
        return float(abs(self.params[1]))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @staticmethod
    def from_dict(d: dict) -> "BaseBoundary":
        return BaseBoundary(d["kind"], tuple(d["params"]))


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Threshold:
    """1-d rule: predict +1 iff the coordinate is >= t."""

    t: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("threshold must be finite")

    @property
    def dimension(self) -> int:
        return 1

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != 1:
            raise DimensionMismatchError("threshold hypotheses act on 1-d points")
        return X[:, 0] - self.t

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.margins(X) >= 0.0, POSITIVE, NEGATIVE)

    def to_dict(self) -> dict:
        return {"kind": "threshold", "t": self.t}


@dataclass(frozen=True, eq=False)
class LinearHomogeneous:
    """Homogeneous linear rule: predict sign(<w, x>) with ||w||_2 = 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).reshape(-1)
        nrm = float(np.linalg.norm(w))
        if not np.all(np.isfinite(w)) or nrm < 1e-12:
            raise ValueError("weight vector must be finite and nonzero")
        w = w / nrm
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def dimension(self) -> int:
        return self.w.shape[0]

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"hypothesis dimension {self.dimension} != point dimension {X.shape[1]}"
            )
        return X @ self.w

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.margins(X) >= 0.0, POSITIVE, NEGATIVE)

    def to_dict(self) -> dict:
        return {"kind": "linear", "w": self.w.tolist()}


@dataclass(frozen=True, eq=False)
class OffsetBoundary:
    """Boundary-graph rule on [0,1]^(d+1): predict sign(x_{d+1} - f(x_1..d) - t)."""

    base: BaseBoundary
    offset: float

    def __post_init__(self):
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] < 2:
            raise DimensionMismatchError("offset-boundary points need >= 2 coordinates")
        return X[:, -1] - self.base(X[:, :-1]) - self.offset

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.margins(X) >= 0.0, POSITIVE, NEGATIVE)

    def to_dict(self) -> dict:
        return {"kind": "offset", "base": self.base.to_dict(), "offset": self.offset}


Hypothesis = Threshold | LinearHomogeneous | OffsetBoundary


def hypothesis_from_dict(d: dict) -> Hypothesis:
    kind = d["kind"]
    if kind == "threshold":
        return Threshold(d["t"])
    if kind == "linear":
        return LinearHomogeneous(np.asarray(d["w"], dtype=float))
    if kind == "offset":
        return OffsetBoundary(BaseBoundary.from_dict(d["base"]), d["offset"])
    raise ValueError(f"unknown hypothesis kind {kind!r}")


def predict(h: Hypothesis, x) -> int:
    """Deterministic label of a single point; zero margin maps to +1."""
    p = _as_point(x)
    return int(h.predict_many(p[None, :])[0])


def empirical_error(h: Hypothesis, S: Dataset) -> float:
    if len(S) == 0:
        raise ValueError("empirical error is undefined on an empty dataset")
    return float(np.mean(h.predict_many(S.X) != S.y))


def empirical_disagreement(h1: Hypothesis, h2: Hypothesis, S: Dataset) -> float:
    if len(S) == 0:
        raise ValueError("empirical disagreement is undefined on an empty dataset")
    return float(np.mean(h1.predict_many(S.X) != h2.predict_many(S.X)))


# ---------------------------------------------------------------------------
# perturbation models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MetricBall:
    """Closed L2 ball attack of radius eta around the natural point."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("ball radius must be a finite nonnegative real")


@dataclass(frozen=True, eq=False)
class FiniteMap:
    """Explicit finite perturbation sets; every point must contain itself."""

    mapping: Mapping[tuple[float, ...], tuple[tuple[float, ...], ...]]

    def __post_init__(self):
        frozen = {}
        for key, vals in self.mapping.items():
            k = tuple(float(v) for v in key)
            vs = tuple(tuple(float(c) for c in p) for p in vals)
            if k not in vs:
                raise ValueError(f"perturbation set of {k} must contain the point itself")
            frozen[k] = vs
        object.__setattr__(self, "mapping", frozen)

    def perturbations(self, x) -> np.ndarray:
        k = tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))
        if k not in self.mapping:
            raise KeyError(f"point {k} not in the perturbation map's domain")
        return np.asarray(self.mapping[k], dtype=float)


PerturbationModel = MetricBall | FiniteMap


# ---------------------------------------------------------------------------
# dataset CSV I/O:  header x1,...,xd,label ; labels in {0,1}
# ---------------------------------------------------------------------------


def read_dataset_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or not lines[0].strip():
        raise DatasetFormatError(f"{path}: missing header")
    header = [c.strip() for c in lines[0].split(",")]
    if header[-1] != "label" or len(header) < 2:
        raise DatasetFormatError(f"{path}: header must be x1,...,xd,label")
    d = len(header) - 1
    if header[:-1] != [f"x{i + 1}" for i in range(d)]:
        raise DatasetFormatError(f"{path}: coordinate columns must be x1..x{d}")
    rows, labels = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != d + 1:
            raise DatasetFormatError(f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            coords = [float(p) for p in parts[:-1]]
            raw = int(parts[-1])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: malformed value ({exc})") from exc
        if raw not in (0, 1):
            raise DatasetFormatError(f"{path}:{lineno}: label must be 0 or 1, got {raw}")
        rows.append(coords)
        labels.append(label_from_external(raw))
    if not rows:
        return Dataset.empty(d)
    return Dataset(np.asarray(rows, dtype=float), np.asarray(labels, dtype=np.int64))


def write_dataset_csv(path, S: Dataset) -> None:
    d = S.dimension
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join([f"x{i + 1}" for i in range(d)] + ["label"]) + "\n")
        for i in range(len(S)):
            coords = ",".join(repr(float(v)) for v in S.X[i])
            f.write(f"{coords},{label_to_external(int(S.y[i]))}\n")
