"""The three 0/1 robust losses at fixed perturbations.

Loss kinds:
  CA - adversary constrained to keep the true label of the perturbed point,
  TL - learner must match the perturbed point's true label,
  ST - learner must match the original point's true label (stability).

Every rule keeps the convention sign(0) = +1, so a perturbation on a
boundary takes the rule's positive label.
"""

from __future__ import annotations

import enum

import numpy as np

from .core import DimensionMismatchError, Hypothesis, _as_point, predict


class LossKind(enum.Enum):
    CA = "ca"
    TL = "tl"
    ST = "st"


def _check_pair(h: Hypothesis, hstar: Hypothesis) -> None:
    if type(h) is not type(hstar):
        raise ValueError("h and hstar must come from the same concept class")


def fixed_loss_many(kind: LossKind, h: Hypothesis, hstar: Hypothesis, x, Z) -> np.ndarray:
    """Indicator losses at the perturbations Z (one per row) of the point x."""
    _check_pair(h, hstar)
    x = _as_point(x)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.ndim != 2 or Z.shape[1] != x.shape[0]:
        raise DimensionMismatchError(f"perturbations must have shape (k, {x.shape[0]})")
    if not np.all(np.isfinite(Z)):
        raise ValueError("point coordinates must be finite")
    hz = h.predict_many(Z)
    sz = None if kind is LossKind.ST else hstar.predict_many(Z)
    return losses_from_labels(kind, hz, sz, predict(hstar, x))


def losses_from_labels(kind: LossKind, hz, sz, sx) -> np.ndarray:
    """The indicator losses of `fixed_loss_many` from labels: hz the
    learner's at each perturbation, sz the target's there (not read for
    ST), and sx the target's at the natural point (one, or one per row)."""
    if kind is LossKind.ST:
        return (hz != sx).astype(np.int64)
    if kind is LossKind.TL:
        return (hz != sz).astype(np.int64)
    return ((hz != sz) & (sz == sx)).astype(np.int64)


def fixed_loss(kind: LossKind, h: Hypothesis, hstar: Hypothesis, x, z) -> int:
    """Indicator loss at one fixed perturbation z of the point x."""
    return int(fixed_loss_many(kind, h, hstar, x, _as_point(z)[None, :])[0])
