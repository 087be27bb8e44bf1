"""The three 0/1 robust losses, at fixed perturbations and as ball suprema.

Loss kinds:
  CA - adversary constrained to keep the true label of the perturbed point,
  TL - learner must match the perturbed point's true label,
  ST - learner must match the original point's true label (stability).

Ball suprema are exact for threshold and homogeneous linear hypotheses: the
loss is the supremum over the closed attack ball, and every rule keeps the
convention sign(0) = +1, so its positive side is closed and its negative side
open.  A ball that only touches a disagreement region on an open face (where
both rules predict +1) scores 0, and with radius 0 every loss equals the
pointwise loss.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DimensionMismatchError,
    FiniteMap,
    Hypothesis,
    LinearHomogeneous,
    MetricBall,
    OffsetBoundary,
    PerturbationModel,
    Threshold,
    _as_point,
    predict,
)
from .distributions import derive_rng, uniform_ball

log = logging.getLogger(__name__)

DEFAULT_BALL_SAMPLES = 1024


class LossKind(enum.Enum):
    CA = "ca"
    TL = "tl"
    ST = "st"


@dataclass(frozen=True)
class RobustLossResult:
    value: int
    method: str  # exact | enumerated | sampled-lower-bound
    samples: int | None = None


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


# ---------------------------------------------------------------------------
# exact ball geometry for affine-margin rules (threshold, homogeneous linear)
# ---------------------------------------------------------------------------


def _affine_form(h: Hypothesis) -> tuple[np.ndarray, float] | None:
    """Unit normal a and offset b with margin(x) = a.x + b, |margin| = boundary distance."""
    if isinstance(h, Threshold):
        return np.array([1.0]), -h.t
    if isinstance(h, LinearHomogeneous):
        return h.w, 0.0
    return None


def _rational(a) -> list[Fraction]:
    return [Fraction(t) for t in a]


def _dot(a, b) -> Fraction:
    return sum(s * t for s, t in zip(a, b))


def _ball_meets_side(x: np.ndarray, eta: float, rule, positive: bool) -> bool:
    """Whether the closed ball B(x, eta) meets {f >= 0} (positive) or {f < 0}.

    `rule` is a triple (a, b, m) with f(z) = a.z + b and m the margin at x
    exactly as `predict` computes it.  x itself is classified with that
    margin; the rest of the ball is decided in exact rational arithmetic on
    the coefficients, so the open side {f < 0} must come strictly inside it.
    """
    a, b, m = rule
    if (m >= 0.0) == positive:
        return True
    if eta == 0.0:
        return False
    A = _rational(a)
    f = _dot(A, _rational(x)) + Fraction(b)
    if (f >= 0) == positive:
        return True
    excess = f * f - Fraction(eta) ** 2 * _dot(A, A)  # sign of dist^2 - eta^2
    return excess <= 0 if positive else excess < 0


def _ball_meets_region(x: np.ndarray, eta: float, closed, open_) -> bool:
    """Whether the closed ball B(x, eta) meets {z : f(z) >= 0, g(z) < 0}.

    `closed` and `open_` are triples (a, b, m) with f(z) = a.z + b (resp. g)
    and m the margin at x exactly as `predict` computes it.  The positive side
    of each rule is closed and the negative side open (sign(0) = +1), so the
    region keeps its open face: a ball that only touches {g = 0} misses it.
    x itself is classified with `predict`'s margins; the rest of the ball is
    decided in exact rational arithmetic on the hypotheses' coefficients.
    """
    u, p, fx = closed
    v, q, gx = open_
    if fx >= 0.0 and gx < 0.0:
        return True
    if eta == 0.0:
        return False
    X, U, V = _rational(x), _rational(u), _rational(v)
    P, Q = Fraction(p), Fraction(q)
    f, g = _dot(U, X) + P, _dot(V, X) + Q
    if f >= 0 and g < 0:
        return True
    uu, vv, uv = _dot(U, U), _dot(V, V), _dot(U, V)
    det = uu * vv - uv * uv  # Gram determinant: zero iff u and v are parallel
    if det == 0 and uv > 0 and Q * uu >= P * uv:
        return False  # v = lam*u, lam > 0: {-p <= u.z < -q/lam} is empty
    eta2 = Fraction(eta) ** 2
    # Nearest point of the closure {f >= 0, g <= 0}, by its active constraints.
    if f < 0:
        g_proj = g - f * uv / uu  # g at the projection of x onto {f = 0}
        if g_proj < 0:
            return f * f / uu <= eta2  # that projection lies in the region
        if g_proj == 0:
            return f * f / uu < eta2
    if g >= 0 and f - g * uv / vv >= 0:
        return g * g / vv < eta2
    # both faces active: the nearest point is on {f = 0, g = 0}
    return (vv * f * f - 2 * uv * f * g + uu * g * g) / det < eta2


def _exact_ball_sup(kind: LossKind, h, hstar, x: np.ndarray, eta: float) -> int:
    ah, bh = _affine_form(h)
    astar, bstar = _affine_form(hstar)
    if x.shape[0] != ah.shape[0] or x.shape[0] != astar.shape[0]:
        raise ValueError("dimension mismatch between point and hypotheses")
    gstar = float(hstar.margins(x)[0])
    H = (ah, bh, float(h.margins(x)[0]))
    S = (astar, bstar, gstar)
    hstar_positive = gstar >= 0.0

    if kind is LossKind.ST:
        # the ball must reach the side of h opposite to hstar's label at x
        return int(_ball_meets_side(x, eta, H, positive=not hstar_positive))
    if kind is LossKind.TL:
        return int(_ball_meets_region(x, eta, H, S) or _ball_meets_region(x, eta, S, H))
    # CA: perturbation must keep hstar's label at x while h gets it wrong
    if hstar_positive:
        return int(_ball_meets_region(x, eta, S, H))
    return int(_ball_meets_region(x, eta, H, S))


def robust_loss_sup(
    kind: LossKind,
    h: Hypothesis,
    hstar: Hypothesis,
    x,
    model: PerturbationModel,
    *,
    n_samples: int = DEFAULT_BALL_SAMPLES,
    seed: int = 0,
) -> RobustLossResult:
    """Supremum of the loss over the perturbation set of x.

    Exact for threshold / homogeneous linear hypotheses under a metric ball,
    exact enumeration for finite perturbation maps, and otherwise a sampled
    lower bound over `n_samples` uniform ball draws (count reported).
    """
    _check_pair(h, hstar)
    x = _as_point(x)

    if isinstance(model, FiniteMap):
        val = int(fixed_loss_many(kind, h, hstar, x, model.perturbations(x)).max())
        return RobustLossResult(value=val, method="enumerated")

    if isinstance(model, MetricBall):
        if _affine_form(h) is not None:
            val = _exact_ball_sup(kind, h, hstar, x, model.radius)
            return RobustLossResult(value=val, method="exact")
        if not isinstance(h, OffsetBoundary):
            raise ValueError(f"unsupported hypothesis type {type(h).__name__}")
        rng = derive_rng(seed)
        zs = x + uniform_ball(rng, n_samples, x.shape[0], model.radius)
        zs = np.vstack([x[None, :], zs])  # the identity perturbation always counts
        val = int(fixed_loss_many(kind, h, hstar, x, zs).max())
        log.debug("sampled robust loss: kind=%s n=%d value=%d", kind.value, n_samples, val)
        return RobustLossResult(value=val, method="sampled-lower-bound", samples=n_samples)

    raise ValueError(f"unsupported perturbation model {type(model).__name__}")
