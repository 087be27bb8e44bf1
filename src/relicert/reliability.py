"""Robustly-reliable certification.

A certificate carries a prediction and a reliability radius: the prediction
is guaranteed correct for the stated loss as long as the test point was
perturbed by strictly less than the radius (open-ball semantics).  Radius
-1 encodes abstention, +inf an unconditional guarantee under the attack
model.

For the correct/true-label losses the certified region is exactly the
agreement region of the consistent hypotheses; for the stability loss it is
the set of points whose surrounding ball stays inside the agreement region
with a constant label.  For the classes here a ball inside the agreement
region cannot straddle two labels unless it meets the disagreement region
(margin-exclusion / translation arguments), so the stability radius equals
the disagreement distance (`dis_distance_many` of the version space); a
defensive runtime sample of the certified ball fails loudly if that
structural fact is ever violated.

All geometry goes through the version-space methods listed in
`version_space`; nothing here depends on the representation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import (
    Dataset,
    Hypothesis,
    LinearHomogeneous,
    _as_point,
    label_to_external,
    predict,
)
from .distributions import DistributionSpec, _draw, derive_rng, map_trial_chunks
from .losses import LossKind, fixed_loss
from .version_space import (
    ConceptClass,
    VersionSpace,
    fit_version_space,
    interior_hint,
)
# not called here: perfbench's layer tracer wraps this name, so that a cone's
# one-point distance (called only inside version_space, past the wrapper)
# reports 0 calls, where a missing name would report its metrics as absent
from .version_space import cone_dis_distance_info  # noqa: F401

log = logging.getLogger(__name__)

BALL_CONSTANCY_SAMPLES = 64


class LabelConstancyError(AssertionError):
    """A certified ball contained two different unanimous labels."""


@dataclass(frozen=True)
class ReliabilityCertificate:
    prediction: int | None  # +1 / -1, or None when abstaining
    radius: float  # -1.0, a nonnegative real, or +inf
    loss_model: LossKind
    method: str  # analytic | margin

    def __post_init__(self):
        if (self.radius == -1.0) != (self.prediction is None):
            raise ValueError("radius -1 must pair with abstention and vice versa")
        if self.radius < 0.0 and self.radius != -1.0:
            raise ValueError("negative radii other than -1 are meaningless")

    @property
    def abstained(self) -> bool:
        return self.prediction is None

    def to_json_dict(self, point, seed: int | None = None) -> dict:
        if self.prediction is None:
            pred: Any = "abstain"
        else:
            pred = label_to_external(self.prediction)
        radius: Any = self.radius
        if math.isinf(radius):
            radius = "inf"
        elif radius == -1.0:
            radius = -1
        return {
            "point": [float(v) for v in np.asarray(point, dtype=float).reshape(-1)],
            "prediction": pred,
            "radius": radius,
            "loss": self.loss_model.value,
            "method": self.method,
            "seed": seed,
        }


def _assert_ball_label_constancy(
    vs: VersionSpace, z: np.ndarray, radius: float, label: int, seed: int
) -> None:
    rng = derive_rng(seed, 101)
    d = z.shape[0]
    g = rng.standard_normal((BALL_CONSTANCY_SAMPLES, d))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = radius * (1.0 - 1e-9) * rng.random(BALL_CONSTANCY_SAMPLES) ** (1.0 / d)
    pts = z[None, :] + g * radii[:, None]
    preds = vs.canonical_member().predict_many(pts)
    if np.any(preds != label):
        raise LabelConstancyError(
            f"certified ball of radius {radius} around {z} contains both labels"
        )


def certify(vs: VersionSpace, z, kind: LossKind, *, seed: int = 0) -> ReliabilityCertificate:
    """Prediction plus reliability radius at z for the given loss."""
    z = _as_point(z)
    codes = vs.membership_many(z[None, :])
    label = int(codes[0])
    if label == 0:
        return ReliabilityCertificate(None, -1.0, kind, "analytic")
    if kind in (LossKind.CA, LossKind.TL):
        return ReliabilityCertificate(label, math.inf, kind, "analytic")
    # stability: radius = distance to the disagreement region
    radius = float(vs.dis_distance_many(z[None, :], codes, seed=seed)[0])
    if 0.0 < radius < math.inf:
        _assert_ball_label_constancy(vs, z, radius, label, seed)
    return ReliabilityCertificate(label, radius, kind, "analytic")


def certify_general_finite(vs: VersionSpace, z, u_inverse) -> ReliabilityCertificate:
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
# safely-reliable membership
# ---------------------------------------------------------------------------


def sr_membership_mask(
    vs: VersionSpace,
    hstar: Hypothesis | None,
    X,
    eta1: float,
    eta2: float,
    kind: LossKind,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Safely-reliable membership of every row of X, batched for every loss
    and version space (see `safely_reliable_membership` for the regions).

    Stability and true-label compare the disagreement distance
    (`dis_distance_many`, with `seed`) with eta1 + eta2 or eta1 (plain
    agreement when that is 0).  The constrained-adversary region is the
    agreed points that pass the version space's `ca_cap_mask`.
    """
    if eta1 < 0.0 or eta2 < 0.0:
        raise ValueError("attack strengths must be nonnegative")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("point coordinates must be finite")
    if kind is LossKind.CA:
        if hstar is None:
            raise ValueError("the constrained-adversary region needs the target concept")
        codes = vs.membership_many(X)
        mask = codes != 0
        mask[mask] = vs.ca_cap_mask(hstar, X[mask], eta1)
        return mask
    need = eta1 + eta2 if kind is LossKind.ST else eta1
    if need == 0.0:
        return vs.membership_many(X) != 0
    return vs.dis_distance_many(X, seed=seed) >= need


def safely_reliable_membership(
    vs: VersionSpace,
    hstar: Hypothesis | None,
    x,
    eta1: float,
    eta2: float,
    kind: LossKind,
    *,
    seed: int = 0,
) -> bool:
    """Does x keep a reliability radius of eta2 under any attack of strength
    at most eta1?

    Stability: equivalent to the disagreement distance being >= eta1 + eta2
    (triangle inequality).  True-label: the eta1-ball must stay inside the
    agreement region.  Constrained-adversary: only the part of the ball
    sharing the target label of x must stay inside, which needs hstar.
    This is the one-point call of `sr_membership_mask`.
    """
    x = _as_point(x)
    return bool(sr_membership_mask(vs, hstar, x[None, :], eta1, eta2, kind, seed=seed)[0])


# ---------------------------------------------------------------------------
# margin-based fast certification for linear separators
# ---------------------------------------------------------------------------


def margin_alpha(eps: float, d: int) -> float:
    """Norm-scale parameter: log(1 / (sqrt(d) * eps))."""
    val = math.log(1.0 / (math.sqrt(d) * eps))
    if val <= 0.0:
        raise ValueError("eps too large for the margin certifier at this dimension")
    return val


def margin_certify(
    h_erm: LinearHomogeneous,
    z,
    eps: float,
    d: int | None = None,
    alpha: float | None = None,
    c1: float = 1.0,
) -> float:
    """Largest eta for which z sits in the margin-certified set
    {norm < alpha*sqrt(d) - eta} n {|margin| >= c1*alpha*eps*sqrt(d) + eta},
    in closed form; -1 when no eta >= 0 qualifies."""
    if not isinstance(h_erm, LinearHomogeneous):
        raise ValueError("the margin certifier needs a linear hypothesis")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    z = _as_point(z, dim=h_erm.dimension)
    if d is None:
        d = z.shape[0]
    elif d != z.shape[0]:
        raise ValueError("declared dimension does not match the point")
    if alpha is None:
        alpha = margin_alpha(eps, d)
    root_d = math.sqrt(d)
    norm_z = float(np.linalg.norm(z))
    if norm_z >= alpha * root_d:
        return -1.0
    margin = float(abs(h_erm.margins(z[None, :])[0]))
    eta = min(margin - c1 * alpha * eps * root_d, alpha * root_d - norm_z)
    return eta if eta >= 0.0 else -1.0


def margin_certificate(
    h_erm: LinearHomogeneous,
    z,
    eps: float,
    d: int | None = None,
    alpha: float | None = None,
    c1: float = 1.0,
) -> ReliabilityCertificate:
    """Wrap the margin certifier into a stability-loss certificate."""
    eta = margin_certify(h_erm, z, eps, d=d, alpha=alpha, c1=c1)
    if eta < 0.0:
        return ReliabilityCertificate(None, -1.0, LossKind.ST, "margin")
    return ReliabilityCertificate(predict(h_erm, z), eta, LossKind.ST, "margin")


# ---------------------------------------------------------------------------
# adversarial contract verification
# ---------------------------------------------------------------------------

STRATEGIES = ("boundary-directed", "random-ball", "grid")


@dataclass(frozen=True)
class ViolationReport:
    trials: int
    certified: int
    violations: int
    witnesses: list[dict]
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "certified": self.certified,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "config": self.config,
        }


_GRID_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _craft_attack(
    vs: VersionSpace,
    x: np.ndarray,
    budget: float,
    strategy: str,
    rng: np.random.Generator,
    trial: int,
) -> np.ndarray:
    d = x.shape[0]
    if strategy == "random-ball":
        g = rng.standard_normal(d)
        g /= max(float(np.linalg.norm(g)), 1e-300)
        step = budget * rng.random() ** (1.0 / d)
        return x + step * g
    if strategy == "boundary-directed":
        direction = vs.attack_direction(x, rng)
        step = budget * rng.random()
        return x + step * direction
    if strategy == "grid":
        dirs = np.vstack([np.eye(d), -np.eye(d), np.ones((1, d)) / math.sqrt(d),
                          -np.ones((1, d)) / math.sqrt(d)])
        direction = dirs[trial % dirs.shape[0]]
        frac = _GRID_FRACTIONS[trial % len(_GRID_FRACTIONS)]
        return x + budget * frac * direction
    raise ValueError(f"unknown attack strategy {strategy!r}")


def _run_trial(
    trial: int,
    concept: ConceptClass,
    hstar: Hypothesis,
    sampler: DistributionSpec,
    m: int,
    budget: float,
    kind: LossKind,
    strategy: str,
    seed: int,
) -> tuple[bool, dict | None]:
    trial_seed = (seed ^ trial) & 0xFFFFFFFFFFFFFFFF
    rng = np.random.Generator(np.random.Philox(key=trial_seed))
    X = _draw(sampler, rng, m)
    S = Dataset(X, hstar.predict_many(X))
    vs = fit_version_space(S, concept, interior_hint=interior_hint(hstar))
    h_learn = vs.random_member(rng)
    x = _draw(sampler, rng, 1)[0]
    z = _craft_attack(vs, x, budget, strategy, rng, trial)
    cert = certify(vs, z, kind, seed=trial_seed)
    dist = float(np.linalg.norm(z - x))

    def witness(reason: str) -> dict:
        return {
            "trial": trial,
            "trial_seed": trial_seed,
            "reason": reason,
            "x": x.tolist(),
            "z": z.tolist(),
            "distance": dist,
            "radius": cert.radius if not math.isinf(cert.radius) else "inf",
            "prediction": None if cert.prediction is None else label_to_external(cert.prediction),
        }

    binding = cert.radius > dist
    if binding:
        if fixed_loss(kind, h_learn, hstar, x, z):
            return True, witness("loss violated inside certified radius")
        if cert.prediction != predict(hstar, z):
            return True, witness("issued prediction wrong at certified point")
        return True, None
    if cert.radius >= 0.0 and cert.prediction != predict(hstar, z):
        return False, witness("issued prediction wrong at radius-zero point")
    return False, None


def _run_trial_range(args) -> tuple[int, list[dict]]:
    concept, hstar, sampler, m, budget, kind, strategy, seed, lo, hi = args
    certified = 0
    witnesses: list[dict] = []
    for t in range(lo, hi):
        binding, bad = _run_trial(t, concept, hstar, sampler, m, budget, kind, strategy, seed)
        certified += int(binding)
        if bad is not None:
            witnesses.append(bad)
    return certified, witnesses


def verify_contract(
    concept: ConceptClass,
    hstar: Hypothesis,
    sampler: DistributionSpec,
    m: int,
    trials: int,
    budget: float,
    kind: LossKind,
    strategy: str = "boundary-directed",
    *,
    seed: int = 0,
    jobs: int = 1,
    max_witnesses: int = 100,
) -> ViolationReport:
    """Empirical check of the reliability contract.

    Per trial: draw a training sample, fit, draw a natural point, craft an
    attack within `budget`, certify the attacked point, and whenever the
    issued radius exceeds the attack distance evaluate the loss against the
    target concept.  Any nonzero loss inside a certified radius is recorded
    as a violation with full reproduction data.
    """
    if budget < 0.0:
        raise ValueError("attack budget must be nonnegative")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown attack strategy {strategy!r}")
    base = (concept, hstar, sampler, m, budget, kind, strategy, seed)
    results = map_trial_chunks(_run_trial_range, base, trials, jobs)
    certified = sum(r[0] for r in results)
    witnesses = [w for r in results for w in r[1]]
    witnesses.sort(key=lambda w: w["trial"])
    report = ViolationReport(
        trials=trials,
        certified=certified,
        violations=len(witnesses),
        witnesses=witnesses[:max_witnesses],
        config={
            "m": m,
            "budget": budget,
            "loss": kind.value,
            "strategy": strategy,
            "seed": seed,
        },
    )
    if report.violations:
        log.warning("contract violated %d/%d trials", report.violations, trials)
    return report
