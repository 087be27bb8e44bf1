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
defensive runtime sample of the certified balls fails loudly if that
structural fact is ever violated.  `certify_many` certifies a batch of
points with one membership and one distance call, and its ball check draws
from one generator per call, derived from the seed, for every certified
ball; `certify` is its one-row call.

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
from .distributions import (
    DistributionSpec,
    _draw,
    derive_rng,
    dimension,
    map_trial_chunks,
    uniform_ball,
)
from .losses import LossKind, fixed_loss
from .version_space import (
    SR_CHUNK_ELEMS,
    ConceptClass,
    VersionSpace,
    _random_unit,
    fit_batch,
    fit_version_spaces,
    interior_hint,
)
# not called here: perfbench's layer tracer wraps these names, so that a
# cone's one-point distance (called only inside version_space, past the
# wrapper) and the one-sample fit (the trials fit in batches) report 0
# calls, where a missing name would report their metrics as absent
from .version_space import cone_dis_distance_info, fit_version_space  # noqa: F401

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


def _assert_balls_label_constancy(
    vs: VersionSpace, Z: np.ndarray, radii: np.ndarray, labels: np.ndarray, seed: int
) -> None:
    """BALL_CONSTANCY_SAMPLES uniform points in each open ball B(Z[i],
    radii[i]) must all get labels[i] from the canonical member.  One
    generator, derive_rng(seed, 101), draws the balls' points in row blocks
    of at most SR_CHUNK_ELEMS coordinates; a call with one block makes one
    draw."""
    rng = derive_rng(seed, 101)
    k, d = Z.shape
    n = BALL_CONSTANCY_SAMPLES
    h = vs.canonical_member()
    step = max(1, SR_CHUNK_ELEMS // (n * d))
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        balls = uniform_ball(rng, (hi - lo, n), d, radii[lo:hi, None] * (1.0 - 1e-9))
        balls += Z[lo:hi, None, :]
        bad = h.predict_many(balls.reshape(-1, d)).reshape(hi - lo, n) != labels[lo:hi, None]
        if bad.any():
            i = lo + int(np.argmax(bad)) // n
            raise LabelConstancyError(
                f"certified ball of radius {radii[i]} around {Z[i]} contains both labels"
            )


def _as_rows(Z) -> np.ndarray:
    """Z as a finite (n, d) float array."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.ndim != 2:
        raise ValueError(f"points must form an (n, d) array, got shape {Z.shape}")
    if not np.isfinite(Z).all():
        raise ValueError("point coordinates must be finite")
    return Z


def certify_many(
    vs: VersionSpace, Z, kind: LossKind, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and reliability radii for every row of Z at once.

    Returns the labels (int8: +1, -1, or 0 for an abstention) and the radii
    (-1 on abstentions, +inf on the rest for CA and TL).  The stability
    ball check draws from one generator per call, derived from `seed`,
    over every certified row.
    """
    Z = _as_rows(Z)
    labels = vs.membership_many(Z)
    if kind is not LossKind.ST:
        return labels, np.where(labels != 0, math.inf, -1.0)
    # stability: radius = distance to the disagreement region, 0 on disputed rows
    radii = vs.dis_distance_many(Z, labels)
    check = radii > 0.0
    if check.all():  # no row to drop: the usual one-row call skips the indexing
        _assert_balls_label_constancy(vs, Z, radii, labels, seed)
        return labels, radii
    radii[labels == 0] = -1.0
    if check.any():
        _assert_balls_label_constancy(vs, Z[check], radii[check], labels[check], seed)
    return labels, radii


def certify(vs: VersionSpace, z, kind: LossKind, *, seed: int = 0) -> ReliabilityCertificate:
    """Prediction plus reliability radius at z for the given loss: the
    one-row call of `certify_many`."""
    labels, radii = certify_many(vs, _as_point(z)[None, :], kind, seed=seed)
    return ReliabilityCertificate(int(labels[0]) or None, float(radii[0]), kind, "analytic")


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
) -> np.ndarray:
    """Safely-reliable membership of every row of X, batched for every loss
    and version space (see `safely_reliable_membership` for the regions).

    Stability and true-label compare the disagreement distance
    (`dis_distance_many`) with eta1 + eta2 or eta1 (plain
    agreement when that is 0).  The constrained-adversary region is the
    agreed points that pass the version space's `ca_cap_mask`.
    """
    if not (0.0 <= eta1 < math.inf and 0.0 <= eta2 < math.inf):
        raise ValueError("attack strengths must be nonnegative and finite")
    X = _as_rows(X)
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
    return vs.dis_distance_many(X) >= need


def safely_reliable_membership(
    vs: VersionSpace,
    hstar: Hypothesis | None,
    x,
    eta1: float,
    eta2: float,
    kind: LossKind,
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
    return bool(sr_membership_mask(vs, hstar, x[None, :], eta1, eta2, kind)[0])


# ---------------------------------------------------------------------------
# margin-based fast certification for linear separators
# ---------------------------------------------------------------------------


def margin_alpha(eps: float, d: int) -> float:
    """Norm-scale parameter: log(1 / (sqrt(d) * eps))."""
    val = math.log(1.0 / (math.sqrt(d) * eps))
    if not val > 0.0:
        raise ValueError("eps too large for the margin certifier at this dimension")
    return val


def margin_certify_many(
    h_erm: LinearHomogeneous, Z, eps: float, c1: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and radii of every row of Z, as `certify_many` returns them:
    the radius is the largest eta >= 0 with the row in {norm < alpha*sqrt(d)
    - eta} n {|margin| >= c1*alpha*eps*sqrt(d) + eta}, in closed form."""
    if not isinstance(h_erm, LinearHomogeneous):
        raise ValueError("the margin certifier needs a linear hypothesis")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < c1 < math.inf:
        raise ValueError("c1 must be a positive finite number")
    Z = _as_rows(Z)
    alpha, root_d = margin_alpha(eps, Z.shape[1]), math.sqrt(Z.shape[1])
    margins = h_erm.margins(Z)
    norms = np.linalg.norm(Z, axis=1)
    eta = np.minimum(np.abs(margins) - c1 * alpha * eps * root_d, alpha * root_d - norms)
    certified = (norms < alpha * root_d) & (eta >= 0.0)
    # a certified margin is nonzero, so its sign is the prediction
    labels = np.where(certified, np.sign(margins), 0.0).astype(np.int8)
    return labels, np.where(certified, eta, -1.0)


def margin_certify(h_erm: LinearHomogeneous, z, eps: float, c1: float = 1.0) -> float:
    """The margin radius at z (-1 on an abstention): `margin_certify_many`'s one-row call."""
    return float(margin_certify_many(h_erm, _as_point(z)[None, :], eps, c1=c1)[1][0])


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
        direction = _random_unit(rng, d)
        return x + budget * rng.random() ** (1.0 / d) * direction
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


def fitted_trials(
    concept: ConceptClass, hstar: Hypothesis, spec: DistributionSpec, m: int, trials: range, rng_of
):
    """(t, rng, vs) for each trial t: rng = rng_of(t), after it drew the
    trial's m training points from spec (labelled by hstar), and vs the
    version space fitted to them.  Each sub-batch of `fit_batch(m, d)`
    trials is fitted in one `fit_version_spaces` call, hinted by
    `interior_hint(hstar)`.  Each trial draws only from its own generator
    and a batched fit is the same bits as a one-sample fit, so the results
    are those of a loop that fits one trial at a time."""
    step = fit_batch(m, dimension(spec))
    for i in range(0, len(trials), step):
        batch = trials[i : i + step]
        rngs = [rng_of(t) for t in batch]
        Xs = [_draw(spec, rng, m) for rng in rngs]
        samples = [Dataset(X, hstar.predict_many(X)) for X in Xs]
        yield from zip(batch, rngs, fit_version_spaces(samples, concept, interior_hint(hstar)))


def _run_trial(
    trial: int,
    trial_seed: int,
    rng: np.random.Generator,
    vs: VersionSpace,
    hstar: Hypothesis,
    sampler: DistributionSpec,
    budget: float,
    kind: LossKind,
    strategy: str,
) -> tuple[bool, dict | None]:
    """The rest of a trial, on its fitted version space, with the generator
    that drew its sample."""
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
    """Trials lo..hi-1 of `verify_contract`: the certified count and the
    witnesses.  Trial t draws its sample, and then the rest of the trial,
    from derive_rng(seed ^ t) (`fitted_trials`)."""
    concept, hstar, sampler, m, budget, kind, strategy, seed, lo, hi = args
    certified = 0
    witnesses: list[dict] = []
    for t, rng, vs in fitted_trials(concept, hstar, sampler, m, range(lo, hi),
                                    lambda t: derive_rng(seed ^ t)):
        binding, bad = _run_trial(t, (seed ^ t) & 0xFFFFFFFFFFFFFFFF, rng, vs, hstar, sampler,
                                  budget, kind, strategy)
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
    if not 0.0 <= budget < math.inf:
        raise ValueError("attack budget must be nonnegative and finite")
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
