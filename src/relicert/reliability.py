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
structural fact is ever violated.  Both certificate paths end in one
finish, `_certificates`: the CA/TL radii, that ball check (`_check_balls`)
and the abstentions.  `certify_many` feeds it one space's membership and
distance passes, and its ball check draws every row from one generator per
call; `certify` is its one-row call.  The attack trials feed it one
`paired_geometry` pass, and each row's ball check draws from its trial's
own stream, so a trial's certificate is its one-row `certify`.

`verify_contract` runs its trials in sub-batches of `fit_batch` trials, and
a sub-batch is a stack of arrays from the draws to the report, with no
per-trial dataset or hypothesis object.  `fitted_batches` puts the trials'
samples, each drawn from the trial's own generator, in one (K, m, d) stack,
labels it with one call of the target and fits it in one pass
(`fit_stack`).  `_finish_trials` draws the learners as one array
(`random_members`), the natural points and attacks per trial, makes one
`paired_geometry` pass over the natural points for the attack directions and
one over the attacked points for the certificates, labels the points with
one call of the target and one row-wise pass for the learners
(`member_labels`), and forms losses and witnesses as arrays.

All geometry goes through the version-space methods listed in
`version_space`; nothing here depends on the representation.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import (
    Hypothesis,
    LinearHomogeneous,
    _as_point,
    check_labelled,
    label_to_external,
)
from .distributions import (
    DistributionSpec,
    _draw,
    derive_rng,
    derived_rngs,
    dimension,
    map_trial_chunks,
    uniform_balls,
)
from .losses import LossKind, _check_pair, losses_from_labels
from .version_space import (
    SR_CHUNK_ELEMS,
    ConceptClass,
    VersionSpace,
    _random_unit,
    attack_directions,
    check_width,
    fit_batch,
    fit_stack,
    interior_hint,
    member_labels,
    paired_geometry,
    random_members,
)
# not called here: perfbench's layer tracer wraps these one-point forms, so
# they report 0 calls, where a missing name would report its metrics absent
from .losses import fixed_loss  # noqa: F401
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


def _check_balls(vs: VersionSpace, members: np.ndarray, Z: np.ndarray, radii: np.ndarray,
                 labels: np.ndarray, rngs) -> None:
    """BALL_CONSTANCY_SAMPLES uniform points in each open ball B(Z[i],
    radii[i]) must all get labels[i] from members[i] (`member_labels`), or
    the first row that fails raises.  Row i draws from the i-th generator
    of the iterator `rngs`, in row blocks of at most SR_CHUNK_ELEMS
    coordinates."""
    k, d = Z.shape
    n = BALL_CONSTANCY_SAMPLES
    step = max(1, SR_CHUNK_ELEMS // (n * d))
    for lo in range(0, k, step):
        hi = lo + step
        balls = uniform_balls(rngs, n, d, radii[lo:hi] * (1.0 - 1e-9))
        balls += Z[lo:hi, None, :]
        bad = member_labels(vs, members[lo:hi], balls) != labels[lo:hi, None]
        if bad.any():
            i = lo + int(np.argmax(bad.any(axis=1)))
            raise LabelConstancyError(f"certified ball of radius {radii[i]} around {Z[i]} "
                                      "contains both labels")


def _as_rows(Z) -> np.ndarray:
    """Z as a finite (n, d) float array."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.ndim != 2:
        raise ValueError(f"points must form an (n, d) array, got shape {Z.shape}")
    if not np.isfinite(Z).all():
        raise ValueError("point coordinates must be finite")
    return Z


def _certificates(kind: LossKind, labels: np.ndarray, radii: np.ndarray | None, vss: list,
                  Z: np.ndarray, rngs_of) -> tuple[np.ndarray, np.ndarray]:
    """The certificates of rows Z[i] of the spaces vss[i] from their codes
    `labels` and, for stability, their distances `radii` (unread for CA and
    TL, whose radii are +inf).  Stability rows with a positive radius pass
    the ball check by their canonical members, drawing from rngs_of(rows);
    abstentions get radius -1."""
    if kind is not LossKind.ST:
        return labels, np.where(labels != 0, math.inf, -1.0)
    rows = np.flatnonzero(radii > 0.0)
    if rows.size:
        _check_balls(vss[0], np.array([vss[i].canonical for i in rows]), Z[rows], radii[rows],
                     labels[rows], rngs_of(rows))
    radii[labels == 0] = -1.0
    return labels, radii


def certify_many(
    vs: VersionSpace, Z, kind: LossKind, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and reliability radii for every row of Z at once.

    Returns the labels (int8: +1, -1, or 0 for an abstention) and the radii
    (-1 on abstentions, +inf on the rest for CA and TL).  The stability
    radius is the disagreement distance, and its ball check draws every row
    from one generator per call, derive_rng(seed, 101).
    """
    Z = _as_rows(Z)
    check_width(vs, Z)
    labels = vs.membership_many(Z)
    radii = vs.dis_distance_many(Z, labels) if kind is LossKind.ST else None
    return _certificates(kind, labels, radii, [vs] * len(Z), Z,
                         lambda rows: itertools.repeat(derive_rng(seed, 101)))


def certify(vs: VersionSpace, z, kind: LossKind, *, seed: int = 0) -> ReliabilityCertificate:
    """Prediction plus reliability radius at z for the given loss: the
    one-row call of `certify_many`."""
    labels, radii = certify_many(vs, _as_point(z)[None, :], kind, seed=seed)
    return ReliabilityCertificate(int(labels[0]) or None, float(radii[0]), kind, "analytic")


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


# ---------------------------------------------------------------------------
# adversarial contract verification
# ---------------------------------------------------------------------------

STRATEGIES = ("boundary-directed", "random-ball", "grid")
MAX_WITNESSES = 100  # most witnesses a report lists; `violations` counts them all


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


def _craft_attacks(vss: list, X: np.ndarray, budget: float, strategy: str, rngs: list,
                   trials) -> np.ndarray:
    """The attacked point of each row X[i] within `budget`: a direction, then
    a step length, drawn from the row's own generator rngs[i].  Random-ball
    draws a random unit and a radius fraction, boundary-directed steps along
    `attack_directions` by a random fraction of the budget, and grid takes
    the direction and fraction that trials[i] indexes."""
    d = X.shape[1]
    if strategy == "random-ball":
        D = np.array([_random_unit(rng, d) for rng in rngs])
        step = [budget * rng.random() ** (1.0 / d) for rng in rngs]
    elif strategy == "boundary-directed":
        D = attack_directions(vss, X, rngs)
        step = [budget * rng.random() for rng in rngs]
    elif strategy == "grid":
        dirs = np.vstack([np.eye(d), -np.eye(d), np.ones((1, d)) / math.sqrt(d),
                          -np.ones((1, d)) / math.sqrt(d)])
        D = dirs[np.asarray(trials) % dirs.shape[0]]
        step = [budget * _GRID_FRACTIONS[t % len(_GRID_FRACTIONS)] for t in trials]
    else:
        raise ValueError(f"unknown attack strategy {strategy!r}")
    return X + np.asarray(step)[:, None] * D


def fitted_batches(
    concept: ConceptClass, hstar: Hypothesis, spec: DistributionSpec, m: int, trials: range, rng_of
):
    """(batch, rngs, vss) for each sub-batch of `fit_batch(m, d)` trials:
    rngs[i] = rng_of(batch[i]), after it drew the trial's m training points
    from spec, and vss[i] the version space fitted to them.  The draws,
    each through `_draw` from the trial's own generator, fill one (K, m, d)
    stack, which hstar labels in one call and `fit_stack` fits in one pass,
    hinted by `interior_hint(hstar)`.  Each trial draws only from its own
    generator and a stacked fit is the same bits as a one-sample fit, so
    the results are those of a loop that fits one trial at a time."""
    d = dimension(spec)
    step = fit_batch(m, d)
    hint = interior_hint(hstar)
    for i in range(0, len(trials), step):
        batch = trials[i : i + step]
        rngs = [rng_of(t) for t in batch]
        X = np.stack([_draw(spec, rng, m) for rng in rngs])
        y = hstar.predict_many(X.reshape(-1, d)).reshape(X.shape[:2])
        check_labelled(X, y)
        yield batch, rngs, fit_stack(X, y, concept, hint)


# witness reasons, by the code `_finish_trials` gives each trial (0: none)
_REASONS = (
    None,
    "loss violated inside certified radius",
    "issued prediction wrong at certified point",
    "issued prediction wrong at radius-zero point",
)


def _finish_trials(batch: range, seeds: list, rngs: list, vss: list, hstar: Hypothesis,
                   sampler: DistributionSpec, budget: float, kind: LossKind,
                   strategy: str) -> tuple[int, list[dict]]:
    """The rest of the fitted trials `batch` of `verify_contract`, each
    drawing from the generator that drew its sample: the certified count
    and the witnesses, in trial order.

    Every trial draws its learner (`random_members`, one array for the
    sub-batch), then its natural point x, then its attack
    (`_craft_attacks`).  The attacked points z are certified together, as
    a one-row `certify(vss[i], z, seed=seeds[i])` of each trial would.  A
    trial is certified when its radius exceeds |z - x| (open balls); then
    the learner's loss at z and the issued prediction are checked against
    the target.  A trial whose radius is 0 must still predict the target's
    label at z.  The target labels every z, and the natural points of the
    certified trials, in one call each, and the learners label their z in
    one row-wise pass (`member_labels`): no hypothesis is built per
    trial."""
    learners = random_members(vss, rngs)
    X = np.concatenate([_draw(sampler, rng, 1) for rng in rngs])
    Z = _craft_attacks(vss, X, budget, strategy, rngs, batch)
    labels, radii, _ = paired_geometry(vss, Z)
    labels, radii = _certificates(kind, labels, radii, vss, Z,
                                  lambda rows: derived_rngs([seeds[i] for i in rows], 101))
    dist = np.array([math.sqrt(v @ v) for v in Z - X])  # each |z - x| as np.linalg.norm makes it
    binding = radii > dist
    hz = hstar.predict_many(Z)
    wrong = labels != hz
    loss = np.zeros(len(vss), dtype=bool)
    rows = np.flatnonzero(binding)
    if rows.size:
        _check_pair(vss[0].canonical_member(), hstar)
        learned = member_labels(vss[0], learners[rows], Z[rows, None])[:, 0]
        loss[rows] = losses_from_labels(kind, learned, hz[rows], hstar.predict_many(X[rows])) != 0
    reason = np.select(
        [binding & loss, binding & wrong, ~binding & (radii >= 0.0) & wrong], [1, 2, 3], 0
    )
    witnesses = [
        {
            "trial": batch[i],
            "trial_seed": seeds[i],
            "reason": _REASONS[reason[i]],
            "x": X[i].tolist(),
            "z": Z[i].tolist(),
            "distance": float(dist[i]),
            "radius": float(radii[i]) if not math.isinf(radii[i]) else "inf",
            "prediction": label_to_external(int(labels[i])),
        }
        for i in np.flatnonzero(reason)
    ]
    return int(binding.sum()), witnesses


def _run_trial_range(args) -> tuple[int, list[dict]]:
    """Trials lo..hi-1 of `verify_contract`: the certified count and the
    witnesses.  Trial t draws its sample, and then the rest of the trial,
    from derive_rng(seed ^ t) (`fitted_batches`), and each sub-batch of
    fitted trials is finished together (`_finish_trials`)."""
    concept, hstar, sampler, m, budget, kind, strategy, seed, lo, hi = args
    certified = 0
    witnesses: list[dict] = []
    for batch, rngs, vss in fitted_batches(concept, hstar, sampler, m, range(lo, hi),
                                           lambda t: derive_rng(seed ^ t)):
        seeds = [(seed ^ t) & 0xFFFFFFFFFFFFFFFF for t in batch]
        count, bad = _finish_trials(batch, seeds, rngs, vss, hstar, sampler, budget, kind,
                                    strategy)
        certified += count
        witnesses += bad
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
) -> ViolationReport:
    """Empirical check of the reliability contract.

    Per trial: draw a training sample, fit, draw a natural point, craft an
    attack within `budget`, certify the attacked point, and whenever the
    issued radius exceeds the attack distance evaluate the loss against the
    target concept.  Any nonzero loss inside a certified radius is recorded
    as a violation with full reproduction data.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
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
        witnesses=witnesses[:MAX_WITNESSES],
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
