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
the disagreement distance; a defensive runtime sample of the certified
balls fails loudly if that structural fact is ever violated.  Both
certificate paths end in one finish, `_certificates`: the CA/TL radii,
that ball check (`_check_balls`) and the abstentions.  Both feed it the
codes and distances of one `version_space.stack_query` call and a stack of
spaces: `certify_many` of one space (`as_stack([vs])`, its one gather)
and its points, whose ball check draws every row from one generator per
call (`certify` is its one-row call), and the attack trials of row i
against space i of their fitted stack, whose ball checks each draw from
their trial's own stream, so a trial's certificate is its one-row
`certify`.

`verify_contract` fits its trials in sub-batches of `fit_batch` trials and
finishes them in runs of whole sub-batches (`_runs`) of at most
SR_CHUNK_ELEMS // (m d) trials.  A run is one stack of padded arrays
(`version_space.ConeStack` or `IntervalStack`) from the draws to the
report, with no per-trial dataset, hypothesis or version-space object.
The trial keys and their ball-check keys are mixed in one uint64 pass each
(`_mix64_many`).  `fitted_batches` draws the trials' samples, each from
the trial's own generator, straight into one (K, m, d) stack, labels it
with one call of the target and fits it in one pass (`fit_stack`), in
which a linear target's normal orders the ray build and is no member;
`join_stacks` joins a run's stacks.  `_finish_trials` draws the learners
as one array (`random_members`), the natural points straight into one
array and the attacks per trial, makes one blocked pass over the natural
points for the attack directions (`attack_directions`) and one over the
attacked points for the certificates (`stack_query`), labels the points
with one call of the target and one row-wise pass for the learners
(`member_labels`), and forms losses and witnesses as arrays.
`sr_membership_mask` decides safely-reliable membership for a stack of
fitted spaces and their points at once (a mask of `stack_query`); the mass
estimators call it once per block of trials.

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
    _mix64,
    _mix64_many,
    derive_rng,
    dimension,
    keyed_rngs,
    map_trial_chunks,
    uniform_balls,
)
from .losses import LossKind, losses_from_labels
from .version_space import (
    SR_CHUNK_ELEMS,
    ConceptClass,
    VersionSpace,
    _random_unit,
    as_stack,
    attack_directions,
    check_target,
    check_width,
    fit_batch,
    fit_stack,
    join_stacks,
    member_labels,
    random_members,
    stack_query,
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


def _check_balls(vss, members: np.ndarray, Z: np.ndarray, radii: np.ndarray,
                 labels: np.ndarray, rngs) -> None:
    """BALL_CONSTANCY_SAMPLES uniform points in each open ball B(Z[i],
    radii[i]) must all get labels[i] from members[i], members of the class
    of the stack vss (`member_labels`), or the first row that fails raises.
    Row i draws from the i-th generator of the iterator `rngs`, in row
    blocks of at most SR_CHUNK_ELEMS coordinates."""
    k, d = Z.shape
    n = BALL_CONSTANCY_SAMPLES
    step = max(1, SR_CHUNK_ELEMS // (n * d))
    for lo in range(0, k, step):
        hi = lo + step
        balls = uniform_balls(rngs, n, d, radii[lo:hi] * (1.0 - 1e-9))
        balls += Z[lo:hi, None, :]
        bad = member_labels(vss, members[lo:hi], balls) != labels[lo:hi, None]
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


def _certificates(kind: LossKind, labels: np.ndarray, radii: np.ndarray | None, vss,
                  Z: np.ndarray, rngs_of) -> tuple[np.ndarray, np.ndarray]:
    """The certificates of rows Z[i] from their codes `labels` and, for
    stability, their distances `radii` (unread for CA and TL, whose radii
    are +inf), against the stack vss (`as_stack`): one space for every row,
    or vss[i] for row i.  Stability rows with a positive radius pass the
    ball check by their spaces' canonical members, drawing from
    rngs_of(rows); abstentions get radius -1."""
    if kind is not LossKind.ST:
        return labels, np.where(labels != 0, math.inf, -1.0)
    rows = np.flatnonzero(radii > 0.0)
    if rows.size:
        vss = as_stack(vss)
        members = vss.canonical[rows if len(vss) > 1 else np.zeros_like(rows)]
        _check_balls(vss, members, Z[rows], radii[rows], labels[rows], rngs_of(rows))
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
    one = as_stack([vs])
    codes, dist = stack_query(one, Z[None])
    return _certificates(kind, codes[0], dist[0], one, Z,
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
    vss,
    hstar: Hypothesis | None,
    T,
    eta1: float,
    eta2: float,
    kind: LossKind,
) -> np.ndarray:
    """Safely-reliable membership of the points T[k] (n, d) of a stack T
    (K, n, d) in the region of vss[k], K fitted spaces of one class (a
    stack, or a list: `as_stack`), as (K, n) bool (see
    `safely_reliable_membership` for the regions).

    Stability and true-label compare the disagreement distance with
    eta1 + eta2 or eta1 (plain agreement when that is 0).  The
    constrained-adversary region is the agreed points whose same-label
    cap of the eta1-ball stays unanimous.  One `version_space.stack_query`
    pass decides every row, and row k is the mask of the one-space
    call sr_membership_mask([vss[k]], hstar, T[k:k+1], ...).
    """
    if not (0.0 <= eta1 < math.inf and 0.0 <= eta2 < math.inf):
        raise ValueError("attack strengths must be nonnegative and finite")
    vss = as_stack(vss)
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or T.shape[0] != len(vss):
        raise ValueError(f"points must form a (K, n, d) stack for K = {len(vss)} version "
                         f"spaces, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError("point coordinates must be finite")
    if len(vss):
        check_width(vss, T[0])
    if kind is LossKind.CA:
        if hstar is None:
            raise ValueError("the constrained-adversary region needs the target concept")
        return stack_query(vss, T, hstar=hstar, eta=eta1)
    return stack_query(vss, T, need=eta1 + eta2 if kind is LossKind.ST else eta1)


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
    return bool(sr_membership_mask([vs], hstar, x[None, None, :], eta1, eta2, kind)[0, 0])


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
    concept: ConceptClass, hstar: Hypothesis, spec: DistributionSpec, m: int, trials: range,
    rngs_of,
):
    """(batch, rngs, vss) for each sub-batch of `fit_batch(m, d)` trials:
    rngs = rngs_of(batch), an iterable of the trials' generators, of which
    one is taken just before each trial draws its m training points from
    spec, and vss the stack of version spaces (`fit_stack`), vss[i] fitted
    to the points of batch[i].  A list of fresh generators lives on after
    the draws; a re-keyed iterator (`derived_rngs`) does not.  The draws,
    each through `_draw` from the trial's own generator, go straight into
    one (K, m, d) stack, which hstar labels in one call and `fit_stack`
    fits in one pass, its rows ordered by the normal of a linear target,
    which is no member (its callers have checked the pair:
    `check_target`).  Each trial draws only from its own generator and a
    stacked fit is the same bits as a one-sample fit, so the results are
    those of a loop that fits one trial at a time."""
    d = dimension(spec)
    step = fit_batch(m, d)
    hint = hstar.w if concept == "linear" else None
    for i in range(0, len(trials), step):
        batch = trials[i : i + step]
        rngs = rngs_of(batch)
        X = np.empty((len(batch), m, d))
        for x, rng in zip(X, rngs):
            _draw(spec, rng, m, x)
        y = hstar.predict_many(X.reshape(-1, d)).reshape(X.shape[:2])
        check_labelled(X, y)
        yield batch, rngs, fit_stack(X, y, concept, hint)


def _runs(batches, cap: int):
    """The (batch, rngs, vss) of `fitted_batches` joined into runs of
    consecutive sub-batches of at most `cap` trials (one sub-batch at
    least): the trials' range, their generators in a list, and one stack
    (`join_stacks`).  The sub-batches' own stacks are dropped before a run
    is yielded."""

    def joined(run):
        out = (range(run[0][0].start, run[-1][0].stop), [r for _, rngs, _ in run for r in rngs],
               join_stacks([vss for _, _, vss in run]))
        run.clear()
        return out

    run: list = []
    for item in batches:
        if run and item[0].stop - run[0][0].start > cap:
            yield joined(run)
        run.append(item)
    if run:
        yield joined(run)


# witness reasons, by the code `_finish_trials` gives each trial (0: none)
_REASONS = (
    None,
    "loss violated inside certified radius",
    "issued prediction wrong at certified point",
    "issued prediction wrong at radius-zero point",
)


def _finish_trials(batch: range, seeds: list, balls: np.ndarray, rngs: list, vss,
                   hstar: Hypothesis, sampler: DistributionSpec, budget: float, kind: LossKind,
                   strategy: str) -> tuple[int, list[dict]]:
    """The rest of the fitted trials `batch` of `verify_contract`, the
    stack vss, each drawing from the generator that drew its sample: the
    certified count and the witnesses, in trial order.

    Every trial draws its learner (`random_members`, one array for the
    run), then its natural point x, straight into one array, then its
    attack (`_craft_attacks`).  The attacked points z are certified
    together, as a one-row `certify(vss[i], z, seed=seeds[i])` of each
    trial would, the ball check of trial i drawing from the key balls[i] =
    _mix64(seeds[i], 101).  A trial is certified when its radius exceeds
    |z - x| (open balls); then the learner's loss at z and the issued
    prediction are checked against the target.  A trial whose radius is 0
    must still predict the target's label at z.  The target labels every
    z, and the natural points of the certified trials, in one call each,
    and the learners label their z in one row-wise pass (`member_labels`):
    no hypothesis is built per trial."""
    learners = random_members(vss, rngs)
    X = np.empty((len(vss), dimension(sampler)))
    for x, rng in zip(X, rngs):
        _draw(sampler, rng, 1, x[None])
    Z = _craft_attacks(vss, X, budget, strategy, rngs, batch)
    codes, dist = stack_query(vss, Z[:, None])
    labels, radii = _certificates(kind, codes[:, 0], dist[:, 0], vss, Z,
                                  lambda rows: keyed_rngs(balls[rows]))
    dist = np.array([math.sqrt(v @ v) for v in Z - X])  # each |z - x| as np.linalg.norm makes it
    binding = radii > dist
    hz = hstar.predict_many(Z)
    wrong = labels != hz
    loss = np.zeros(len(vss), dtype=bool)
    rows = np.flatnonzero(binding)
    if rows.size:
        learned = member_labels(vss, learners[rows], Z[rows, None])[:, 0]
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
    from the key _mix64(_mix64(seed), t), its `trial_seed` (`_mix64` of two
    small words repeats keys across nearby seeds); the trial keys and their
    ball-check keys are mixed in one array pass each (`_mix64_many`).  Runs
    of fitted sub-batches (`_runs`) of at most SR_CHUNK_ELEMS // (m d)
    trials are finished together (`_finish_trials`)."""
    concept, hstar, sampler, m, budget, kind, strategy, seed, lo, hi = args
    keys = _mix64_many(_mix64(seed), np.arange(lo, hi, dtype=np.uint64))
    balls = _mix64_many(keys, 101)
    seeds = keys.tolist()
    cap = max(1, SR_CHUNK_ELEMS // max(m * dimension(sampler), 1))
    certified = 0
    witnesses: list[dict] = []
    batches = fitted_batches(
        concept, hstar, sampler, m, range(lo, hi),
        lambda batch: [derive_rng(k) for k in seeds[batch.start - lo : batch.stop - lo]])
    for batch, rngs, vss in _runs(batches, cap):
        rows = slice(batch.start - lo, batch.stop - lo)
        count, bad = _finish_trials(batch, seeds[rows], balls[rows], rngs, vss, hstar, sampler,
                                    budget, kind, strategy)
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
    check_target(concept, hstar)
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
