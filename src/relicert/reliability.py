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
the disagreement distance; a defensive runtime sample of the certified ball
fails loudly if that structural fact is ever violated.
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
    OffsetBoundary,
    Threshold,
    _as_point,
    label_to_external,
    predict,
)
from .distributions import DistributionSpec, _draw, derive_rng
from .losses import LossKind, fixed_loss
from .version_space import (
    AngleArcVS,
    ConceptClass,
    ConeVS,
    IntervalVS,
    Membership,
    OffsetClass,
    VersionSpace,
    agree_membership,
    canonical_member,
    cone_dis_direction,
    cone_dis_distance_info,
    fit_version_space,
)

log = logging.getLogger(__name__)

BALL_CONSTANCY_SAMPLES = 64


class LabelConstancyError(AssertionError):
    """A certified ball contained two different unanimous labels."""


@dataclass(frozen=True)
class ReliabilityCertificate:
    prediction: int | None  # +1 / -1, or None when abstaining
    radius: float  # -1.0, a nonnegative real, or +inf
    loss_model: LossKind
    method: str  # analytic | bisection | margin

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
    preds = canonical_member(vs).predict_many(pts)
    if np.any(preds != label):
        raise LabelConstancyError(
            f"certified ball of radius {radius} around {z} contains both labels"
        )


def certify(vs: VersionSpace, z, kind: LossKind, *, seed: int = 0) -> ReliabilityCertificate:
    """Prediction plus reliability radius at z for the given loss."""
    z = _as_point(z)
    member = agree_membership(vs, z)
    if member is Membership.DISAGREE:
        return ReliabilityCertificate(None, -1.0, kind, "analytic")
    label = 1 if member is Membership.AGREE_PLUS else -1
    if kind in (LossKind.CA, LossKind.TL):
        return ReliabilityCertificate(label, math.inf, kind, "analytic")
    # stability: radius = distance to the disagreement region
    if isinstance(vs, ConeVS):
        info = cone_dis_distance_info(vs, z, 1 if label > 0 else -1, seed=seed)
        radius = info.value
    elif isinstance(vs, AngleArcVS) and vs.width <= 0.0:
        # singleton version space: the label-constancy condition binds instead
        radius = float(abs(canonical_member(vs).margins(z[None, :])[0]))
    else:
        radius = float(vs.dis_distance_many(z[None, :])[0])
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


SR_CHUNK_ELEMS = 1 << 18  # points x rays per block of the cone cap test


def _cap_rays(vs: AngleArcVS | ConeVS) -> np.ndarray:
    """Normals whose conic hull holds every consistent normal: the arc's
    endpoints and midpoint, or the cone's candidate bank."""
    if isinstance(vs, AngleArcVS):
        h_lo, h_hi = vs.endpoint_hypotheses()
        return np.vstack([h_lo.w, canonical_member(vs).w, h_hi.w])
    bank = vs.candidate_bank()
    if not bank.exhaustive:
        log.debug("constrained-adversary cap test on a sampled (non-exhaustive) bank")
    return bank.W


def _caps_stay_unanimous(
    rays: np.ndarray, hstar: LinearHomogeneous, X: np.ndarray, eta: float
) -> np.ndarray:
    """Per point x: whether the part of B(x, eta) sharing the target label y
    keeps <w, y*z> >= 0 for every ray w (sufficient on the rays' conic hull
    because the cap minimum is superadditive in w).

    With u = y*w and a = y*w*, the minimum of <u, z> over B(x, eta) cut by
    {a.z >= 0} is <u, x> - eta*|u| when the free minimiser x - eta*u/|u|
    lies in the cut, and otherwise sits on the face a.z = 0.  Rays enter
    only through |w|, w.w* and |w - (w.w*) w*|; points only through x.w
    and x.w*.
    """
    wstar = hstar.w
    nu = np.linalg.norm(rays, axis=1)
    ua = rays @ wstar  # u.a for either label
    ut = np.linalg.norm(rays - ua[:, None] * wstar[None, :], axis=1)
    step = eta / nu
    ok = np.ones(X.shape[0], dtype=bool)
    size = max(1, SR_CHUNK_ELEMS // max(rays.shape[0], 1))
    for lo in range(0, X.shape[0], size):
        Xc = X[lo : lo + size]
        s = hstar.margins(Xc)
        y = np.where(s >= 0.0, 1.0, -1.0)
        ax = y * s  # a.x >= 0: the cap is never empty
        ux = y[:, None] * (Xc @ rays.T)
        free = ax[:, None] - step[None, :] * ua[None, :] >= 0.0
        beta = np.maximum(-ax, -eta)  # move this far along a to reach a.z = 0
        rad = np.sqrt(np.maximum(eta * eta - beta * beta, 0.0))
        face = ux + beta[:, None] * ua[None, :] - rad[:, None] * ut[None, :]
        low = np.where(free, ux - eta * nu[None, :], face)
        ok[lo : lo + size] = ~np.any(low < 0.0, axis=1)
    return ok


def _ca_cap_mask(
    vs: VersionSpace, hstar: Hypothesis, X: np.ndarray, eta1: float
) -> np.ndarray:
    """Constrained adversary: whether the eta1-ball's part with the target
    label of x stays unanimous, for every point (agreement not checked)."""
    if isinstance(vs, IntervalVS):
        if not isinstance(hstar, (Threshold, OffsetBoundary)):
            raise ValueError("target concept does not match the version space")
        cut = hstar.t if isinstance(hstar, Threshold) else hstar.offset
        y = hstar.predict_many(X)
        u_x = vs.coords(X)
        reach = eta1 / vs._scale  # residual reach of the eta1 point ball
        cap_lo = np.where(y > 0, np.maximum(u_x - reach, cut), u_x - reach)
        cap_hi = np.where(y > 0, u_x + reach, np.minimum(u_x + reach, cut))
        return ~((cap_lo < vs.hi) & (cap_hi > vs.lo))
    if not isinstance(hstar, LinearHomogeneous):
        raise ValueError("target concept does not match the version space")
    return _caps_stay_unanimous(_cap_rays(vs), hstar, X, eta1)


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

    Stability and true-label compare the disagreement distance with
    eta1 + eta2 or eta1 (plain agreement when that is 0).  The distance is
    batched for intervals and arcs, and still computed per agreed point for
    cones (`cone_dis_distance_info`, with `seed`).  The constrained-adversary
    cap test is closed form for intervals and one points x rays array for
    arcs and cones, built in blocks of at most SR_CHUNK_ELEMS entries.
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
        mask[mask] = _ca_cap_mask(vs, hstar, X[mask], eta1)
        return mask
    need = eta1 + eta2 if kind is LossKind.ST else eta1
    if need == 0.0:
        return vs.membership_many(X) != 0
    if isinstance(vs, ConeVS):
        codes = vs.membership_many(X)
        dist = np.zeros(X.shape[0])
        for i in np.flatnonzero(codes):
            dist[i] = cone_dis_distance_info(vs, X[i], int(codes[i]), seed=seed).value
        return dist >= need
    # interval and arc distances are 0 on the disagreement region
    return vs.dis_distance_many(X) >= need


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


def _margin_feasible(norm_z: float, margin: float, alpha: float, c1: float,
                     eps: float, d: int, eta: float) -> bool:
    root_d = math.sqrt(d)
    return norm_z < alpha * root_d - eta and margin >= c1 * alpha * eps * root_d + eta


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


def margin_certify_halving(
    h_erm: LinearHomogeneous,
    z,
    eps: float,
    d: int | None = None,
    alpha: float | None = None,
    c1: float = 1.0,
    tol: float = 1e-12,
) -> float:
    """The same quantity located by halving search on the feasibility
    predicate (parity path for the closed form)."""
    if not isinstance(h_erm, LinearHomogeneous):
        raise ValueError("the margin certifier needs a linear hypothesis")
    z = _as_point(z, dim=h_erm.dimension)
    if d is None:
        d = z.shape[0]
    if alpha is None:
        alpha = margin_alpha(eps, d)
    norm_z = float(np.linalg.norm(z))
    margin = float(abs(h_erm.margins(z[None, :])[0]))

    def ok(eta: float) -> bool:
        return _margin_feasible(norm_z, margin, alpha, c1, eps, d, eta)

    if not ok(0.0):
        return -1.0
    lo, hi = 0.0, 0.5
    while ok(hi):
        lo, hi = hi, hi * 2.0
        if hi > 4.0 * alpha * math.sqrt(d):
            break
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def margin_certificate(
    h_erm: LinearHomogeneous,
    z,
    eps: float,
    d: int | None = None,
    alpha: float | None = None,
    c1: float = 1.0,
    method: str = "margin",
) -> ReliabilityCertificate:
    """Wrap the margin certifier into a stability-loss certificate."""
    if method == "margin":
        eta = margin_certify(h_erm, z, eps, d=d, alpha=alpha, c1=c1)
    elif method == "bisection":
        eta = margin_certify_halving(h_erm, z, eps, d=d, alpha=alpha, c1=c1)
    else:
        raise ValueError(f"unknown margin method {method!r}")
    if eta < 0.0:
        return ReliabilityCertificate(None, -1.0, LossKind.ST, method)
    return ReliabilityCertificate(predict(h_erm, z), eta, LossKind.ST, method)


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


def _random_consistent(vs: VersionSpace, rng: np.random.Generator) -> Hypothesis:
    """A consistent hypothesis drawn away from the version-space boundary;
    the certified contract must hold for any consistent learner output."""
    u = 0.02 + 0.96 * rng.random()
    if isinstance(vs, IntervalVS):
        if math.isinf(vs.lo) and math.isinf(vs.hi):
            t = rng.standard_normal()
        elif math.isinf(vs.lo):
            t = vs.hi - rng.random()
        elif math.isinf(vs.hi):
            t = vs.lo + rng.random()
        else:
            t = vs.lo + u * (vs.hi - vs.lo)
        return OffsetBoundary(vs.base, t) if vs.base is not None else Threshold(t)
    if isinstance(vs, AngleArcVS):
        phi = vs.phi_lo + u * vs.width if vs.width > 0.0 else vs.phi_lo
        return LinearHomogeneous(np.array([math.cos(phi), math.sin(phi)]))
    w0 = vs.interior
    if vs.A.shape[0] == 0:
        g = rng.standard_normal(vs.dim)
        return LinearHomogeneous(g)
    slack = float(np.min(vs.A @ w0))
    g = rng.standard_normal(vs.dim)
    g /= max(float(np.linalg.norm(g)), 1e-300)
    w = w0 + 0.45 * slack * rng.random() * g
    return LinearHomogeneous(w)


def _attack_direction(vs: VersionSpace, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit direction from x toward (approximately) the nearest disputed point."""
    d = x.shape[0]
    if isinstance(vs, IntervalVS):
        u_x = float(vs.coords(x[None, :])[0])
        direction = np.zeros(d)
        if u_x >= vs.hi:
            direction[-1] = -1.0
        elif u_x <= vs.lo:
            direction[-1] = 1.0
        else:
            direction[-1] = 1.0 if rng.random() < 0.5 else -1.0
        return direction
    if isinstance(vs, AngleArcVS):
        h_lo, h_hi = vs.endpoint_hypotheses()
        m_lo = float(h_lo.margins(x[None, :])[0])
        m_hi = float(h_hi.margins(x[None, :])[0])
        w, m = (h_lo.w, m_lo) if abs(m_lo) <= abs(m_hi) else (h_hi.w, m_hi)
        if abs(m) < 1e-15:
            g = rng.standard_normal(d)
            return g / max(float(np.linalg.norm(g)), 1e-300)
        return -math.copysign(1.0, m) * w
    code = int(vs.membership_many(x[None, :])[0])
    if code == 0:
        g = rng.standard_normal(d)
        return g / max(float(np.linalg.norm(g)), 1e-300)
    _, direction = cone_dis_direction(vs, x, code)
    return direction


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
        direction = _attack_direction(vs, x, rng)
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
    hint = hstar.w if isinstance(hstar, LinearHomogeneous) else None
    vs = fit_version_space(S, concept, interior_hint=hint)
    h_learn = _random_consistent(vs, rng)
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
    lo, hi, concept, hstar, sampler, m, budget, kind, strategy, seed = args
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
    chunks = []
    if jobs <= 1:
        chunks.append((0, trials))
    else:
        size = max(1, (trials + jobs - 1) // jobs)
        chunks.extend((lo, min(lo + size, trials)) for lo in range(0, trials, size))
    args = [(lo, hi, concept, hstar, sampler, m, budget, kind, strategy, seed) for lo, hi in chunks]
    if jobs <= 1 or len(args) == 1:
        results = [_run_trial_range(a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_trial_range, args))
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
