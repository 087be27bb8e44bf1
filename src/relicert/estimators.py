"""Monte-Carlo estimators: region masses, the source-to-target disagreement
coefficient, and reliable correctness under distribution shift.

Confidence intervals are two-sided 95% Hoeffding bounds over the
independent units actually averaged: the training-sample draws of a
quantity averaged over refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Hypothesis, LinearHomogeneous, Threshold
from .distributions import (
    DistributionSpec,
    _draw,
    cdf_1d,
    derive_rng,
    is_rotation_invariant,
    map_trial_chunks,
    quantile_1d,
    sample,
)
from .losses import LossKind
from .reliability import fitted_batches, sr_membership_mask
from .version_space import ConceptClass, OffsetClass
# not called here: perfbench's layer tracer wraps the one-point form and the
# one-sample fit, so they report 0 calls instead of absent metrics
from .reliability import safely_reliable_membership  # noqa: F401
from .version_space import fit_version_space  # noqa: F401

CONFIDENCE = 0.95
ESTIMATE_CSV_HEADER = "quantity,class,loss,eta1,eta2,m,d,trials,n,mass,ci_low,ci_high,seed"


def hoeffding_halfwidth(n: int, confidence: float = CONFIDENCE) -> float:
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


@dataclass(frozen=True)
class RegionEstimate:
    mass: float
    ci_low: float
    ci_high: float
    n: int  # independent units behind the interval
    seed: int

    def __post_init__(self):
        if not (self.ci_low - 1e-12 <= self.mass <= self.ci_high + 1e-12):
            raise ValueError("point estimate must lie inside its interval")
        if self.ci_high - self.ci_low > 2.0 * hoeffding_halfwidth(self.n) + 1e-12:
            raise ValueError("interval wider than the Hoeffding bound allows")


def _estimate(mass: float, n: int, seed: int) -> RegionEstimate:
    hw = hoeffding_halfwidth(n)
    return RegionEstimate(
        mass=mass,
        ci_low=max(mass - hw, 0.0),
        ci_high=min(mass + hw, 1.0),
        n=n,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# safely-reliable mass
# ---------------------------------------------------------------------------


def sr_mass(
    concept: ConceptClass,
    hstar: Hypothesis,
    spec: DistributionSpec,
    m: int,
    eta1: float,
    eta2: float,
    kind: LossKind,
    trials: int,
    n_test: int,
    seed: int,
    jobs: int = 1,
) -> RegionEstimate:
    """Mean over fresh training draws of the safely-reliable test mass:
    `reliable_correctness` with the test distribution equal to the
    training one.

    Per-trial seeds are derived by counter, so the result is independent of
    the worker count."""
    return reliable_correctness(
        concept, hstar, spec, spec, m, trials, n_test, eta1, eta2, kind, seed, jobs=jobs
    )


# ---------------------------------------------------------------------------
# disagreement coefficient from source to target
# ---------------------------------------------------------------------------


def default_r_grid(epsilon: float, size: int = 16) -> np.ndarray:
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    return np.geomspace(epsilon, 0.5, size)


@dataclass(frozen=True)
class ThetaEstimate:
    value: float
    r_grid: np.ndarray
    masses: np.ndarray
    epsilon: float
    n: int
    seed: int
    method: str

    def __post_init__(self):
        grid = np.asarray(self.r_grid, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if grid.shape != masses.shape or grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid and masses must be matching 1-d arrays")
        if grid.min() < self.epsilon - 1e-12:
            raise ValueError("grid radii must be at least epsilon")
        if grid.max() > 1.0 + 1e-12:
            raise ValueError("grid radii must not exceed 1")
        if abs(self.value - float(np.max(masses / grid))) > 1e-9:
            raise ValueError("value must be the grid supremum of mass/r")
        object.__setattr__(self, "r_grid", grid)
        object.__setattr__(self, "masses", masses)

    @property
    def grid_resolution(self) -> int:
        return int(self.r_grid.size)


def _theta_rotinv(hstar: LinearHomogeneous, Q, grid, n, seed) -> np.ndarray:
    XQ = sample(Q, seed, n)
    norms = np.linalg.norm(XQ, axis=1)
    good = norms > 0.0
    c = np.zeros(XQ.shape[0])
    c[good] = (XQ[good] @ hstar.w) / norms[good]
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    rot = np.abs(math.pi / 2.0 - theta)
    masses = np.array([np.mean(good & (rot <= math.pi * r)) for r in grid])
    return masses


def _threshold_dis_interval(P, tstar: float, r: float) -> tuple[float, float]:
    """Extent of the disputed set of source-consistent-within-r thresholds.

    Quantiles saturate at the support edges: cut values beyond the source
    support are source-indistinguishable from the edge cut and the ball is
    taken as its clamped representatives (the convention under which the
    worked threshold examples hold)."""
    fc = cdf_1d(P, tstar)
    lo = quantile_1d(P, max(fc - r, 0.0))
    hi = quantile_1d(P, min(fc + r, 1.0))
    return lo, hi


def _cdf_at(Q, t: float) -> float:
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    return cdf_1d(Q, t)


def _quantile_band_masses(ref: np.ndarray, xq: np.ndarray, cut: float, grid) -> np.ndarray:
    """Per radius r: the share of xq strictly inside the band of reference
    quantiles F(cut) -/+ r, where F is the empirical CDF of ref."""
    ref = np.sort(ref)
    fc = float(np.searchsorted(ref, cut, side="right")) / ref.size
    masses = []
    for r in grid:
        lo = float(np.quantile(ref, max(fc - float(r), 0.0)))
        hi = float(np.quantile(ref, min(fc + float(r), 1.0)))
        masses.append(float(np.mean((xq > lo) & (xq < hi))))
    return np.array(masses)


def _theta_threshold(hstar: Threshold, P, Q, grid, n, seed) -> tuple[np.ndarray, str]:
    try:
        masses = []
        for r in grid:
            lo, hi = _threshold_dis_interval(P, hstar.t, float(r))
            masses.append(_cdf_at(Q, hi) - _cdf_at(Q, lo))
        return np.array(masses), "threshold-cdf"
    except ValueError:
        pass
    # no closed-form CDF: empirical interval from a reference sample
    ref = sample(P, seed ^ 0xA5A5, n)[:, 0]
    xq = sample(Q, seed, n)[:, 0]
    return _quantile_band_masses(ref, xq, hstar.t, grid), "threshold-empirical"


def _theta_offset(concept: OffsetClass, hstar, P, Q, grid, n, seed) -> np.ndarray:
    """Offsets of a fixed boundary behave as thresholds on the residual."""
    base = concept.base
    ref = sample(P, seed ^ 0xA5A5, n)
    xq = sample(Q, seed, n)
    return _quantile_band_masses(
        ref[:, -1] - base(ref[:, :-1]), xq[:, -1] - base(xq[:, :-1]), hstar.offset, grid
    )


def theta_pq(
    concept: ConceptClass,
    hstar: Hypothesis,
    P: DistributionSpec,
    Q: DistributionSpec,
    epsilon: float,
    r_grid=None,
    n: int = 100_000,
    seed: int = 0,
) -> ThetaEstimate:
    """Supremum over the radius grid of (target mass of the disputed region
    of the source disagreement ball) / radius."""
    if n < 1:
        raise ValueError("need at least one sample")
    grid = default_r_grid(epsilon) if r_grid is None else np.asarray(r_grid, dtype=float)
    if grid.min() < epsilon - 1e-12:
        raise ValueError("grid radii must be at least epsilon")
    if grid.max() > 1.0:
        raise ValueError("grid radii must not exceed 1")
    if concept == "linear" and isinstance(hstar, LinearHomogeneous):
        if not is_rotation_invariant(P):
            raise ValueError(
                "the linear path needs a rotationally invariant source distribution"
            )
        masses = _theta_rotinv(hstar, Q, grid, n, seed)
        method = "rotinv"
    elif concept == "threshold" and isinstance(hstar, Threshold):
        masses, method = _theta_threshold(hstar, P, Q, grid, n, seed)
    elif isinstance(concept, OffsetClass):
        masses = _theta_offset(concept, hstar, P, Q, grid, n, seed)
        method = "residual-empirical"
    else:
        raise ValueError(f"no supported path for concept {concept!r} with this spec pair")
    value = float(np.max(masses / grid))
    return ThetaEstimate(
        value=value, r_grid=grid, masses=masses, epsilon=epsilon, n=n, seed=seed, method=method
    )


# ---------------------------------------------------------------------------
# reliable correctness under distribution shift
# ---------------------------------------------------------------------------


def epsilon_for_sample_size(m: int, vc_dim: int, delta: float = 0.05, c: float = 8.0) -> float:
    """Uniform-convergence scale epsilon with m = ceil((c/eps^2)(vc + ln(1/delta)))."""
    if m < 1:
        raise ValueError("m must be positive")
    return math.sqrt(c * (vc_dim + math.log(1.0 / delta)) / m)


def sample_size_for_epsilon(eps: float, vc_dim: int, delta: float = 0.05, c: float = 8.0) -> int:
    return math.ceil(c * (vc_dim + math.log(1.0 / delta)) / (eps * eps))


def _shift_trial_mean(args) -> list[float]:
    """Per trial lo..hi-1 of `reliable_correctness`, the share of n_test
    fresh target draws in the (safely-)reliable region of the trial's fit.
    Trial t draws its training sample from derive_rng(seed, t, 0)
    (`fitted_batches`) and its target points from derive_rng(seed, t, 1)."""
    concept, hstar, P, Q, m, eta1, eta2, kind, n_test, seed, lo, hi = args
    out = []
    for batch, _, vss in fitted_batches(concept, hstar, P, m, range(lo, hi),
                                        lambda t: derive_rng(seed, t, 0)):
        for t, vs in zip(batch, vss):
            T = _draw(Q, derive_rng(seed, t, 1), n_test)
            if kind is None:
                out.append(float(np.mean(vs.membership_many(T) != 0)))
            else:
                out.append(float(np.mean(sr_membership_mask(vs, hstar, T, eta1, eta2, kind))))
    return out


def reliable_correctness(
    concept: ConceptClass,
    hstar: Hypothesis,
    P: DistributionSpec,
    Q: DistributionSpec,
    m: int,
    trials: int,
    n_test: int,
    eta1: float = 0.0,
    eta2: float = 0.0,
    kind: LossKind | None = None,
    seed: int = 0,
    labeled_test: Dataset | None = None,
    jobs: int = 1,
) -> RegionEstimate:
    """Probability that a target draw lands in the (safely-)reliable region
    learned from source data, averaged over training draws.

    With kind=None (and zero attack strengths) this is plain reliable
    correctness: the fraction of target draws in the agreement region.
    Passing a labeled target sample enforces the realizability premise.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if n_test < 1:
        raise ValueError("n_test must be positive")
    if kind is None and (eta1 != 0.0 or eta2 != 0.0):
        raise ValueError("plain reliable correctness is defined at zero attack strength")
    if labeled_test is not None and len(labeled_test):
        if np.any(hstar.predict_many(labeled_test.X) != labeled_test.y):
            raise ValueError("target data is not realizable by the given target concept")
    base = (concept, hstar, P, Q, m, eta1, eta2, kind, n_test, seed)
    parts = map_trial_chunks(_shift_trial_mean, base, trials, jobs)
    return _estimate(float(np.mean([v for part in parts for v in part])), trials, seed)


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------


def concept_name(concept: ConceptClass) -> str:
    if isinstance(concept, OffsetClass):
        return f"offset-{concept.base.kind}"
    return str(concept)


def estimate_csv_row(
    quantity: str,
    concept: ConceptClass,
    kind: LossKind | None,
    eta1: float,
    eta2: float,
    m: int,
    d: int,
    trials: int,
    n: int,
    est: RegionEstimate,
) -> str:
    loss = kind.value if kind is not None else "none"
    return (
        f"{quantity},{concept_name(concept)},{loss},{eta1!r},{eta2!r},{m},{d},"
        f"{trials},{n},{est.mass!r},{est.ci_low!r},{est.ci_high!r},{est.seed}"
    )
