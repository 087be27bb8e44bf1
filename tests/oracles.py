"""Independent brute-force oracles used across the test suite.

Everything here recomputes quantities from first principles (dense angle
grids, exhaustive SVD-based ray enumeration, interval scans) without using
the library's closed forms, so disagreements point at real bugs.

The robust losses as suprema over a perturbation set are references kept
here, not in the library, which evaluates losses only at fixed
perturbations.  For threshold and homogeneous linear rules under a closed
L2 ball (`MetricBall`) the supremum is exact: the ball is decided in exact
rational arithmetic on the coefficients, with sign(0) = +1, so a rule's
positive side is closed and its negative side open.  A ball that only
touches a disagreement region on an open face (where both rules predict +1)
scores 0, and with radius 0 every loss equals the pointwise loss.  A finite
map (`FiniteMap`) is enumerated, and an offset rule gets a sampled lower
bound.

The attack-verify trial at the end runs one trial at a time through the
library's one-point calls, the reference that the batched finish of
`verify_contract` must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

import numpy as np

from relicert.core import (
    Hypothesis,
    LinearHomogeneous,
    OffsetBoundary,
    Threshold,
    _as_point,
    label_to_external,
    predict,
)
from relicert.distributions import _draw, _mix64, derive_rng, uniform_ball
from relicert.losses import LossKind, _check_pair, fixed_loss, fixed_loss_many
from relicert.reliability import MAX_WITNESSES, certify, fitted_batches, margin_alpha
from relicert import version_space
from relicert.version_space import ConeVS, IntervalVS, _random_unit, cone_dis_distance_info

TWO_PI = 2.0 * math.pi


def sign01(v):
    return np.where(np.asarray(v) >= 0.0, 1, -1)


# ---------------------------------------------------------------------------
# 2-d linear separators on an angle grid
# ---------------------------------------------------------------------------


def consistent_angles(X, y, step=1e-4):
    """Grid angles whose separators classify (X, y) perfectly."""
    phis = np.arange(-math.pi, math.pi, step)
    W = np.column_stack([np.cos(phis), np.sin(phis)])
    preds = sign01(W @ X.T)  # (n_phi, m)
    ok = np.all(preds == y[None, :], axis=1)
    return phis[ok], W[ok]


def membership_2d(X, y, z, step=1e-4):
    """-1/0/+1 membership of z from the consistent angle grid."""
    return int(geometry_2d_many(X, y, [z], step)[0][0])


def geometry_2d_many(X, y, Z, step=1e-4):
    """-1/0/+1 membership of every row of Z from the consistent angle grid,
    and min |<w, z>| over the grid's consistent unit normals (0 where
    disputed).  The grid misses the true extreme normals by at most `step`
    in angle, so the distance is over by at most |z| * step."""
    _, W = consistent_angles(X, y, step)
    Z = np.asarray(Z, dtype=float)
    codes = np.empty(Z.shape[0], dtype=int)
    dist = np.empty(Z.shape[0])
    for lo in range(0, Z.shape[0], 256):  # chunked to bound memory
        V = W @ Z[lo : lo + 256].T
        plus = np.any(V >= 0.0, axis=0)
        minus = np.any(V < 0.0, axis=0)
        codes[lo : lo + 256] = np.where(plus & minus, 0, np.where(plus, 1, -1))
        dist[lo : lo + 256] = np.where(plus & minus, 0.0, np.abs(V).min(axis=0))
    return codes, dist


def dis_direction_mask(X, y, step=1e-3):
    """For each grid direction, whether a point on that ray is disputed."""
    phis, W = consistent_angles(X, y, step)
    dirs = np.arange(-math.pi, math.pi, step)
    D = np.column_stack([np.cos(dirs), np.sin(dirs)])
    disputed = np.empty(dirs.size, dtype=bool)
    for lo in range(0, dirs.size, 4096):  # chunked to bound memory
        margins = W @ D[lo : lo + 4096].T
        # both labels occur: some margin >= 0 and some < 0 (sign(0) = +1)
        plus = margins.max(axis=0, initial=-np.inf) >= 0.0
        minus = margins.min(axis=0, initial=np.inf) < 0.0
        disputed[lo : lo + 4096] = plus & minus
    return dirs, disputed


def radius_2d_bruteforce(X, y, z, eta_step=1e-4, angle_step=2e-4):
    """Largest grid eta whose ball around z avoids every disputed ray.

    The disputed set is a union of rays through the origin (from the angle
    grid); the ball of radius eta avoids a ray at angle psi iff the
    point-to-ray distance exceeds eta.
    """
    z = np.asarray(z, dtype=float)
    dirs, disputed = dis_direction_mask(X, y, step=angle_step)
    if not np.any(disputed):
        return math.inf
    rho = float(np.linalg.norm(z))
    theta = math.atan2(z[1], z[0])
    delta = np.abs(np.remainder(dirs[disputed] - theta + math.pi, TWO_PI) - math.pi)
    ray_dist = np.where(delta >= math.pi / 2.0, rho, rho * np.sin(delta))
    true_dist = float(np.min(ray_dist))
    etas = np.arange(0.0, true_dist + 2.0 * eta_step, eta_step)
    ok = etas <= true_dist
    return float(etas[ok][-1]) if np.any(ok) else 0.0


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def interval_bounds(X, y):
    coords = X[:, 0]
    neg = coords[y < 0]
    pos = coords[y > 0]
    lo = float(np.max(neg)) if neg.size else -math.inf
    hi = float(np.min(pos)) if pos.size else math.inf
    return lo, hi


def membership_threshold(X, y, z):
    lo, hi = interval_bounds(X, y)
    u = float(np.asarray(z).reshape(-1)[0])
    if u < hi and (u > lo or (u == lo)):
        if u == lo:
            return -1
        return 0
    return 1 if u >= hi else -1


def radius_threshold_bruteforce(X, y, z, eta_step=1e-4):
    """Grid search over eta with interval ball-in-agreement checks."""
    lo, hi = interval_bounds(X, y)
    u = float(np.asarray(z).reshape(-1)[0])
    if lo < u < hi:
        return 0.0
    etas = np.arange(0.0, max(abs(u - lo), abs(u - hi)) + 1.0, eta_step)
    ok = (u - etas >= hi) | (u + etas <= lo)
    return float(etas[ok][-1]) if np.any(ok) else 0.0


def lift_threshold_dataset(X, y):
    """Embed 1-d threshold data where cut rules become homogeneous linear."""
    coords = np.asarray(X, dtype=float).reshape(-1, 1)
    return np.hstack([coords, np.ones_like(coords)]), np.asarray(y)


# ---------------------------------------------------------------------------
# cones: extreme rays by SVD subset enumeration or by a convex hull in a
# polar chart, and membership by LP (all distinct from the package's
# double-description route)
# ---------------------------------------------------------------------------


def cone_min_abs_inner_svd(A, z, sign):
    """min <w, sign*z> over unit w with A w >= 0, via all (d-1)-subsets."""
    A = np.asarray(A, dtype=float)
    m, d = A.shape
    v = sign * np.asarray(z, dtype=float)
    best = math.inf
    for combo in combinations(range(m), d - 1):
        sub = A[list(combo)]
        _, _, vt = np.linalg.svd(sub)
        r = vt[-1]
        for rr in (r, -r):
            if float((A @ rr).min()) >= -1e-10:
                best = min(best, float(rr @ v))
    return best


def cone_rays_qhull(A, w0):
    """Unit extreme rays of {w : A w >= 0} from qhull, for a pointed cone
    with m >= d rows and a strictly feasible unit w0.

    The dual cone's slice {y : <y, w0> = 1} is the hull of the points
    p_i = U^T A_i / <A_i, w0>, with U an orthonormal basis of w0's
    complement; it is bounded because every <A_i, w0> > 0.  A hull facet
    n.p + c <= 0 is the extreme ray -(c w0 + U n).
    """
    from scipy.spatial import ConvexHull

    A = np.asarray(A, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    slack = A @ w0
    assert np.all(slack > 0.0), "the polar chart needs a strictly feasible w0"
    U = np.linalg.svd(w0[None, :])[2][1:].T
    hull = ConvexHull((A @ U) / slack[:, None])
    R = -(hull.equations[:, -1:] * w0[None, :] + hull.equations[:, :-1] @ U.T)
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    assert float((R @ A.T).min()) >= -1e-9
    return R


def cone_membership_lp(A, z, tol=1e-9):
    """-1/0/+1 membership of z from the extreme values of <w, z> over
    {A w >= 0, |w|_inf <= 1}, solved by scipy's LP solver."""
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float).reshape(-1, len(z))
    z = np.asarray(z, dtype=float)
    kw = {"A_ub": -A, "b_ub": np.zeros(A.shape[0])} if A.shape[0] else {}
    bounds = [(-1.0, 1.0)] * z.shape[0]
    top = -linprog(-z, bounds=bounds, **kw).fun
    bottom = linprog(z, bounds=bounds, **kw).fun
    plus, minus = top > tol, bottom < -tol
    if plus and minus:
        return 0
    return -1 if minus else 1


def cone_margins_lp(A, strict):
    """scipy LP values over {A w >= 0, |w|_inf <= 1}: the best margin on the
    strict rows (max t with <A_i, w> >= t on them, capped at 1; None without
    strict rows), the best margin on every row, and the largest |w_j|, which
    is 0 iff the cone is {0}."""
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    m, d = A.shape
    bounds = [(-1.0, 1.0)] * d + [(None, 1.0)]

    def best_margin(rows):
        G = np.hstack([-A, rows.astype(float)[:, None]])  # t*flag - A w <= 0
        return -linprog(np.r_[np.zeros(d), -1.0], A_ub=G, b_ub=np.zeros(m), bounds=bounds).fun

    strict = np.asarray(strict, dtype=bool)
    on_strict = best_margin(strict) if np.any(strict) else None
    on_all = best_margin(np.ones(m, dtype=bool))
    reach = 0.0
    for j in range(d):
        for sign in (1.0, -1.0):
            c = np.zeros(d)
            c[j] = -sign
            reach = max(reach, -linprog(c, A_ub=-A, b_ub=np.zeros(m), bounds=bounds[:d]).fun)
    return on_strict, on_all, reach


def cone_membership_pointwise(vs, z, tol=1e-9):
    """-1/0/+1 membership of z, generator by generator: <w, z> < -tol is a
    -1 witness; > tol is a +1 witness, and so is |<w, z>| <= tol when w
    lies on no negative-label (strict) facet, since w is then a consistent
    normal and sign(0) = +1."""
    z = np.asarray(z, dtype=float).reshape(-1)
    plus = minus = False
    for w in vs.rays():
        v = float(w @ z)
        free = not np.any(np.abs(vs.A[vs.strict] @ w) <= 1e-10)
        plus = plus or v > tol or (free and abs(v) <= tol)
        minus = minus or v < -tol
    return 0 if plus and minus else (-1 if minus else 1)


def cone_codes_where(V, plus_above, tol=1e-9):
    """Membership codes from a cone's (rays, points) values V, by the
    nested selects that the library's int8 arithmetic replaced."""
    plus = np.any(V > plus_above[:, None], axis=0)
    minus = np.any(V < -tol, axis=0)
    return np.where(minus, np.where(plus, 0, -1), 1).astype(np.int8)


def cone_distances_where(V, codes):
    """Disagreement distances from V and the codes, by the selects that the
    library's arithmetic replaced: the least value on +1 rows, the least
    negated value on -1 rows, clipped at 0, and 0 on disputed rows."""
    dist = np.where(codes > 0, V.min(axis=0), -V.max(axis=0))
    return np.where(codes != 0, np.maximum(dist, 0.0), 0.0)


# ---------------------------------------------------------------------------
# safely-reliable membership, one point at a time: the scalar cap minimum
# and ray loop that the batched mask replaces, kept as its reference
# ---------------------------------------------------------------------------


def min_over_cap(u, a, x, eta):
    """min <u, z> over the closed ball B(x, eta) intersected with {a.z >= 0};
    a is a unit vector and x satisfies a.x >= 0 (so the cap is nonempty)."""
    nu = float(np.linalg.norm(u))
    if nu < 1e-300:
        return 0.0
    zstar = x - (eta / nu) * u
    if float(a @ zstar) >= 0.0:
        return float(u @ x) - eta * nu
    beta = -float(a @ x)  # move this far along a to reach the face a.z = 0
    beta = max(beta, -eta)
    ut = u - float(u @ a) * a
    rad = math.sqrt(max(eta * eta - beta * beta, 0.0))
    return float(u @ x) + beta * float(u @ a) - rad * float(np.linalg.norm(ut))


def cap_stays_unanimous(rays, wstar, x, label, eta):
    """Whether the same-label part of B(x, eta) keeps <w, label*z> >= 0 for
    every ray w."""
    a = float(label) * wstar
    return all(min_over_cap(float(label) * w, a, x, eta) >= 0.0 for w in rays)


def _margin_feasible(norm_z: float, margin: float, alpha: float, c1: float,
                     eps: float, d: int, eta: float) -> bool:
    root_d = math.sqrt(d)
    return norm_z < alpha * root_d - eta and margin >= c1 * alpha * eps * root_d + eta


def margin_certify_halving(h_erm, z, eps, c1=1.0, tol=1e-12):
    """The margin certifier's radius located by halving search on its
    feasibility predicate (parity check for the closed form)."""
    if not isinstance(h_erm, LinearHomogeneous):
        raise ValueError("the margin certifier needs a linear hypothesis")
    z = _as_point(z, dim=h_erm.dimension)
    d = z.shape[0]
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


def safely_reliable_pointwise(vs, hstar, x, eta1, eta2, kind):
    """Safely-reliable membership of one point, decided ray by ray."""
    x = np.asarray(x, dtype=float).reshape(-1)
    code = int(vs.membership_many(x[None, :])[0])
    if code == 0:
        return False
    if kind is not LossKind.CA:
        if isinstance(vs, IntervalVS):
            dist = float(vs.dis_distance_many(x[None, :])[0])
        else:
            dist = max(min(float(w @ (code * x)) for w in vs.rays()), 0.0)
        return dist >= (eta1 + eta2 if kind is LossKind.ST else eta1)
    y = predict(hstar, x)
    if isinstance(vs, IntervalVS):
        cut = hstar.t if isinstance(hstar, Threshold) else hstar.offset
        u_x = float(vs.coords(x[None, :])[0])
        reach = eta1 / vs._scale
        if y > 0:
            cap_lo, cap_hi = max(u_x - reach, cut), u_x + reach
        else:
            cap_lo, cap_hi = u_x - reach, min(u_x + reach, cut)
        return not (cap_lo < vs.hi and cap_hi > vs.lo)
    return cap_stays_unanimous(vs.rays(), hstar.w, x, y, eta1)


def boundary_margin(vs, z):
    """How far z is from a tie of the version space's membership test: the
    cut-value gap to lo and hi for intervals, and the least |<w, z>| over a
    cone's generators."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if isinstance(vs, IntervalVS):
        u = float(vs.coords(z[None, :])[0])
        return min(abs(u - vs.lo), abs(u - vs.hi))
    return float(np.min(np.abs(vs.rays() @ z)))


# ---------------------------------------------------------------------------
# robust losses as suprema over a perturbation set: exact rational ball
# geometry for affine-margin rules (threshold, homogeneous linear),
# enumeration for finite maps, and sampling for offsets
# ---------------------------------------------------------------------------

DEFAULT_BALL_SAMPLES = 1024


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


@dataclass(frozen=True)
class RobustLossResult:
    value: int
    method: str  # exact | enumerated | sampled-lower-bound
    samples: int | None = None


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
        return RobustLossResult(value=val, method="sampled-lower-bound", samples=n_samples)

    raise ValueError(f"unsupported perturbation model {type(model).__name__}")


# ---------------------------------------------------------------------------
# one attack-verify trial at a time
# ---------------------------------------------------------------------------


def attack_direction(vs, x, rng):
    """A unit step from x toward the disputed points, one point at a time:
    a cone steps against the generator with the least agreed margin at x,
    an interval along the last axis toward the disputed cuts; a disputed x
    draws a random unit (cone) or a coin flip (interval)."""
    if isinstance(vs, ConeVS):
        code = int(vs.membership_many(x[None, :])[0])
        if code == 0:
            return _random_unit(rng, x.shape[0])
        w = cone_dis_distance_info(vs, x, code).best_w
        margin = float(w @ x)
        if abs(margin) < 1e-15:
            return w.copy()
        return -math.copysign(1.0, margin) * w
    u_x = float(vs.coords(x[None, :])[0])
    direction = np.zeros(x.shape[0])
    if u_x >= vs.hi:
        direction[-1] = -1.0
    elif u_x <= vs.lo:
        direction[-1] = 1.0
    else:
        direction[-1] = 1.0 if rng.random() < 0.5 else -1.0
    return direction


def craft_attack(vs, x, budget, strategy, rng, trial):
    """The attacked point of one trial (see `attack_direction`)."""
    d = x.shape[0]
    if strategy == "random-ball":
        direction = _random_unit(rng, d)
        return x + budget * rng.random() ** (1.0 / d) * direction
    if strategy == "boundary-directed":
        direction = attack_direction(vs, x, rng)
        step = budget * rng.random()
        return x + step * direction
    if strategy == "grid":
        dirs = np.vstack([np.eye(d), -np.eye(d), np.ones((1, d)) / math.sqrt(d),
                          -np.ones((1, d)) / math.sqrt(d)])
        direction = dirs[trial % dirs.shape[0]]
        fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
        return x + budget * fractions[trial % len(fractions)] * direction
    raise ValueError(f"unknown attack strategy {strategy!r}")


def learner(vs, rng):
    """One trial's learner as a hypothesis: its row of
    `version_space.random_members`, drawn alone."""
    member = version_space.random_members([vs], [rng])[0]
    if isinstance(vs, ConeVS):
        return LinearHomogeneous(member)
    return Threshold(float(member)) if vs.base is None else OffsetBoundary(vs.base, float(member))


def run_trial(trial, trial_seed, rng, vs, hstar, sampler, budget, kind, strategy):
    """The rest of one attack-verify trial on its fitted version space, with
    the generator that drew its sample, one point at a time through
    `certify` and `fixed_loss`: (certified, witness or None)."""
    h_learn = learner(vs, rng)
    x = _draw(sampler, rng, 1)[0]
    z = craft_attack(vs, x, budget, strategy, rng, trial)
    cert = certify(vs, z, kind, seed=trial_seed)
    dist = float(np.linalg.norm(z - x))

    def witness(reason):
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


def contract_report(concept, hstar, sampler, m, trials, budget, kind, strategy, seed=0):
    """`verify_contract(...).to_json_dict()` from a `run_trial` loop over
    the trials of `fitted_batches`."""
    certified, witnesses, key = 0, [], _mix64(seed)
    for batch, rngs, vss in fitted_batches(concept, hstar, sampler, m, range(trials),
                                           lambda batch: [derive_rng(key, t) for t in batch]):
        for t, rng, vs in zip(batch, rngs, vss):
            binding, bad = run_trial(t, _mix64(key, t), rng, vs, hstar, sampler, budget,
                                     kind, strategy)
            certified += int(binding)
            if bad is not None:
                witnesses.append(bad)
    return {
        "trials": trials,
        "certified": certified,
        "violations": len(witnesses),
        "witnesses": witnesses[:MAX_WITNESSES],
        "config": {"m": m, "budget": budget, "loss": kind.value, "strategy": strategy,
                   "seed": seed},
    }
