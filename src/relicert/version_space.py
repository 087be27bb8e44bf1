"""Exact consistent-hypothesis sets and their agreement geometry.

Three representations, one per concept class:

  IntervalVS  - thresholds, and offsets of a fixed boundary function, as a
                half-open interval (lo, hi] of feasible cut values;
  AngleArcVS  - 2-d homogeneous linear separators as an arc of feasible
                normal angles (the feasible set is a convex cone, hence a
                single arc);
  ConeVS      - general-d homogeneous linear separators as the polyhedral
                cone {w : <y_i x_i, w> >= 0}, held as its extreme rays.

Every class answers the same geometry queries, and no other module looks
inside a representation:

  membership_many(X)         agreement code per row: +1, -1, or 0 (disputed);
  dis_distance_many(X, codes, seed=)
                             the distance below, 0 on disputed rows;
  canonical_member()         the interval or arc midpoint, the cone's
                             interior normal;
  random_member(rng)         a consistent hypothesis away from the boundary;
  attack_direction(x, rng)   a unit step from x toward the nearest disputed
                             point (random where x is disputed);
  ca_cap_mask(hstar, X, eta) whether the part of B(x, eta) with the target
                             label of x stays unanimous, per row.

Membership in the agreement region is exact for every class.  The distance
of an agreed point z is the Euclidean distance to the disagreement region
for intervals (a lower bound for offset classes with a non-constant
boundary).  For linear classes it is the minimum of |<w, z>| over
consistent unit normals w: the distance to the disagreement region when the
version space has more than one normal, and the single normal's |margin|
when it has one (a one-hypothesis arc or cone), where no point is disputed
but a stability ball still may not cross the decision boundary.  Arcs
evaluate it in closed form.  For cones that minimum sits on an extreme ray
(the ratio of a nonnegative linear functional to the norm is quasiconcave
along segments), so every cone query reads one matrix of unit generators,
built once per fitted cone by the double-description method (Motzkin et
al. 1953; Fukuda & Prodon 1996): its extreme rays, plus +-l for an
orthonormal basis l of the lineality space null(A) when the cone contains a
line (fewer independent samples than dimensions, or none).  On such a cone
a point with a component in null(A) is disputed and an agreed point has
distance 0.  A cone whose ray build holds more than RAY_CAP rays at any
step is not represented: the fit's first query raises
DegenerateVersionSpaceError.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BaseBoundary,
    Dataset,
    Hypothesis,
    LinearHomogeneous,
    OffsetBoundary,
    Threshold,
    _as_point,
)
from .lp import max_margin_direction, maximize_over_cone_box

TWO_PI = 2.0 * math.pi
STRICT_LP_TOL = 1e-9
RAY_CAP = 100_000  # most extreme rays the cone ray build may hold at one step


class RealizabilityError(ValueError):
    """The dataset admits no consistent hypothesis in the class."""


class DegenerateVersionSpaceError(ValueError):
    """The consistent set is not representable (e.g. two antipodal normals,
    or a cone whose ray build exceeds RAY_CAP)."""


class Membership(enum.Enum):
    AGREE_PLUS = 1
    AGREE_MINUS = -1
    DISAGREE = 0


@dataclass(frozen=True, eq=False)
class OffsetClass:
    """Concept class of all offsets of one registered boundary function."""

    base: BaseBoundary


ConceptClass = str | OffsetClass


def concept_to_dict(concept: ConceptClass) -> dict:
    if isinstance(concept, OffsetClass):
        return {"kind": "offset", "base": concept.base.to_dict()}
    if concept in ("threshold", "linear"):
        return {"kind": concept}
    raise ValueError(f"unknown concept class {concept!r}")


def concept_from_dict(d: dict) -> ConceptClass:
    kind = d["kind"]
    if kind == "offset":
        return OffsetClass(BaseBoundary.from_dict(d["base"]))
    if kind in ("threshold", "linear"):
        return kind
    raise ValueError(f"unknown concept kind {kind!r}")


def _residuals(base: BaseBoundary, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X[:, -1] - base(X[:, :-1])


def _interior_fraction(rng: np.random.Generator) -> float:
    """A fraction in [0.02, 0.98] that places a random member away from the
    version-space boundary.  Every `random_member` draws it first, so the
    random stream is consumed in the same order for every class."""
    return 0.02 + 0.96 * rng.random()


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal(d)
    return g / max(float(np.linalg.norm(g)), 1e-300)


# ---------------------------------------------------------------------------
# interval version spaces (thresholds; offset-boundary offsets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalVS:
    """Feasible cut values (lo, hi]; DIS is the open interval (lo, hi).

    For the offset class, cuts act on the residual x_{d+1} - f(x_1..d);
    Euclidean distances to DIS are the residual distances divided by
    sqrt(1 + C^2) for Lipschitz constant C (exact when C = 0, otherwise a
    certified lower bound).
    """

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False
    base: BaseBoundary | None = None  # set for the offset class

    @property
    def _scale(self) -> float:
        if self.base is None:
            return 1.0
        return 1.0 / math.sqrt(1.0 + self.base.lipschitz**2)

    def coords(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.base is None:
            if X.shape[1] != 1:
                raise ValueError("threshold version spaces act on 1-d points")
            return X[:, 0]
        return _residuals(self.base, X)

    def membership_many(self, X: np.ndarray) -> np.ndarray:
        u = self.coords(X)
        out = np.zeros(u.shape[0], dtype=np.int8)
        minus = (u < self.lo) | ((u == self.lo) & self.lo_open)
        plus = u >= self.hi
        out[minus] = -1
        out[plus] = 1
        return out

    def dis_distance_many(self, X: np.ndarray, codes=None, *, seed: int = 0) -> np.ndarray:
        """Distance to the open interval (lo, hi) of disputed cuts; `codes`
        and `seed` are not needed here."""
        u = self.coords(X)
        below = np.maximum(self.lo - u, 0.0)
        above = np.maximum(u - self.hi, 0.0)
        return np.maximum(below, above) * self._scale

    def boundary_margin(self, z) -> float:
        u = float(self.coords(np.atleast_2d(_as_point(z)))[0])
        return min(abs(u - self.lo), abs(u - self.hi))

    def _member(self, t: float) -> Hypothesis:
        return OffsetBoundary(self.base, t) if self.base is not None else Threshold(t)

    def canonical_member(self) -> Hypothesis:
        """The midpoint cut; one unit inside a half-infinite interval, 0 for
        the whole line."""
        if math.isinf(self.lo) and math.isinf(self.hi):
            t = 0.0
        elif math.isinf(self.lo):
            t = self.hi - 1.0
        elif math.isinf(self.hi):
            t = self.lo + 1.0
        else:
            t = 0.5 * (self.lo + self.hi)
        return self._member(t)

    def random_member(self, rng: np.random.Generator) -> Hypothesis:
        u = _interior_fraction(rng)
        if math.isinf(self.lo) and math.isinf(self.hi):
            t = rng.standard_normal()
        elif math.isinf(self.lo):
            t = self.hi - rng.random()
        elif math.isinf(self.hi):
            t = self.lo + rng.random()
        else:
            t = self.lo + u * (self.hi - self.lo)
        return self._member(t)

    def attack_direction(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Along the last axis toward the disputed cuts; a coin flip inside."""
        u_x = float(self.coords(x[None, :])[0])
        direction = np.zeros(x.shape[0])
        if u_x >= self.hi:
            direction[-1] = -1.0
        elif u_x <= self.lo:
            direction[-1] = 1.0
        else:
            direction[-1] = 1.0 if rng.random() < 0.5 else -1.0
        return direction

    def ca_cap_mask(self, hstar: Hypothesis, X: np.ndarray, eta: float) -> np.ndarray:
        """Closed form: the cut values the same-label part of each eta-ball
        reaches must miss the disputed interval."""
        if not isinstance(hstar, (Threshold, OffsetBoundary)):
            raise ValueError("target concept does not match the version space")
        cut = hstar.t if isinstance(hstar, Threshold) else hstar.offset
        y = hstar.predict_many(X)
        u_x = self.coords(X)
        reach = eta / self._scale  # residual reach of the eta point ball
        cap_lo = np.where(y > 0, np.maximum(u_x - reach, cut), u_x - reach)
        cap_hi = np.where(y > 0, u_x + reach, np.minimum(u_x + reach, cut))
        return ~((cap_lo < self.hi) & (cap_hi > self.lo))


# ---------------------------------------------------------------------------
# the constrained-adversary cap test for linear version spaces
# ---------------------------------------------------------------------------

SR_CHUNK_ELEMS = 1 << 18  # entries per block of the cap test and the ray build's pair tests


def _caps_stay_unanimous(
    rays: np.ndarray, hstar: Hypothesis, X: np.ndarray, eta: float
) -> np.ndarray:
    """Per point x: whether the part of B(x, eta) sharing the target label y
    keeps <w, y*z> >= 0 for every ray w (sufficient on the rays' conic hull
    because the cap minimum is superadditive in w).

    With u = y*w and a = y*w*, the minimum of <u, z> over B(x, eta) cut by
    {a.z >= 0} is <u, x> - eta*|u| when the free minimiser x - eta*u/|u|
    lies in the cut, and otherwise sits on the face a.z = 0.  Rays enter
    only through |w|, w.w* and |w - (w.w*) w*|; points only through x.w
    and x.w*.  The array is built in blocks of at most SR_CHUNK_ELEMS
    points x rays entries.
    """
    if not isinstance(hstar, LinearHomogeneous):
        raise ValueError("target concept does not match the version space")
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


# ---------------------------------------------------------------------------
# angular-arc version spaces (2-d homogeneous linear)
# ---------------------------------------------------------------------------


def _unit_normal(phi: float) -> np.ndarray:
    return np.array([math.cos(phi), math.sin(phi)])


def _circ_gap(theta: np.ndarray, start: float, width: float) -> np.ndarray:
    """Angular distance from theta to the circular interval [start, start+width]."""
    delta = np.mod(theta - start, TWO_PI)
    inside = delta <= width
    gap = np.minimum(delta - width, TWO_PI - delta)
    return np.where(inside, 0.0, gap)


@dataclass(frozen=True, eq=False)
class AngleArcVS:
    """Feasible normal angles [phi_lo, phi_hi] (phi_hi - phi_lo <= 2*pi).

    The disagreement region consists of the two open cones of directions
    within the arc's width of its orthogonal directions.
    """

    phi_lo: float
    phi_hi: float
    lo_open: bool = False
    hi_open: bool = False

    @property
    def width(self) -> float:
        return self.phi_hi - self.phi_lo

    def membership_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != 2:
            raise ValueError("angle-arc version spaces act on 2-d points")
        theta = np.arctan2(X[:, 1], X[:, 0])
        rho = np.linalg.norm(X, axis=1)
        a, b = self.phi_lo, self.phi_hi
        # min/max of cos(phi - theta) over phi in [a, b]
        ca = np.cos(a - theta)
        cb = np.cos(b - theta)
        has_pi = np.mod(theta + math.pi - a, TWO_PI) <= self.width
        has_zero = np.mod(theta - a, TWO_PI) <= self.width
        cmin = np.where(has_pi, -1.0, np.minimum(ca, cb))
        cmax = np.where(has_zero, 1.0, np.maximum(ca, cb))
        out = np.zeros(X.shape[0], dtype=np.int8)
        out[cmin >= 0.0] = 1
        out[cmax < 0.0] = -1
        out[rho == 0.0] = 1  # the origin gets +1 from every hypothesis
        return out

    def dis_distance_many(self, X: np.ndarray, codes=None, *, seed: int = 0) -> np.ndarray:
        """min |<w, z>| over the arc's unit normals, 0 on disputed rows;
        `codes` are the rows' membership codes when the caller has them."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if codes is None:
            codes = self.membership_many(X)
        if self.width <= 0.0:
            dist = np.abs(X @ _unit_normal(self.phi_lo))
        else:
            theta = np.arctan2(X[:, 1], X[:, 0])
            rho = np.linalg.norm(X, axis=1)
            g1 = _circ_gap(theta, self.phi_lo + math.pi / 2.0, self.width)
            g2 = _circ_gap(theta, self.phi_lo - math.pi / 2.0, self.width)
            gap = np.minimum(g1, g2)
            dist = np.where(gap >= math.pi / 2.0, rho, rho * np.sin(gap))
        dist[codes == 0] = 0.0
        return dist

    def endpoint_hypotheses(self) -> tuple[LinearHomogeneous, LinearHomogeneous]:
        return (
            LinearHomogeneous(_unit_normal(self.phi_lo)),
            LinearHomogeneous(_unit_normal(self.phi_hi)),
        )

    def canonical_member(self) -> LinearHomogeneous:
        """The normal at the arc's midpoint angle."""
        return LinearHomogeneous(_unit_normal(0.5 * (self.phi_lo + self.phi_hi)))

    def random_member(self, rng: np.random.Generator) -> LinearHomogeneous:
        u = _interior_fraction(rng)
        phi = self.phi_lo + u * self.width if self.width > 0.0 else self.phi_lo
        return LinearHomogeneous(_unit_normal(phi))

    def attack_direction(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Against the endpoint normal with the smaller |margin| at x."""
        h_lo, h_hi = self.endpoint_hypotheses()
        m_lo = float(h_lo.margins(x[None, :])[0])
        m_hi = float(h_hi.margins(x[None, :])[0])
        w, m = (h_lo.w, m_lo) if abs(m_lo) <= abs(m_hi) else (h_hi.w, m_hi)
        if abs(m) < 1e-15:
            return _random_unit(rng, x.shape[0])
        return -math.copysign(1.0, m) * w

    def ca_cap_mask(self, hstar: Hypothesis, X: np.ndarray, eta: float) -> np.ndarray:
        """The cap test on the endpoint and midpoint normals."""
        h_lo, h_hi = self.endpoint_hypotheses()
        rays = np.vstack([h_lo.w, self.canonical_member().w, h_hi.w])
        return _caps_stay_unanimous(rays, hstar, X, eta)

    def boundary_margin(self, z) -> float:
        z = _as_point(z, dim=2)
        h1, h2 = self.endpoint_hypotheses()
        return float(
            min(abs(h1.margins(z[None, :])[0]), abs(h2.margins(z[None, :])[0]))
        )


# ---------------------------------------------------------------------------
# constraint-cone version spaces (general-d homogeneous linear)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Bank:
    """Unit generators W of a closed cone: its extreme rays, then +-l for
    each vector l of an orthonormal basis of its lineality space."""

    W: np.ndarray
    exhaustive = True  # every generator is present; read by perfbench's layer tracer


@dataclass(frozen=True, eq=False)
class ConeVS:
    """Feasible normals {w : A w >= 0}, rows A = normalized signed samples.

    Every query reads the cone's unit generators (`rays`), built once per
    fitted cone.  A point z is disputed when some generator has
    <w, z> > STRICT_LP_TOL and another has <w, z> < -STRICT_LP_TOL; it
    reads -1 when only the second kind exists, and +1 otherwise.

    Rows from negative labels are strict (<w, y_i x_i> > 0), so a ray on
    their facet is a limit of consistent normals, not one itself.  The
    tolerance decides its ties as the strict row does: for a negative
    sample x_n, z = x_n / |x_n| reads -1 and z = -x_n / |x_n| reads +1, as
    every consistent normal labels them.
    """

    A: np.ndarray  # (m, d), unit rows
    interior: np.ndarray  # (d,) feasible unit normal, strictly so if the cone has interior
    dim: int

    def rays(self) -> np.ndarray:
        """The unit generators (see `_Bank`), built on the first call."""
        bank = self.__dict__.get("_bank")
        if bank is None:
            bank = _build_cone_bank(self)
            object.__setattr__(self, "_bank", bank)
        return bank.W

    def membership_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        vals = X @ self.rays().T
        plus = np.any(vals > STRICT_LP_TOL, axis=1)
        minus = np.any(vals < -STRICT_LP_TOL, axis=1)
        return np.where(minus, np.where(plus, 0, -1), 1).astype(np.int8)

    def dis_distance_many(self, X: np.ndarray, codes=None, *, seed: int = 0) -> np.ndarray:
        """min |<w, z>| over unit normals w in the cone, 0 on disputed rows:
        the row minimum of <w, code * z> over the generators.  `codes` are
        the rows' membership codes when the caller has them; `seed` is not
        needed here."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if codes is None:
            codes = self.membership_many(X)
        dist = np.zeros(X.shape[0])
        agreed = np.flatnonzero(codes)
        V = codes[agreed, None] * X[agreed]
        dist[agreed] = np.maximum((V @ self.rays().T).min(axis=1), 0.0)
        return dist

    def canonical_member(self) -> LinearHomogeneous:
        """The interior normal."""
        return LinearHomogeneous(self.interior)

    def random_member(self, rng: np.random.Generator) -> LinearHomogeneous:
        """A random step from the interior normal, within 45% of its slack."""
        _interior_fraction(rng)  # unused here; drawn to keep the stream order
        if self.A.shape[0] == 0:
            return LinearHomogeneous(rng.standard_normal(self.dim))
        slack = float(np.min(self.A @ self.interior))
        g = _random_unit(rng, self.dim)
        return LinearHomogeneous(self.interior + 0.45 * slack * rng.random() * g)

    def attack_direction(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Against the generator with the smallest agreed margin at x."""
        code = int(self.membership_many(x[None, :])[0])
        if code == 0:
            return _random_unit(rng, x.shape[0])
        w = cone_dis_distance_info(self, x, code).best_w
        margin = float(w @ x)
        if abs(margin) < 1e-15:
            return w.copy()
        return -math.copysign(1.0, margin) * w

    def ca_cap_mask(self, hstar: Hypothesis, X: np.ndarray, eta: float) -> np.ndarray:
        """The cap test on the generators, which span the cone."""
        return _caps_stay_unanimous(self.rays(), hstar, X, eta)


def _build_cone_bank(vs: ConeVS) -> _Bank:
    """The generators of {w : A w >= 0}.

    Rows are taken in ascending slack A @ interior, so the rows tight near
    the interior normal, which cut the most, come first.  The first
    independent ones span the row space of A; its complement null(A) is the
    lineality space, and the pointed rest of the cone lies in the row
    space, where `_double_description` finds its extreme rays.
    """
    A = vs.A[np.argsort(vs.A @ vs.interior, kind="stable")]
    first = _independent_rows(A)
    _, _, Vt = np.linalg.svd(A[first])
    B, L = Vt[: len(first)], Vt[len(first) :]
    rays = _double_description(A @ B.T, first) @ B
    return _Bank(W=np.ascontiguousarray(np.vstack([rays, L, -L])))


def _independent_rows(A: np.ndarray) -> list[int]:
    """Indices of the rows of A independent of the rows before them, taken
    greedily in order: the residual after two Gram-Schmidt passes against
    the rows already taken must exceed 1e-10."""
    d = A.shape[1]
    Q = np.zeros((0, d))
    picks: list[int] = []
    for i, a in enumerate(A):
        r = a - Q.T @ (Q @ a)
        r -= Q.T @ (Q @ r)
        norm = float(np.linalg.norm(r))
        if norm > 1e-10:
            Q = np.vstack([Q, r / norm])
            picks.append(i)
            if len(picks) == d:
                break
    return picks


def _double_description(A: np.ndarray, first: list[int]) -> np.ndarray:
    """Unit extreme rays of the pointed cone {u : A u >= 0}, A (m, k) of
    rank k, by double description.

    Start from the simplicial cone of the k independent rows `first`, then
    cut it by the other rows in order.  A cut keeps the rays it does not
    violate and adds, for every adjacent pair of a kept ray p and a violated
    ray n, the combination of the two on the cut's hyperplane.  Adjacency
    is combinatorial (see `_adjacent_pairs`) and reads which cut rows are
    tight at each ray, within 1e-10.  A row the current cone already
    satisfies is dropped, since later cuts only shrink the cone.  More than
    RAY_CAP rays after any cut raise DegenerateVersionSpaceError.
    """
    m, k = A.shape
    tol = 1e-10
    R = np.linalg.inv(A[first]).T  # row j is tight on every first row but j
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    T = 1.0 - np.eye(k, dtype=np.float32)  # T[r, j] = 1: cut j is tight at ray r
    rest = np.setdiff1d(np.arange(m), first)  # sorted, so still in slack order
    while rest.size:
        V = A[rest] @ R.T
        cuts = np.any(V < -tol, axis=1)
        rest, V = rest[cuts], V[cuts]
        if not rest.size:
            break
        vals, rest = V[0], rest[1:]
        neg = vals < -tol
        T = np.hstack([T, (np.abs(vals) <= tol).astype(np.float32)[:, None]])
        p, n = _adjacent_pairs(T, np.flatnonzero(vals > tol), np.flatnonzero(neg), k)
        new = vals[p, None] * R[n] - vals[n, None] * R[p]
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        new_T = T[p] * T[n]
        new_T[:, -1] = 1.0
        R = np.vstack([R[~neg], new])
        T = np.vstack([T[~neg], new_T])
        if R.shape[0] > RAY_CAP:
            raise DegenerateVersionSpaceError(
                f"the cone's ray build reached {R.shape[0]} rays, above the cap of {RAY_CAP}"
            )
    return R


def _adjacent_pairs(T: np.ndarray, P: np.ndarray, N: np.ndarray, k: int):
    """The adjacent pairs (p, n), p in P and n in N, of the rays whose tight
    cuts are the rows of T, in a pointed cone of dimension k: p and n share
    at least k - 2 tight cuts, and no third ray is tight on all of those.
    Both tests are matrix products over blocks of at most SR_CHUNK_ELEMS
    entries."""
    rays, cols = T.shape
    TN = T[N].T
    ps, ns = [P[:0]], [N[:0]]
    step = max(1, SR_CHUNK_ELEMS // max(N.size, cols))
    sub = max(1, SR_CHUNK_ELEMS // max(rays, cols))
    for lo in range(0, P.size, step):
        a, b = np.nonzero(T[P[lo : lo + step]] @ TN >= k - 2)
        for c in range(0, a.size, sub):
            p, n = P[lo + a[c : c + sub]], N[b[c : c + sub]]
            common = T[p] * T[n]
            holders = common @ T.T == common.sum(axis=1, keepdims=True)
            keep = holders.sum(axis=1) == 2
            ps.append(p[keep])
            ns.append(n[keep])
    return np.concatenate(ps), np.concatenate(ns)


@dataclass(frozen=True)
class ConeDistanceInfo:
    """The minimum of <w, agreed_sign * z> over a cone's generators, clamped
    at 0, and a generator attaining it."""

    value: float
    best_w: np.ndarray
    iterations = 0  # no search; read, with `exhaustive`, by perfbench's layer tracer
    exhaustive = True


def cone_dis_distance_info(vs: ConeVS, z, agreed_sign: int) -> ConeDistanceInfo:
    """The one-point form of `ConeVS.dis_distance_many` for z in the
    agreement region, with the minimising generator."""
    z = _as_point(z, dim=vs.dim)
    W = vs.rays()
    vals = W @ (float(agreed_sign) * z)
    j = int(np.argmin(vals))
    return ConeDistanceInfo(value=max(float(vals[j]), 0.0), best_w=W[j])


VersionSpace = IntervalVS | AngleArcVS | ConeVS


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _fit_interval(values: np.ndarray, labels: np.ndarray, base=None) -> IntervalVS:
    neg = values[labels < 0]
    pos = values[labels > 0]
    lo = float(np.max(neg)) if neg.size else -math.inf
    hi = float(np.min(pos)) if pos.size else math.inf
    if not lo < hi:
        raise RealizabilityError(
            f"no consistent cut: largest negative {lo} >= smallest positive {hi}"
        )
    return IntervalVS(lo=lo, hi=hi, base=base)


def _fit_arc(S: Dataset) -> AngleArcVS:
    if len(S) == 0:
        return AngleArcVS(phi_lo=-math.pi, phi_hi=math.pi)
    norms = np.linalg.norm(S.X, axis=1)
    if np.any((norms == 0.0) & (S.y < 0)):
        raise RealizabilityError("the origin always receives label +1")
    keep = norms > 0.0
    theta = np.arctan2(S.X[keep, 1], S.X[keep, 0])
    labels = S.y[keep]
    if theta.size == 0:
        return AngleArcVS(phi_lo=-math.pi, phi_hi=math.pi)
    strict = labels < 0
    # every constraint reads cos(phi - psi) >= 0 (or > 0 for strict rows),
    # i.e. phi must lie in the half-circle [psi - pi/2, psi + pi/2]
    psi = np.where(strict, theta + math.pi, theta)
    starts = np.mod(psi - math.pi / 2.0, TWO_PI)
    m = psi.size
    events = np.concatenate([starts, np.mod(starts + math.pi, TWO_PI)])
    deltas = np.concatenate([np.ones(m, dtype=np.int64), -np.ones(m, dtype=np.int64)])
    order = np.lexsort((-deltas, events))  # +1 before -1 at equal angles
    ev = np.concatenate([[0.0], events[order]])
    dv = np.concatenate([[0], deltas[order]])
    # coverage just below 2*pi; the events at angle 0 (half-circles that
    # start or end there) are applied by the sweep itself
    count = int(np.sum(starts >= math.pi))
    segments = []
    for k in range(ev.size):
        count += int(dv[k])
        seg_start = ev[k]
        seg_end = ev[k + 1] if k + 1 < ev.size else TWO_PI
        if count == m and seg_end > seg_start:
            segments.append((seg_start, seg_end))
    if not segments:
        return _fit_arc_degenerate(psi, strict)
    # stitch the wrap-around junction at angle 0 / 2*pi
    if (
        len(segments) >= 2
        and abs(segments[-1][1] - TWO_PI) < 1e-15
        and abs(segments[0][0]) < 1e-15
    ):
        last = segments.pop()
        first = segments.pop(0)
        segments.insert(0, (last[0] - TWO_PI, first[1]))
    if len(segments) > 1:
        raise DegenerateVersionSpaceError(
            "feasible normals form a disconnected set (antipodal boundary data)"
        )
    lo, hi = segments[0]
    width = min(hi - lo, TWO_PI)
    lo = math.remainder(lo, TWO_PI)

    # an endpoint binding a strict (negative-label) constraint is open
    def _open(phi: float) -> bool:
        c = np.cos(phi - psi[strict])
        return bool(c.size and np.min(np.abs(c)) < 1e-12)

    return AngleArcVS(phi_lo=lo, phi_hi=lo + width, lo_open=_open(lo), hi_open=_open(lo + width))


def _fit_arc_degenerate(psi: np.ndarray, strict: np.ndarray) -> AngleArcVS:
    """No positive-width arc: the feasible set is at most isolated angles."""
    cands = np.unique(np.mod(np.concatenate([psi - math.pi / 2.0, psi + math.pi / 2.0]), TWO_PI))
    feasible = []
    for phi in cands:
        c = np.cos(phi - psi)
        if np.all(c >= -1e-12) and not np.any(strict & (np.abs(c) < 1e-12)):
            feasible.append(phi)
    if not feasible:
        raise RealizabilityError("no consistent 2-d linear separator")
    if len(feasible) > 1:
        raise DegenerateVersionSpaceError(
            "feasible normals form a disconnected set (antipodal boundary data)"
        )
    phi = math.remainder(float(feasible[0]), TWO_PI)
    return AngleArcVS(phi_lo=phi, phi_hi=phi)


def _fit_cone(S: Dataset, interior_hint: np.ndarray | None = None) -> ConeVS:
    d = S.dimension
    empty = ConeVS(A=np.zeros((0, d)), interior=np.eye(d)[0], dim=d)
    if len(S) == 0:
        return empty
    raw = S.y[:, None] * S.X
    norms = np.linalg.norm(raw, axis=1)
    if np.any((norms == 0.0) & (S.y < 0)):
        raise RealizabilityError("the origin always receives label +1")
    keep = norms > 0.0
    if not np.any(keep):
        return empty
    A = raw[keep] / norms[keep, None]
    strict = S.y[keep] < 0
    if interior_hint is not None:
        w = np.asarray(interior_hint, dtype=float).reshape(-1)
        if w.shape[0] == d and np.linalg.norm(w) > 1e-12:
            w = w / np.linalg.norm(w)
            if float(np.min(A @ w)) > STRICT_LP_TOL:
                return ConeVS(A=A, interior=w, dim=d)
    w, s = max_margin_direction(A)
    if s <= STRICT_LP_TOL:
        if np.any(strict):
            raise RealizabilityError(
                f"no strictly consistent linear separator (best margin {s:.2e})"
            )
        # all labels +1 with only marginal separators; any nonzero direction
        # of the closed cone will do
        if np.linalg.norm(w) < 1e-12:
            w = _closed_cone_direction(A)
    w = w / np.linalg.norm(w)
    return ConeVS(A=A, interior=w, dim=d)


def _closed_cone_direction(A: np.ndarray) -> np.ndarray:
    """A nonzero w with A w >= 0 for a cone without interior: the LP
    maximiser of <sum_i A_i, w>, or, when that maximum is 0 (every feasible
    w then has A w = 0, so the cone is the null space of A), a null vector."""
    d = A.shape[1]
    w = maximize_over_cone_box(A.sum(axis=0), A, lo=-np.ones(d), hi=np.ones(d)).x
    if np.linalg.norm(w) >= 1e-12:
        return w
    _, sv, Vt = np.linalg.svd(A)
    rank = int(np.sum(sv > 1e-10))
    if rank == d:
        raise RealizabilityError("feasible normals reduce to the zero vector")
    return Vt[rank]


def fit_version_space(
    S: Dataset,
    concept: ConceptClass,
    representation: str = "auto",
    interior_hint: np.ndarray | None = None,
) -> VersionSpace:
    """Exact representation of the hypotheses consistent with S.

    `interior_hint` optionally supplies a known strictly-consistent normal
    for the cone representation, skipping its LP (validated, LP fallback).
    """
    if isinstance(concept, OffsetClass):
        if len(S) == 0:
            return IntervalVS(lo=-math.inf, hi=math.inf, base=concept.base)
        return _fit_interval(_residuals(concept.base, S.X), S.y, base=concept.base)
    if concept == "threshold":
        if S.dimension != 1:
            raise ValueError("threshold concepts act on 1-d data")
        if len(S) == 0:
            return IntervalVS(lo=-math.inf, hi=math.inf)
        return _fit_interval(S.X[:, 0], S.y)
    if concept == "linear":
        if representation == "arc" or (representation == "auto" and S.dimension == 2):
            if S.dimension != 2:
                raise ValueError("the arc representation needs 2-d data")
            return _fit_arc(S)
        if representation in ("auto", "cone"):
            return _fit_cone(S, interior_hint=interior_hint)
        raise ValueError(f"unknown representation {representation!r}")
    raise ValueError(f"unknown concept class {concept!r}")


def interior_hint(hstar: Hypothesis) -> np.ndarray | None:
    """The normal of a linear target, for `fit_version_space(interior_hint=)`
    on samples that target labelled; None for other targets."""
    return hstar.w if isinstance(hstar, LinearHomogeneous) else None


def canonical_member(vs: VersionSpace) -> Hypothesis:
    """The canonical consistent hypothesis: the interval midpoint (one unit
    inside a half-infinite interval, 0 for the whole line), the arc midpoint,
    or the cone's interior normal."""
    return vs.canonical_member()


def erm(S: Dataset, concept: ConceptClass, representation: str = "auto") -> Hypothesis:
    """A canonical zero-error hypothesis: interval/arc midpoints, or the
    max-margin LP direction for constraint cones."""
    return fit_version_space(S, concept, representation=representation).canonical_member()


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_CODE_TO_MEMBERSHIP = {1: Membership.AGREE_PLUS, -1: Membership.AGREE_MINUS, 0: Membership.DISAGREE}


def agree_membership(vs: VersionSpace, z) -> Membership:
    """Unanimity of the consistent hypotheses at z."""
    z = _as_point(z)
    code = int(vs.membership_many(z[None, :])[0])
    return _CODE_TO_MEMBERSHIP[code]


def dis_distance(vs: VersionSpace, z, *, seed: int = 0) -> float:
    """Distance from z to the disagreement region (0 inside it), as defined
    in the module docstring."""
    z = _as_point(z)
    return float(vs.dis_distance_many(z[None, :], seed=seed)[0])


# ---------------------------------------------------------------------------
# margin-exclusion bound for linear separators
# ---------------------------------------------------------------------------


def margin_exclusion_delta(delta1: float, c: float, dnorm: float) -> float:
    """Margin below which points with norms in [c, dnorm] must be disputed.

    delta1 is an admissible rotation angle (see margin_exclusion_delta1_bound);
    any admissible rotation of the target normal stays consistent with the
    sample, and within this margin some such rotation flips the point.
    """
    if not 0.0 < delta1 < math.pi / 2.0:
        raise ValueError("delta1 must lie in (0, pi/2)")
    if not 0.0 < c < dnorm:
        raise ValueError("need 0 < c < dnorm")
    t = math.tan(delta1)
    return c * c * t / math.sqrt((dnorm + t * t) ** 2 + c * c * t * t)


def margin_exclusion_delta1_bound(S: Dataset, hstar: LinearHomogeneous) -> float:
    """Largest admissible rotation angle: min_i |<w*, x_i>| / ||x_i||."""
    if len(S) == 0:
        raise ValueError("the admissibility bound needs a nonempty sample")
    margins = np.abs(hstar.margins(S.X))
    norms = np.linalg.norm(S.X, axis=1)
    if np.any(norms == 0.0) or np.any(margins == 0.0):
        raise ValueError("sample points must be off the target decision boundary")
    return float(np.min(margins / norms))
