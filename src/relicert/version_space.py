"""Exact consistent-hypothesis sets and their agreement geometry.

Two representations, one per kind of concept class:

  IntervalVS  - thresholds, and offsets of a fixed boundary function, as a
                half-open interval (lo, hi] of feasible cut values;
  ConeVS      - homogeneous linear separators in any dimension d >= 2 as
                the polyhedral cone {w : <y_i x_i, w> >= 0}, held as its
                extreme rays.

Every class answers the same geometry queries, and no other module looks
inside a representation:

  membership_many(X)         agreement code per row: +1, -1, or 0 (disputed);
  dis_distance_many(X, codes)
                             the distance below, 0 on disputed rows;
  canonical_member()         the interval midpoint, the cone's interior
                             normal;
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
when it has one, where no point is disputed but a stability ball still may
not cross the decision boundary.  That minimum sits on an extreme ray of
the cone (the ratio of a nonnegative linear functional to the norm is
quasiconcave along segments), so every cone query reads one matrix R of
unit generators, built once per fitted cone by the double-description
method (Motzkin et al. 1953; Fukuda & Prodon 1996): its extreme rays, plus
+-l for an orthonormal basis l of the lineality space null(A) when the cone
contains a line (fewer independent samples than dimensions, antipodal
samples, or none).  On such a cone a point with a component in null(A) is
disputed and an agreed point has distance 0.  Queries are laid out
ray-major: products R @ X.T of shape (rays, points), reduced over their
short leading axis.  Every such pass (membership, distance, the cap test)
runs over row blocks of X with at most SR_CHUNK_ELEMS entries each, and
assembles codes and distances by arithmetic, not by selects.  A cone
whose ray build holds more than RAY_CAP rays at any step is not
represented: the fit raises DegenerateVersionSpaceError.

A linear fit without an interior hint solves no LP.  Its generators decide
realizability: the sample is strictly consistent iff every negative-label
row has a generator strictly inside it.  Its interior normal is the
normalised sum of the extreme rays (any generator when the cone is a
linear subspace).  Only `erm` solves an LP, its documented max-margin
direction.
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
from .lp import max_margin_direction

STRICT_LP_TOL = 1e-9
RAY_CAP = 100_000  # most extreme rays the cone ray build may hold at one step


class RealizabilityError(ValueError):
    """The dataset admits no consistent hypothesis in the class."""


class DegenerateVersionSpaceError(ValueError):
    """The consistent set is not representable: a cone whose ray build
    exceeds RAY_CAP.  Raised by the fit, never by a query."""


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
        minus = u <= self.lo
        plus = u >= self.hi
        out[minus] = -1
        out[plus] = 1
        return out

    def dis_distance_many(self, X: np.ndarray, codes=None) -> np.ndarray:
        """Distance to the open interval (lo, hi) of disputed cuts; `codes`
        are not needed here."""
        u = self.coords(X)
        below = np.maximum(self.lo - u, 0.0)
        above = np.maximum(u - self.hi, 0.0)
        return np.maximum(below, above) * self._scale

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
# (rays, points) passes in row blocks, and the constrained-adversary cap
# test for linear version spaces
# ---------------------------------------------------------------------------

# Entries per block of every (rays, points) pass of the cone's queries and
# cap test, and of the ray build's pair tests: blocks stay cache-sized.
SR_CHUNK_ELEMS = 1 << 18


def _per_point_blocks(rays: np.ndarray, X: np.ndarray, reduce, dtype, *cols) -> np.ndarray:
    """reduce(rays @ X[rows].T, *(c[rows] for c in cols)) over row blocks
    `rows` of X whose (rays, points) product has at most SR_CHUNK_ELEMS
    entries.  `reduce` returns one value per point of its block, and the
    blocks' values are concatenated.  X that fits in one block makes one
    call with the arrays as given: no slicing, no output copy."""
    n = X.shape[0]
    size = max(1, SR_CHUNK_ELEMS // max(rays.shape[0], 1))
    if n <= size:
        return reduce(rays @ X.T, *cols)
    out = np.empty(n, dtype=dtype)
    for lo in range(0, n, size):
        hi = lo + size
        out[lo:hi] = reduce(rays @ X[lo:hi].T, *(c[lo:hi] for c in cols))
    return out


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
    and x.w*.  The arrays are (rays, points), built in blocks (see
    `_per_point_blocks`) and reduced over the rays.
    """
    if not isinstance(hstar, LinearHomogeneous):
        raise ValueError("target concept does not match the version space")
    wstar = hstar.w
    nu = np.linalg.norm(rays, axis=1)[:, None]
    ua = (rays @ wstar)[:, None]  # u.a for either label
    ut = np.linalg.norm(rays - ua * wstar[None, :], axis=1)[:, None]
    step = eta / nu

    def unanimous(V: np.ndarray, Xb: np.ndarray) -> np.ndarray:
        s = hstar.margins(Xb)
        y = np.where(s >= 0.0, 1.0, -1.0)
        ax = y * s  # a.x >= 0: the cap is never empty
        ux = y * V
        free = ax - step * ua >= 0.0
        beta = np.maximum(-ax, -eta)  # move this far along a to reach a.z = 0
        rad = np.sqrt(np.maximum(eta * eta - beta * beta, 0.0))
        face = ux + beta * ua - rad * ut
        low = np.where(free, ux - eta * nu, face)
        return ~(low < 0.0).any(axis=0)

    return _per_point_blocks(rays, X, unanimous, bool, X)


# ---------------------------------------------------------------------------
# constraint-cone version spaces (general-d homogeneous linear)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Bank:
    """Unit generators W of a closed cone {w : A w >= 0}: its extreme rays,
    then +-l for each vector l of an orthonormal basis of its lineality
    space.  `plus_above[j]` is the value of <W_j, z> above which W_j labels
    z +1 (see `ConeVS`), and `cuts` indexes rows of A that describe the same
    cone: the rows the build cut with."""

    W: np.ndarray
    plus_above: np.ndarray
    cuts: np.ndarray
    exhaustive = True  # every generator is present; read by perfbench's layer tracer

    def codes(self, V: np.ndarray) -> np.ndarray:
        """Membership codes from the values V = W @ Z.T, as the int8
        [plus >= minus] - [minus]: +1 without a -1 witness, 0 with
        witnesses of both signs, -1 with only -1 witnesses."""
        plus = (V > self.plus_above[:, None]).any(axis=0)
        minus = (V < -STRICT_LP_TOL).any(axis=0)
        return (plus >= minus).view(np.int8) - minus.view(np.int8)

    def distances(self, V: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
        """max(min V, 0) [code > 0] + max(-max V, 0) [code < 0] per point,
        without a select.  The first indicator is implied: a point with
        code <= 0 has a -1 witness, so min V < 0 and max(min V, 0) = +0.
        The second term is finite wherever its indicator is 0 (such a point
        has a value >= -STRICT_LP_TOL), so no inf * 0 arises, and no
        distance is -0.0."""
        if codes is None:
            codes = self.codes(V)
        dist = np.maximum(V.min(axis=0), 0.0)
        dist += np.maximum(-V.max(axis=0), 0.0) * (codes < 0)
        return dist


@dataclass(frozen=True, eq=False)
class ConeVS:
    """Feasible normals {w : A w >= 0}, rows A = normalized signed samples;
    rows from negative labels are `strict` (<w, A_i> > 0).

    Every query reads the cone's unit generators (`rays`), built by the
    fit and held in `bank`, in blocks of at most SR_CHUNK_ELEMS (rays,
    points) entries (`_per_point_blocks`).  A generator w is a -1 witness at z
    when <w, z> < -STRICT_LP_TOL.  It is a +1 witness when <w, z> >
    STRICT_LP_TOL, and also when |<w, z>| <= STRICT_LP_TOL if w lies on no
    strict facet: such a w is itself a consistent normal, and sign(0) = +1.
    A point with witnesses of both signs is disputed; it reads -1 when it
    has only -1 witnesses, and +1 otherwise.

    A generator on a strict facet is a limit of consistent normals, not one
    itself, so a 0 there is no witness: for a negative sample x_n,
    z = x_n / |x_n| reads -1 and z = -x_n / |x_n| reads +1, as every
    consistent normal labels them.

    `interior` is a consistent unit normal, strictly positive on every row
    when the cone has interior.  A fit with a strictly feasible hint keeps
    the hint.  A fit without one takes the normalised sum of the extreme
    rays, or a generator of a cone that is a linear subspace; the same
    generators decided that the sample is realizable (see `_fit_cone`).
    `member` is the interior normal as a hypothesis.
    """

    A: np.ndarray  # (m, d), unit rows
    strict: np.ndarray  # (m,) bool
    interior: np.ndarray  # (d,) feasible unit normal, strictly so if the cone has interior
    dim: int
    bank: _Bank
    member: LinearHomogeneous

    def rays(self) -> np.ndarray:
        """The unit generators (see `_Bank`), one per row."""
        return self.bank.W

    def membership_many(self, X: np.ndarray) -> np.ndarray:
        bank = self.bank
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _per_point_blocks(bank.W, X, bank.codes, np.int8)

    def dis_distance_many(self, X: np.ndarray, codes=None) -> np.ndarray:
        """min |<w, z>| over unit normals w in the cone, 0 on disputed rows:
        the least <w, z> over the generators on +1 rows, and the least
        -<w, z> on -1 rows.  `codes`, when the caller has them, must be
        `membership_many(X)`; otherwise they come from the same product."""
        bank = self.bank
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cols = () if codes is None else (codes,)
        return _per_point_blocks(bank.W, X, bank.distances, float, *cols)

    def canonical_member(self) -> LinearHomogeneous:
        """The interior normal."""
        return self.member

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


def _build_cone_bank(A: np.ndarray, strict: np.ndarray, interior: np.ndarray | None) -> _Bank:
    """The generators of {w : A w >= 0}.

    Rows are taken in ascending slack on a reference normal, the feasible
    `interior` when there is one and the mean of A's rows otherwise (A
    must then have rows), so the first independent rows are tight near it.
    Those rows span the row space of A; its complement null(A) is the
    lineality space, and the pointed rest of the cone lies in the row
    space, where `_double_description` finds its extreme rays.  When those
    rows span R^d there is nothing to rotate.  The cuts are weighted by the inverse slack on `interior`, or
    all alike without one (see `_double_description`).
    """
    ref = A.mean(axis=0) if interior is None else interior
    slack = A @ ref
    order = np.argsort(slack, kind="stable")
    A = A[order]
    weight = np.ones(A.shape[0]) if interior is None else 1.0 / slack[order]
    first = _independent_rows(A)
    if len(first) == A.shape[1]:
        W, cuts = _double_description(A, first, weight)
    else:
        _, _, Vt = np.linalg.svd(A[first])
        B, L = Vt[: len(first)], Vt[len(first) :]
        rays, cuts = _double_description(A @ B.T, first, weight)
        W = np.vstack([rays @ B, L, -L])
    W = np.ascontiguousarray(W)
    on_strict = np.any(A[strict[order]] @ W.T <= 1e-10, axis=0)
    # V > plus_above is V > tol on strict facets and V >= -tol elsewhere
    plus_above = np.where(on_strict, STRICT_LP_TOL, np.nextafter(-STRICT_LP_TOL, -np.inf))
    return _Bank(W=W, plus_above=plus_above, cuts=order[cuts])


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


def _double_description(
    A: np.ndarray, first: list[int], weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unit extreme rays of the pointed cone {u : A u >= 0}, A (m, k) of
    rank k, by double description, and the indices of the rows it cut with.

    Start from the simplicial cone of the k independent rows `first`, then
    cut it by the other rows, each time by the violated row i with the least
    weight[i] * <r, A_i> over the current rays r.  With weight[i] = 1 / <c,
    A_i> for an interior point c, that row is the first hyperplane crossed
    by a segment from c to a violated ray, a facet of the cone, so no cut is
    spent on a redundant row; with unit weights it is the most violated
    row.  A cut keeps the rays it does not violate and adds, for every
    adjacent pair of a kept ray p and a violated ray n, the combination of
    the two on the cut's hyperplane.  Adjacency is combinatorial (see
    `_adjacent_pairs`) and reads which cut rows are tight at each ray,
    within 1e-10.  A row the current cone already satisfies is dropped,
    since later cuts only shrink the cone; the rows cut with therefore
    describe the same cone as A.  More than RAY_CAP rays after any cut
    raise DegenerateVersionSpaceError.
    """
    m, k = A.shape
    tol = 1e-10
    R = np.linalg.inv(A[first]).T  # row j is tight on every first row but j
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    T = 1.0 - np.eye(k, dtype=np.float32)  # T[r, j] = 1: cut j is tight at ray r
    pending = np.ones(m, dtype=bool)
    pending[first] = False
    rest = np.flatnonzero(pending)
    cuts = list(first)
    while rest.size:
        V = R @ A[rest].T  # (rays, rows)
        low = V.min(axis=0, initial=np.inf)
        violated = low < -tol
        rest, V, low = rest[violated], V[:, violated], low[violated]
        if not rest.size:
            break
        j = int(np.argmin(low * weight[rest]))
        vals = V[:, j]
        cuts.append(int(rest[j]))
        rest[j] = rest[0]
        rest = rest[1:]
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
    return R, np.array(cuts, dtype=np.intp)


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


VersionSpace = IntervalVS | ConeVS


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


def _fit_cone(S: Dataset, interior_hint: np.ndarray | None = None) -> ConeVS:
    """The cone of S's consistent normals, its generators from one
    `_build_cone_bank` call, and an interior normal: the hint when it is
    strictly feasible, e1 for the empty sample, else the one the generators
    give.  The hint or e1 is also the build's reference normal.

    Without either, S is strictly consistent iff every negative-label
    (strict) row has a generator w with <w, A_i> > STRICT_LP_TOL: each such
    row then has a consistent normal strictly inside it, and their sum
    serves every row at once.  The interior is the normalised sum of the
    generators, where the +-l of the lineality basis cancel, leaving the
    extreme rays: it is strictly positive on every row that some consistent
    normal is strictly positive on.  When that sum is about 0 the cone is a
    linear subspace, and any generator will do.
    """
    d = S.dimension
    raw = S.y[:, None] * S.X
    norms = np.linalg.norm(raw, axis=1)
    if np.any((norms == 0.0) & (S.y < 0)):
        raise RealizabilityError("the origin always receives label +1")
    keep = norms > 0.0
    A = raw[keep] / norms[keep, None]
    strict = S.y[keep] < 0
    interior = None
    if A.shape[0] == 0:  # every normal is consistent
        interior = np.eye(d)[0]
    elif interior_hint is not None:
        w = np.asarray(interior_hint, dtype=float).reshape(-1)
        if w.shape[0] == d and np.linalg.norm(w) > 1e-12:
            w = w / np.linalg.norm(w)
            if float(np.min(A @ w)) > STRICT_LP_TOL:
                interior = w
    bank = _build_cone_bank(A, strict, interior)
    if interior is None:
        W = bank.W
        if W.shape[0] == 0:
            raise RealizabilityError("feasible normals reduce to the zero vector")
        missed = ~np.any(A[strict] @ W.T > STRICT_LP_TOL, axis=1)
        if np.any(missed):
            raise RealizabilityError(
                f"no strictly consistent linear separator: no consistent normal is "
                f"strictly negative on {int(missed.sum())} negative sample(s)"
            )
        w = W.sum(axis=0)
        norm = float(np.linalg.norm(w))
        interior = w / norm if norm > 1e-12 else W[0]
    return ConeVS(A=A, strict=strict, interior=interior, dim=d, bank=bank,
                  member=LinearHomogeneous(interior))


def fit_version_space(
    S: Dataset, concept: ConceptClass, interior_hint: np.ndarray | None = None
) -> VersionSpace:
    """Exact representation of the hypotheses consistent with S.

    `interior_hint` optionally supplies a known strictly-consistent normal
    for a linear concept; the fit then keeps it as the interior and orders
    the ray build's rows by their slack on it.  A hint that is not strictly
    feasible is ignored.  A linear fit raises DegenerateVersionSpaceError
    when its ray build exceeds RAY_CAP.
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
        return _fit_cone(S, interior_hint=interior_hint)
    raise ValueError(f"unknown concept class {concept!r}")


def interior_hint(hstar: Hypothesis) -> np.ndarray | None:
    """The normal of a linear target, for `fit_version_space(interior_hint=)`
    on samples that target labelled; None for other targets."""
    return hstar.w if isinstance(hstar, LinearHomogeneous) else None


def erm(S: Dataset, concept: ConceptClass) -> Hypothesis:
    """A canonical zero-error hypothesis: the interval midpoint, or for
    linear separators the max-margin LP direction, max s with <A_i, w> >= s
    and |w|_inf <= 1.

    The LP runs over the rows the ray build cut with.  Those describe the
    same cone, so every other unit row is a conic combination of them whose
    weights sum to at least 1, and it cannot bind at a margin >= 0: the LP's
    margin is the margin over all rows, at a size that does not grow with
    m.  A cone without interior (margin <= STRICT_LP_TOL) gives the cone's
    interior normal instead.
    """
    vs = fit_version_space(S, concept)
    if not isinstance(vs, ConeVS) or vs.A.shape[0] == 0:
        return vs.canonical_member()
    w, s = max_margin_direction(vs.A[vs.bank.cuts])
    if s <= STRICT_LP_TOL:
        return vs.canonical_member()
    return LinearHomogeneous(w / np.linalg.norm(w))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_CODE_TO_MEMBERSHIP = {1: Membership.AGREE_PLUS, -1: Membership.AGREE_MINUS, 0: Membership.DISAGREE}


def agree_membership(vs: VersionSpace, z) -> Membership:
    """Unanimity of the consistent hypotheses at z."""
    z = _as_point(z)
    code = int(vs.membership_many(z[None, :])[0])
    return _CODE_TO_MEMBERSHIP[code]


def dis_distance(vs: VersionSpace, z) -> float:
    """Distance from z to the disagreement region (0 inside it), as defined
    in the module docstring."""
    z = _as_point(z)
    return float(vs.dis_distance_many(z[None, :])[0])


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
