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
  dis_distance_many(X)       the distance below, 0 on disputed rows;
  canonical                  the canonical member as an array: the interval
                             midpoint's cut, or the cone's interior normal;
  dim                        the points' width, where the class fixes it.

Fitted spaces travel as stacks, one set of padded arrays per class, from
the ray build to the last query: `IntervalStack` holds the cuts lo and hi
(K,), and `ConeStack` the rows, the interiors and slacks, and the
generators (`_Banks`): W (K, R, d), each cone's own generators followed by
copies of its first, with their `plus_above` values, counts and cut rows.
stack[k] is space k as an `IntervalVS` or `ConeVS`, for callers of one
space, and stack[a:b] a sub-stack of views.  Every query takes a stack, or
a list of single spaces, which `as_stack` gathers into one: the only
gather of single spaces.

Every query is one blocked pass of `stack_query(vss, T, ...)`: the points
T[k] of a stack T (K, n, d) against vss[k], K fitted spaces of one class
(one point set: T = X[None]; row i against space i: T = Z[:, None]), with
one witness rule (`_codes`) for every class and one distance formula per
class (`_cut_gap`, `_ray_gap`).  A block of cones reads the view
W[rows, :top] of the stack, top the block's own largest count, so its
products have the shape and the bits of that block alone.  It gives the
codes and distances, or a mask: the points at a given distance, or, for
the constrained-adversary loss, whether the part of B(x, eta) with the
target label of x stays unanimous.  `attack_directions(vss, X, rngs)`
steps each row toward its space's disputed points, from the same blocked
values.
`random_members(vss, rngs)` draws one member per space as an array (cuts,
or unit normals), and `member_labels` labels points by such members in one
pass: only `erm` builds a hypothesis.  `check_target` checks a target's
class.

Membership in the agreement region is exact for every class.  The distance
of an agreed point z is the Euclidean distance to the disagreement region
for thresholds and for offsets of a `constant` or `affine` boundary, and a
certified lower bound on it for a `sine` boundary; for a `quadratic`
boundary it is not a bound (see `IntervalVS`).  For linear classes it is
the minimum of |<w, z>| over consistent unit normals w: the distance to the
disagreement region when the version space has more than one normal, and
the single normal's |margin| when it has one, where no point is disputed
but a stability ball still may not cross the decision boundary.  That
minimum sits on an extreme ray of the cone (the ratio of a nonnegative
linear functional to the norm is quasiconcave along segments), so every
cone query reads one matrix R of unit generators, built by the fit with the
double-description method (Motzkin et al. 1953; Fukuda & Prodon 1996): its
extreme rays, plus +-l for an orthonormal basis l of the lineality space
null(A) when the cone contains a line (fewer independent samples than
dimensions, antipodal samples, or none).  On such a cone a point with a
component in null(A) is disputed and an agreed point has distance 0.
Queries are laid out ray-major: each block forms one padded product
W @ P^T of shape (spaces, rays, points), at most SR_CHUNK_ELEMS entries,
reduced over the rays, and assembles codes and distances by arithmetic,
not by selects.  A cone whose ray build holds more than RAY_CAP rays at
any step is not represented: the fit raises DegenerateVersionSpaceError.

`fit_stack` fits a stack of samples, X (K, m, d) and y (K, m), into one
stack, and `fit_version_spaces` a list of them, in the fewest sub-stacks
of at most `fit_batch` samples, of near-equal size (`sub_batches`).  The
stack's cones share one ray build, whose every step is one set of array
operations over the stack.  A cone that has no violated row left waits
in the stack, masked, until half the stack is done; then the done cones
leave together, their rays gathered in one index, and the stack shrinks
in place, so a build copies no stack when cones finish.  The generators
are normalised and tested against the strict facets per rank group, as
padded arrays throughout.  No cone's arithmetic depends on the stack
around it (fixed-order sums over the coordinates; BLAS only on one-shape
blocks, on 0/1 counts, which are exact, and in the strict-facet test,
whose 1e-10 tolerance is far above any rounding of a tight generator's
values), so each cone is the same bits as its one-sample fit,
`fit_version_space`.  Intervals take their cuts from array reductions.

A linear fit solves no LP.  Its generators decide realizability, and give
its interior normal, whether or not a hint ordered the build (see
`_fit_cones`).  Only `erm` solves an LP, its documented max-margin
direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BaseBoundary,
    Dataset,
    DimensionMismatchError,
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


@dataclass(frozen=True, eq=False)
class OffsetClass:
    """Concept class of all offsets of one registered boundary function."""

    base: BaseBoundary


ConceptClass = str | OffsetClass


def concept_from_dict(d: dict) -> ConceptClass:
    kind = d["kind"]
    if kind == "offset":
        return OffsetClass(BaseBoundary.from_dict(d["base"]))
    if kind in ("threshold", "linear"):
        return kind
    raise ValueError(f"unknown concept kind {kind!r}")


def check_target(concept: ConceptClass, hstar: Hypothesis) -> None:
    """Raise ValueError unless the target hstar belongs to the concept
    class: one of its kind and, for an offset class, of its base, on whose
    residual the version space's cuts act."""
    base = getattr(concept, "base", None)
    want = {"kind": concept} if base is None else {"kind": "offset", "base": base.to_dict()}
    got = {key: v for key, v in hstar.to_dict().items() if key in ("kind", "base")}
    if got != want:
        raise ValueError(f"the target's class {json.dumps(got)} is not the concept class "
                         f"{json.dumps(want)}")


def _residuals(base: BaseBoundary, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X[:, -1] - base(X[:, :-1])


def _interior_fraction(rng: np.random.Generator) -> float:
    """A fraction in [0.02, 0.98] that places a random member away from the
    version-space boundary.  Every member draw (`random_members`) takes it
    first, so the random stream is consumed in the same order for every
    class."""
    return 0.02 + 0.96 * rng.random()


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal(d)
    return g / max(float(np.linalg.norm(g)), 1e-300)


def _codes(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Agreement codes from whether some member labels a point +1 (sign(0)
    = +1) and whether some labels it -1: +1 without a -1 witness, 0 with
    witnesses of both signs, and -1 with only -1 witnesses."""
    return (plus >= minus).view(np.int8) - minus.view(np.int8)


def _cut_gap(u: np.ndarray, lo, hi, scale) -> np.ndarray:
    """Distance of the cut coordinates u to the open interval (lo, hi),
    scaled into the points' space."""
    return np.maximum(np.maximum(lo - u, 0.0), np.maximum(u - hi, 0.0)) * scale


def _ray_gap(V: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Cones' distances from the least and largest value <w, z> of each
    point over their generators, the values V (spaces, rays, points):
    max(min, 0) [code > 0] + max(-max, 0) [code < 0] without a select.
    code <= 0 means a -1 witness, so min < 0, and the second term is finite
    where its indicator is 0 (a value >= -STRICT_LP_TOL), so no inf * 0
    arises and no distance is -0.0."""
    dist = np.maximum(V.min(axis=1), 0.0)
    dist += np.maximum(-V.max(axis=1), 0.0) * (codes < 0)
    return dist


def _membership_many(vs, X) -> np.ndarray:
    """The codes of the rows of X, every class's `membership_many`."""
    return stack_query([vs], np.atleast_2d(np.asarray(X, dtype=float))[None])[0][0]


def _dis_distance_many(vs, X) -> np.ndarray:
    """The distances of the rows of X, every class's `dis_distance_many`."""
    return stack_query([vs], np.atleast_2d(np.asarray(X, dtype=float))[None])[1][0]


# ---------------------------------------------------------------------------
# interval version spaces (thresholds; offset-boundary offsets)
# ---------------------------------------------------------------------------


class _Cuts:
    """The cut geometry an interval and a stack of intervals of one class
    share: the cut coordinate of a point, and the scale from cut values
    into the points' space."""

    base: BaseBoundary | None

    @property
    def _scale(self) -> float:
        if self.base is None:
            return 1.0
        return 1.0 / math.sqrt(1.0 + self.base.lipschitz**2)

    @property
    def dim(self) -> int | None:
        """1 for thresholds; None for offsets, whose base checks the width."""
        return 1 if self.base is None else None

    def coords(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.base is None:
            check_width(self, X)
            return X[:, 0]
        return _residuals(self.base, X)


@dataclass(frozen=True, eq=False)
class IntervalVS(_Cuts):
    """Feasible cut values (lo, hi]; DIS is the open interval (lo, hi).

    For the offset class, cuts act on the residual x_{d+1} - f(x_1..d);
    Euclidean distances to DIS are the residual distances divided by
    sqrt(1 + C^2), with C the base's `lipschitz` constant.  That is exact
    for the `constant` and `affine` bases and a certified lower bound for
    `sine`.  For `quadratic` it is no bound: C = |amp| bounds the slope only
    on x_1 in [0, 1], and where the nearest band point lies outside that
    range (for some points inside the cube too) the quotient can exceed the
    true distance.
    """

    lo: float
    hi: float
    base: BaseBoundary | None = None  # set for the offset class

    membership_many = _membership_many
    dis_distance_many = _dis_distance_many

    @property
    def canonical(self) -> float:
        """The canonical cut: the midpoint; one unit inside a half-infinite
        interval, 0 for the whole line."""
        if math.isinf(self.lo) and math.isinf(self.hi):
            return 0.0
        if math.isinf(self.lo):
            return self.hi - 1.0
        if math.isinf(self.hi):
            return self.lo + 1.0
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True, eq=False)
class IntervalStack(_Cuts):
    """K intervals (lo[k], hi[k]] of one class, as `fit_stack` returns them
    and every query reads them.  stack[k] is interval k as an `IntervalVS`,
    stack[a:b] a sub-stack of views."""

    lo: np.ndarray  # (K,)
    hi: np.ndarray  # (K,)
    base: BaseBoundary | None = None

    def __len__(self) -> int:
        return self.lo.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return IntervalStack(self.lo[k], self.hi[k], self.base)
        return IntervalVS(float(self.lo[k]), float(self.hi[k]), self.base)

    @property
    def canonical(self) -> np.ndarray:
        """Every interval's `IntervalVS.canonical` cut, (K,)."""
        lo, hi = self.lo, self.hi
        out = np.zeros(lo.shape)
        below, above = np.isinf(lo), np.isinf(hi)
        both = ~(below | above)
        out[both] = 0.5 * (lo[both] + hi[both])
        out[below & ~above] = hi[below & ~above] - 1.0
        out[above & ~below] = lo[above & ~below] + 1.0
        return out


# Entries per block of the (spaces, rays, points) values of `stack_query`,
# and of the ray build's pair tests: blocks stay cache-sized.
SR_CHUNK_ELEMS = 1 << 18


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


@dataclass(frozen=True, eq=False)
class _Banks:
    """The banks of K cones as padded arrays.  W (K, R, d) holds cone c's
    counts[c] generators, then copies of its first, so a cone's any, min,
    max and first argmin over the rows are its own; `plus_above` (K, R)
    likewise; `cuts` (K, C) holds its n_cuts[c] cut rows first.  banks[c]
    is cone c's `_Bank`, banks[a:b] a sub-stack of views."""

    W: np.ndarray
    plus_above: np.ndarray
    counts: np.ndarray
    cuts: np.ndarray
    n_cuts: np.ndarray

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, c):
        if isinstance(c, slice):
            return _Banks(self.W[c], self.plus_above[c], self.counts[c], self.cuts[c],
                          self.n_cuts[c])
        n = self.counts[c]
        return _Bank(W=self.W[c, :n], plus_above=self.plus_above[c, :n],
                     cuts=self.cuts[c, : self.n_cuts[c]])


@dataclass(frozen=True, eq=False)
class ConeVS:
    """Feasible normals {w : A w >= 0}, rows A = normalized signed samples;
    rows from negative labels are `strict` (<w, A_i> > 0).

    Every query reads the cone's unit generators (`rays`), built by the
    fit and held in `bank`, through `stack_query`.  A generator w is a -1 witness at z
    when <w, z> < -STRICT_LP_TOL.  It is a +1 witness when <w, z> >
    STRICT_LP_TOL, and also when |<w, z>| <= STRICT_LP_TOL if w lies on no
    strict facet: such a w is itself a consistent normal, and sign(0) = +1.
    A point with witnesses of both signs is disputed; it reads -1 when it
    has only -1 witnesses, and +1 otherwise.

    A generator on a strict facet is a limit of consistent normals, not one
    itself, so a 0 there is no witness: for a negative sample x_n,
    z = x_n / |x_n| reads -1 and z = -x_n / |x_n| reads +1, as every
    consistent normal labels them.

    `interior`, also the canonical member, is a consistent unit normal,
    strictly positive on every row when the cone has interior: the
    normalised sum of the cone's own generators, or a generator of a cone
    that is a linear subspace, with or without a hint; the same generators
    decided that the sample is realizable (see `_fit_cones`).  `slack` is
    the least <A_i, interior> over the rows (+inf without rows), which
    bounds the random members' steps.
    """

    A: np.ndarray  # (m, d), unit rows
    strict: np.ndarray  # (m,) bool
    interior: np.ndarray  # (d,) feasible unit normal, strictly so if the cone has interior
    dim: int
    bank: _Bank
    slack: float

    canonical = property(lambda self: self.interior)  # the canonical member

    def rays(self) -> np.ndarray:
        """The unit generators (see `_Bank`), one per row."""
        return self.bank.W

    membership_many = _membership_many
    dis_distance_many = _dis_distance_many


@dataclass(frozen=True, eq=False)
class ConeStack:
    """K cones in R^dim as padded arrays, as `fit_stack` returns them and
    every query reads them: the rows A (K, m, d), of which `real` marks
    each cone's own (zero rows pad it), `strict` (K, m), the generators
    (`_Banks`), and `interior` (K, d) and `slack` (K,), as `ConeVS` has
    them.  stack[c] is cone c as a `ConeVS`, stack[a:b] a sub-stack of
    views."""

    A: np.ndarray
    strict: np.ndarray
    real: np.ndarray
    interior: np.ndarray
    slack: np.ndarray
    dim: int
    bank: _Banks

    canonical = property(lambda self: self.interior)  # every cone's canonical member

    def __len__(self) -> int:
        return self.interior.shape[0]

    def __getitem__(self, c):
        if isinstance(c, slice):
            return ConeStack(self.A[c], self.strict[c], self.real[c], self.interior[c],
                             self.slack[c], self.dim, self.bank[c])
        A, strict, real, bank = self.A[c], self.strict[c], self.real[c], self.bank[c]
        if not real.all():  # keep the sample's nonzero rows, and index the cuts into them
            A, strict = A[real], strict[real]
            bank = _Bank(W=bank.W, plus_above=bank.plus_above, cuts=np.cumsum(real)[bank.cuts] - 1)
        return ConeVS(A=A, strict=strict, interior=self.interior[c], dim=self.dim, bank=bank,
                      slack=float(self.slack[c]))


def _widened(a: np.ndarray, width: int, first: bool) -> np.ndarray:
    """The stacked rows a (K, rows, ...) padded to `width` rows by copies of
    each one's first row (first=True) or by zero rows."""
    if a.shape[1] == width:
        return a
    shape = (a.shape[0], width - a.shape[1]) + a.shape[2:]
    pad = np.repeat(a[:, :1], shape[1], axis=1) if first else np.zeros(shape, dtype=a.dtype)
    return np.concatenate([a, pad], axis=1)


def as_stack(vss):
    """The spaces vss as a stack: a stack as it is; a list of spaces of one
    class gathered into one, padded as a fitted stack is (`join_stacks`).
    This is the only gather of single spaces; one space is gathered as
    views."""
    if isinstance(vss, (ConeStack, IntervalStack)):
        return vss
    if not vss:
        return IntervalStack(np.zeros(0), np.zeros(0))
    if isinstance(vss[0], IntervalVS):
        return IntervalStack(np.array([vs.lo for vs in vss], dtype=float),
                             np.array([vs.hi for vs in vss], dtype=float), vss[0].base)
    return join_stacks([ConeStack(
        A=vs.A[None], strict=vs.strict[None], real=np.ones((1, vs.A.shape[0]), dtype=bool),
        interior=vs.interior[None], slack=np.array([vs.slack], dtype=float), dim=vs.dim,
        bank=_Banks(vs.bank.W[None], vs.bank.plus_above[None], np.array([vs.bank.W.shape[0]]),
                    vs.bank.cuts[None], np.array([vs.bank.cuts.size])),
    ) for vs in vss])


def join_stacks(stacks: list):
    """Stacks of one class as one stack, in order, each padded as a fitted
    stack is to the widest (`_widened`)."""
    if len(stacks) == 1:
        return stacks[0]
    if isinstance(stacks[0], IntervalStack):
        return IntervalStack(np.concatenate([s.lo for s in stacks]),
                             np.concatenate([s.hi for s in stacks]), stacks[0].base)

    def joined(arrays, first=False):
        width = max(a.shape[1] for a in arrays)
        return np.concatenate([_widened(a, width, first) for a in arrays])

    banks = [s.bank for s in stacks]
    return ConeStack(
        A=joined([s.A for s in stacks]), strict=joined([s.strict for s in stacks]),
        real=joined([s.real for s in stacks]),
        interior=np.concatenate([s.interior for s in stacks]),
        slack=np.concatenate([s.slack for s in stacks]), dim=stacks[0].dim,
        bank=_Banks(joined([b.W for b in banks], True), joined([b.plus_above for b in banks], True),
                    np.concatenate([b.counts for b in banks]), joined([b.cuts for b in banks]),
                    np.concatenate([b.n_cuts for b in banks])),
    )


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x[..., j] * y[..., j], added in the order j = 0, 1, ...  Each
    value depends on its own operands only, never on the stack around them:
    a BLAS product over a padded block may round differently."""
    p = x * y
    out = p[..., 0] + p[..., 1] if p.shape[-1] > 1 else p[..., 0].copy()
    for j in range(2, p.shape[-1]):
        out += p[..., j]
    return out


def _build_cone_bank(A: np.ndarray, strict: np.ndarray, hint: np.ndarray | None) -> _Bank:
    """The generators of one cone {w : A w >= 0}: the one-cone call of
    `_build_cone_banks`."""
    hint = np.full((1, A.shape[1]), np.nan) if hint is None else hint[None]
    return _build_cone_banks(A[None], strict[None], hint)[0][0]


def _build_cone_banks(A: np.ndarray, strict: np.ndarray, hint: np.ndarray) -> tuple:
    """The generators of the cones {w : A[c] w >= 0} of a stack A (K, m, d)
    of unit rows, in which zero rows stand for no row (they pad a cone with
    fewer rows); `strict` (K, m) marks the rows of negative samples, and
    hint[c] is a strictly feasible unit normal of cone c, or NaN.  Returns
    the banks as one padded `_Banks`, whose `cuts` index the rows of A[c],
    and per cone the count of strict rows with no generator above
    STRICT_LP_TOL and the interior normal (see `_fit_cones`), as arrays.

    Each cone's rows are taken in ascending slack on a reference normal, so
    the first independent rows are tight near it.  The reference is the
    hint when there is one.  Otherwise it is the sum of the
    cone's rows (it must then have rows), after up to two perceptron steps
    that add the rows it violates: a guess at an interior point, which
    spares the build most cuts by rows that are no facets.  The first rows
    span the row space of A[c]; its complement null(A[c]) is the lineality
    space, and the pointed rest of the cone lies in the row space, where
    `_double_description` finds its extreme rays.  When those rows span
    R^d there is nothing to rotate.  The cuts are weighted by the inverse
    slack on the reference.  Cones of one rank share one double
    description.  Every step is batch-invariant, so a cone's bank is the
    same bits in any stack, alone included.
    """
    K, m, d = A.shape
    real = A.any(axis=2)
    ref = np.where(np.isnan(hint[:, :1]), A.sum(axis=1), hint)
    slack = _rowdot(A, ref[:, None, :])
    for _ in range(2):  # perceptron steps (a hint never violates a row)
        wrong = (slack <= 0.0) & real
        if not wrong.any():
            break
        ref = ref + (A * wrong[..., None]).sum(axis=1)
        slack = _rowdot(A, ref[:, None, :])
    slack[~real] = np.inf  # padding sorts last
    order = np.argsort(slack, axis=1, kind="stable")
    cone = np.arange(K)[:, None]
    A, slack = A[cone, order], slack[cone, order]
    weight = 1.0 / np.maximum(slack, 1e-300)
    strict = strict[cone, order]
    first, rank, inverse = _independent_rows(A)
    counts, n_cuts, missed = np.zeros((3, K), dtype=np.intp)
    cuts, interior = np.zeros((K, m), dtype=np.intp), np.empty((K, d))
    groups = []
    for k in sorted(set(rank.tolist())):
        group = np.flatnonzero(rank == k)
        if k == d:
            # the generators, each cone padded to the largest by -0.0 rows,
            # which change no sum
            W, n, cut, n_cut = _double_description(A[group], first[group], weight[group], inverse)
            # a row's norm depends on that row only; a ray's is >= 1
            W /= np.maximum(np.linalg.norm(W, axis=2, keepdims=True), 1e-300)
        else:  # rotate into the row space; null(A) is the lineality space
            bases = [np.linalg.svd(A[c, first[c, :k]])[2] for c in group]
            rows = np.zeros((group.size, m, k))
            for i, c in enumerate(group):
                n = int(np.isfinite(slack[c]).sum())
                rows[i, :n] = A[c, :n] @ bases[i][:k].T
            if k == 0:  # no rows: the cone is all of R^d
                R, n = np.zeros((group.size, 1, 0)), np.zeros(group.size, dtype=np.intp)
                cut, n_cut = np.zeros((group.size, 0), dtype=np.intp), n
            else:
                R, n, cut, n_cut = _double_description(rows, first[group, :k], weight[group],
                                                       inverse)
            gens = [np.vstack([rays / np.linalg.norm(rays, axis=1, keepdims=True) @ Vt[:k],
                               Vt[k:], -Vt[k:]]) for Vt, rays in
                    zip(bases, (R[i, :c] for i, c in enumerate(n.tolist())))]
            n = np.array([len(g) for g in gens])
            W = np.full((group.size, max(*n, 1), d), -0.0)
            for i, g in enumerate(gens):
                W[i, : len(g)] = g
        # a generator on a strict facet (<A_i, w> <= 1e-10 on a strict row)
        # is a +1 witness only above STRICT_LP_TOL, any other above the
        # float below -STRICT_LP_TOL.  The (rays, rows) values come in cone
        # blocks of at most SR_CHUNK_ELEMS // 4 entries; in any block shape
        # a tight generator's values are rounding errors, far below 1e-10
        plus_above = np.full(W.shape[:2], np.nextafter(-STRICT_LP_TOL, -np.inf))
        step = max(1, (SR_CHUNK_ELEMS >> 2) // max(W.shape[1] * m, 1))
        for lo in range(0, group.size, step):
            c = group[lo : lo + step]
            V = W[lo : lo + step] @ A[c].transpose(0, 2, 1)
            plus_above[lo : lo + step][((V <= 1e-10) & strict[c, None]).any(axis=2)] = STRICT_LP_TOL
            missed[c] = (strict[c] & ~(V > STRICT_LP_TOL).any(axis=1)).sum(axis=1)
        total = W.sum(axis=1)  # in ray order
        norm = np.sqrt(_rowdot(total, total))[:, None]
        interior[group] = np.where(norm > 1e-12, total / np.maximum(norm, 1e-300), W[:, 0])
        counts[group], n_cuts[group] = n, n_cut
        cuts[group, : cut.shape[1]] = order[group[:, None], cut]
        groups.append((group, W, plus_above))
    if len(groups) == 1:  # every cone: the group is the stack, in order
        _, W, plus_above = groups[0]
    else:
        width = max(W.shape[1] for _, W, _ in groups)
        W, plus_above = np.empty((K, width, d)), np.empty((K, width))
        for group, W_g, above in groups:
            W[group, : W_g.shape[1]], plus_above[group, : W_g.shape[1]] = W_g, above
    pad = np.arange(W.shape[1]) >= counts[:, None]  # then copies of each cone's first generator
    if pad.any():
        np.copyto(W, W[:, :1], where=pad[..., None])
        np.copyto(plus_above, plus_above[:, :1], where=pad)
    cuts = np.ascontiguousarray(cuts[:, : n_cuts.max()])  # the trials' stacks live on: trim them
    return _Banks(W, plus_above, counts, cuts, n_cuts), missed, interior


def _independent_rows(A: np.ndarray) -> tuple:
    """Per cone of the stack A (K, m, d), the rows independent of the rows
    before them, taken greedily in order: the residual after two
    Gram-Schmidt passes against the rows already taken must exceed 1e-10.
    Cone c takes rank[c] rows, first[c, :rank[c]].  Also the inverses of
    the cones' first d rows when those are every cone's answer, else None.

    Where a cone's first d rows have an inverse whose largest entry is
    below 1e9 / d, each of their residuals exceeds 1e-9 (the least singular
    value bounds them from below), so those rows are the answer, with no
    scan.  Other cones scan their rows, each keeping the rows taken so far
    in a (d, d) block, zero past them, so its products have one shape in
    any stack."""
    K, m, d = A.shape
    first = np.zeros((K, d), dtype=np.intp)
    rank = np.zeros(K, dtype=np.intp)
    inverse = None
    if m >= d:
        try:
            inverse = np.linalg.inv(A[:, :d])
            done = np.abs(inverse).max(axis=(1, 2)) < 1e9 / d
        except np.linalg.LinAlgError:  # some cone's first rows are singular
            done = np.zeros(K, dtype=bool)
        first[done] = np.arange(d)
        rank[done] = d
    live = np.flatnonzero(rank < d)
    if live.size:
        inverse = None
    Q = np.zeros((K, d, d)) if live.size else None
    for i in range(m if live.size else 0):
        q = Q[live]
        qt = q.transpose(0, 2, 1)
        r = A[live, i, :, None]
        r = r - qt @ (q @ r)
        r = (r - qt @ (q @ r))[..., 0]
        norm = np.sqrt(_rowdot(r, r))
        took = norm > 1e-10
        if took.any():
            c = live[took]
            Q[c, rank[c]] = r[took] / norm[took, None]
            first[c, rank[c]] = i
            rank[c] += 1
            live = live[rank[live] < d]
            if not live.size:
                break
    return first, rank, inverse


def _double_description(
    A: np.ndarray, first: np.ndarray, weight: np.ndarray, inverse: np.ndarray | None = None
) -> tuple:
    """Extreme rays of the pointed cones {u : A[c] u >= 0}, for a stack A
    (K, m, k) of rank-k row sets (zero rows pad the shorter ones), by
    double description, and the indices of the rows each cut with, as
    padded arrays: rays (K, R, k), cone c's counts[c] rays first and -0.0
    rows after them, and cuts (K, m), its first n_cuts[c] entries.  Rays
    are scaled to a largest |entry| of 1, a scale whose computation rounds
    nothing.  `inverse`, when given, holds the inverses of the cones' first
    rows.

    Cone c starts from the simplicial cone of its k independent rows
    first[c], then is cut by its other rows, one violated row at a time:
    the one with the least weight[c, i] * <r, A_i> over the current rays r.
    With weight[c, i] = 1 / <x, A_i> for a point x inside the cone, that
    row is the first hyperplane crossed by a segment from x to a violated
    ray, a facet of the cone, so no cut is spent on a redundant row.  Any
    positive weights give the same cone; rows with huge weights (x on their
    wrong side) go first.  A cut keeps the rays it does not violate and
    adds, for every adjacent pair of a kept ray p and a violated ray n, the
    combination of the two on the cut's hyperplane.
    Adjacency is combinatorial and reads which cut rows are tight at each
    ray, within 1e-10: p and n share at least k - 2 tight cuts (test 1,
    `_pair_candidates`), and no third ray is tight on all of those (test 2,
    `_held_by_two`).  Test 2 cannot fail where they share exactly k - 2 and
    one of them is tight on exactly k - 1, the least any ray is tight on:
    those k - 2 rows are then independent and span a 2-dimensional face,
    whose only extreme rays are p and n; it runs only on the pairs past
    those counts.  A row the current cone already satisfies is dropped,
    since later cuts only shrink the cone; the rows cut with therefore
    describe the same cone as A[c].

    Every cone still cutting takes its step with the others, in array
    operations over the stack.  A ray is one row of X, [u | values <u, A_i>
    per row], and one row of F, [1 | tight flag per cut], in float32, whose
    0/1 counts are exact.  Both are buffers with spare rows: new rays go
    below the rows in use, and the rows of rays a cut removed are zeroed, so
    a cut copies neither.  When a cut finds no room, the stack is compacted
    into buffers of twice the rows it needs, without the zero rows and the
    value columns of rows no cone has pending, in one gather.  A value is
    read only while its row is pending, so no zero row is ever violated,
    positive or tight.
    A cone without a violated row is done: its cut count is kept, and it
    waits in the stack with its negative and positive flags masked off, so
    it neither loses nor gains a ray.  Once half the stack or more is done,
    the done cones leave together, their rays gathered in buffer order in
    one index, and the cones still cutting move to the front of X and F in
    place.  So a stack of K cones leaves in at most log2(K) + 1 groups,
    which `_by_cone` puts together, and no step copies the stack.
    A new ray's values are the combination of its parents' values that makes
    the ray, formed in place, so no step forms a product with A.  Values and
    combinations are elementwise or summed over k in a fixed order
    (`_rowdot`), comparisons and extrema are exact, and the pair tests count
    0/1 flags, which is exact in any order, so a cone's rays are the same
    bits in any stack.  More than RAY_CAP rays in a cone after any cut raise
    DegenerateVersionSpaceError.
    """
    K, m, k = A.shape
    tol = 1e-10
    ar = np.arange(K)
    if inverse is None:  # of the first rows
        inverse = np.linalg.inv(A[ar[:, None], first])
    R = inverse.transpose(0, 2, 1)  # ray j tight on all first rows but j
    R = R / np.abs(R).max(axis=2, keepdims=True)
    X = np.zeros((K, 4 * k, k + m))  # 3k spare rows
    X[:, :k, :k] = R
    values = X[:, :k, k:]  # >= -tol on the first rows
    for j in range(k):  # _rowdot's order, without the (rays, rows, k) product
        values += R[:, :, j, None] * A[:, None, :, j]
    cap = min(m, 2 * k + 8)  # flag columns, grown when full
    F = np.zeros((K, 4 * k, 1 + cap), dtype=np.float32)
    F[:, :k, 0] = 1.0
    F[:, :k, 1 : k + 1] = 1.0 - np.eye(k, dtype=np.float32)
    used = k  # rows of X and F in use
    rows = np.arange(m)  # the row of each value column
    pending = np.ones((K, m), dtype=bool)
    cuts = np.empty((K, m), dtype=np.intp)
    cuts[:, :k] = first
    n_cut = k
    least = max(k - 1, 1)  # shared flags of an adjacent pair: 1, and k - 2 cuts
    cone = ar  # each stack row's cone in the input
    own = np.full(K, -1)  # each stack row's cut count once done, -1 while it cuts
    done_at: list = []  # per group of cones that leave: (cones, rays, counts, cuts, n_cuts)
    while True:
        V = X[:, :used, k:]
        low = V.min(axis=1, initial=np.inf)
        violated = (low < -tol) & pending
        live = violated.any(axis=1)
        wait = not live.all()
        if wait:
            own[~live & (own < 0)] = n_cut
        if wait and 2 * np.count_nonzero(live) <= cone.size:
            # half the stack or more is done: the done cones leave, with
            # their rays in buffer order and their own cuts
            wait = False
            done = np.flatnonzero(~live)
            alive = F[done, :used, 0] > 0.0
            count = alive.sum(axis=1)
            slots = np.argsort(~alive, axis=1, kind="stable")[:, : max(count.max(), 1)]
            rays = X[done[:, None], slots, :k]
            if count.min() < slots.shape[1]:  # pad the shorter cones with -0.0 rays
                rays[np.arange(slots.shape[1]) >= count[:, None]] = -0.0
            n_done = own[done]
            cut = cuts[done, : n_done.max()]
            if n_done.min() < cut.shape[1]:  # zero the cuts past each cone's own
                cut[np.arange(cut.shape[1]) >= n_done[:, None]] = 0
            done_at.append((cone[done], rays, count, cut, n_done))
            if not live.any():
                return _by_cone(done_at, K)
            stay = np.flatnonzero(live)
            for i, c in enumerate(stay.tolist()):  # to the front, in place: no copy of the stack
                if i != c:
                    X[i], F[i] = X[c], F[c]
            X, F, low, violated = X[: stay.size], F[: stay.size], low[stay], violated[stay]
            weight, cuts, cone, own = weight[stay], cuts[stay], cone[stay], own[stay]
            ar = np.arange(cone.size)
            V = X[:, :used, k:]
        j = np.where(violated, low * weight, np.inf).argmin(axis=1)
        vals = V[ar, :, j]
        neg = vals < -tol
        pos = vals > tol
        if wait:  # the done cones that wait neither cut nor add rays
            neg &= live[:, None]
            pos &= live[:, None]
        cuts[:, n_cut] = rows[j]
        # the rows still violated, but the one cut now, stay pending
        pending = violated
        pending[ar, j] = False
        if n_cut == cap:
            grow = min(cap, m - cap)
            F = np.concatenate([F, np.zeros(F.shape[:2] + (grow,), dtype=F.dtype)], axis=2)
            cap += grow
        F[:, :used, 1 + n_cut] = ~(neg | pos)
        n_cut += 1
        Fu = F[:, :used, : 1 + n_cut]
        c, p, n = _pair_candidates(Fu, pos, neg, least)
        Fp, Fn = Fu[c, p], Fu[c, n]
        common = Fp * Fn
        doubt = common.sum(axis=1) + np.minimum(Fp.sum(axis=1), Fn.sum(axis=1)) > 2 * k - 1
        if doubt.any():
            keep = ~doubt
            keep[doubt] = _held_by_two(Fu, c[doubt], common[doubt])
            c, p, n, common = c[keep], p[keep], n[keep], common[keep]
        new = X[c, n]
        new *= vals[c, p, None]
        other = X[c, p]
        other *= vals[c, n, None]
        new -= other
        del other
        new /= np.abs(new[:, :k]).max(axis=1, keepdims=True)
        common[:, n_cut] = 1.0  # tight on the cut that made it
        gone = np.nonzero(neg)
        X[gone] = 0.0
        F[gone] = 0.0
        slot = np.arange(c.size) - np.searchsorted(c, c)  # c is sorted
        added = int(slot.max()) + 1 if c.size else 0
        if used + added > min(X.shape[1], RAY_CAP):
            alive = F[:, :used, 0] > 0.0
            kept = alive.sum(axis=1)
            if kept.max() + added > RAY_CAP:
                count = kept + np.bincount(c, minlength=cone.size)
                if count.max() > RAY_CAP:
                    raise DegenerateVersionSpaceError(
                        f"the cone's ray build reached {count[count > RAY_CAP][0]} rays, "
                        f"above the cap of {RAY_CAP}"
                    )
        if used + added > X.shape[1]:  # no room: drop the zero rows, and the values no cone reads
            used = int(kept.max())
            slots = np.argsort(~alive, axis=1, kind="stable")[:, :used]
            rest = np.flatnonzero(pending.any(axis=0))
            cols = np.concatenate([np.arange(k), k + rest])
            size = 2 * (used + added)
            Xc = np.zeros((cone.size, size, cols.size))
            Xc[:, :used] = X[ar[:, None, None], slots[..., None], cols]
            Fc = np.zeros((cone.size, size, F.shape[2]), dtype=F.dtype)
            Fc[:, :used] = F[ar[:, None], slots]
            X, F = Xc, Fc
            pending, rows, weight = pending[:, rest], rows[rest], weight[:, rest]
            new = new[:, cols]
        slot += used
        X[c, slot] = new
        F[c, slot, : 1 + n_cut] = common
        used += added


def _by_cone(done_at: list, K: int) -> tuple:
    """The (rays, counts, cuts, n_cuts) of `_double_description` from the
    groups of cones that left the stack together, (cones, rays, counts,
    cuts, n_cuts) each, in input order: padded by -0.0 rays and zero
    cuts."""
    if len(done_at) == 1:  # every cone at once, in order
        return done_at[0][1:]
    rays = np.full((K, max(g[1].shape[1] for g in done_at), done_at[0][1].shape[2]), -0.0)
    cuts = np.zeros((K, max(g[3].shape[1] for g in done_at)), dtype=np.intp)
    counts, n_cuts = np.empty(K, dtype=np.intp), np.empty(K, dtype=np.intp)
    for cone, r, count, cut, n_cut in done_at:
        rays[cone, : r.shape[1]], cuts[cone, : cut.shape[1]] = r, cut
        counts[cone], n_cuts[cone] = count, n_cut
    return rays, counts, cuts, n_cuts


def _pair_candidates(F: np.ndarray, pos: np.ndarray, neg: np.ndarray, least: int) -> tuple:
    """The pairs (c, p, n) of a positive ray p and a negative ray n of cone
    c that share at least `least` of the 0/1 flags F (K, rays, f), sorted.
    The shared counts are products of every ray's flags, zero unless the
    ray is positive, with those of each cone's negative rays (the fewer, as
    a cut removes few rays), in blocks of at most SR_CHUNK_ELEMS entries.
    Pairs sharing fewer flags are no adjacent pairs."""
    K, r, _ = F.shape
    cone = np.arange(K)[:, None]
    N = np.argsort(~neg, axis=1, kind="stable")[:, : neg.sum(axis=1).max()]
    FN = (F[cone, N] * neg[cone, N][..., None]).transpose(0, 2, 1)  # zero past the negative rays
    FP = F * pos[..., None]
    step = max(1, SR_CHUNK_ELEMS // max(K * N.shape[1], 1))
    found = [(lo, *np.nonzero(_flag_product(FP[:, lo : lo + step], FN) >= least))
             for lo in range(0, max(r, 1), step)]
    if len(found) == 1:  # sorted already
        _, c, p, j = found[0]
        return c, p, N[c, j]
    c = np.concatenate([b for _, b, _, _ in found])
    order = np.argsort(c, kind="stable")
    p = np.concatenate([lo + i for lo, _, i, _ in found])
    n = np.concatenate([N[b, j] for _, b, _, j in found])
    return c[order], p[order], n[order]


def _held_by_two(F: np.ndarray, c: np.ndarray, common: np.ndarray) -> np.ndarray:
    """Per pair i of rays of cone c[i] (sorted) sharing the 0/1 flags
    common[i]: whether exactly two rows of F[c[i]], the flags of the cone's
    rays, hold every shared flag.  The pairs are padded per cone, and the
    (pairs, rays) counts are formed in blocks of at most SR_CHUNK_ELEMS
    entries."""
    slot = np.arange(c.size) - np.searchsorted(c, c)
    P = np.zeros((F.shape[0], slot.max() + 1, F.shape[2]), dtype=F.dtype)
    P[c, slot] = common
    Ft = F.transpose(0, 2, 1)
    holders = np.empty(P.shape[:2])
    step = max(1, SR_CHUNK_ELEMS // max(F.shape[0] * F.shape[1], 1))
    for lo in range(0, P.shape[1], step):
        block = P[:, lo : lo + step]
        holders[:, lo : lo + step] = (_flag_product(block, Ft)
                                      == block.sum(axis=2, keepdims=True)).sum(axis=2)
    return holders[c, slot] == 2


@np.errstate(invalid="ignore")
def _flag_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of float32 0/1 flags.  No product or sum of 0s and 1s is
    invalid, so an "invalid value" warning here would be a stale status
    flag of the BLAS kernel, one that fails at random a run that turns
    warnings into errors; it is ignored."""
    return a @ b


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
    agreement region, with the minimising generator.  No query calls it:
    `attack_directions` finds that generator for every row at once."""
    z = _as_point(z, dim=vs.dim)
    W = vs.rays()
    vals = W @ (float(agreed_sign) * z)
    j = int(np.argmin(vals))
    return ConeDistanceInfo(value=max(float(vals[j]), 0.0), best_w=W[j])


VersionSpace = IntervalVS | ConeVS


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _fit_cones(X: np.ndarray, y: np.ndarray, interior_hint: np.ndarray | None) -> ConeStack:
    """The cones of the samples' consistent normals, with their generators
    and what those decide, from one `_build_cone_banks` call over the
    stack.  A hint, where it is strictly feasible, only orders the rows.

    A sample is strictly consistent iff every negative-label (strict) row
    has a generator w with <w, A_i> > STRICT_LP_TOL: each such row then has
    a consistent normal strictly inside it, and their sum serves every row
    at once.  The interior is the normalised sum of the generators, where
    the +-l of the lineality basis cancel, leaving the extreme rays: it is
    strictly positive on every row that some consistent normal is strictly
    positive on.  When that sum is about 0 the cone is a linear subspace,
    and its first generator will do.  The first sample that fails raises.
    """
    K, m, d = X.shape
    A = y[..., None] * X
    norms = np.sqrt(_rowdot(A, A))
    real = norms > 0.0  # zero points, and padding, are no row
    strict = y < 0
    if np.any(~real & strict):
        raise RealizabilityError("the origin always receives label +1")
    A /= np.where(real, norms, 1.0)[..., None]
    hint = np.full((K, d), np.nan)
    if interior_hint is not None:
        w = np.asarray(interior_hint, dtype=float).reshape(-1)
        if w.shape[0] == d and np.linalg.norm(w) > 1e-12:
            w = w / np.linalg.norm(w)
            fits = np.where(real, _rowdot(A, w), math.inf).min(axis=1, initial=math.inf)
            hint[fits > STRICT_LP_TOL] = w
    banks, missed, interior = _build_cone_banks(A, strict, hint)
    failed = (banks.counts == 0) | (missed > 0)
    if failed.any():
        c = int(np.argmax(failed))
        if not banks.counts[c]:
            raise RealizabilityError("feasible normals reduce to the zero vector")
        raise RealizabilityError(f"no strictly consistent linear separator: no consistent "
                                 f"normal is strictly negative on {missed[c]} negative sample(s)")
    slack = np.where(real, _rowdot(A, interior[:, None]), math.inf).min(axis=1, initial=math.inf)
    return ConeStack(A=A, strict=strict, real=real, interior=interior, slack=slack, dim=d,
                     bank=banks)


def fit_batch(m: int, d: int) -> int:
    """How many samples of m points in R^d one stack (`fit_stack`) holds at
    most: SR_CHUNK_ELEMS entries of the ray build's buffers (X and F of
    `_double_description`, spare rows included) in all, at a share of
    max(m, 2^d) * 2^(d + 2) per sample.  A cone's buffers hold its rays
    times its value and flag columns; the columns grow with m and the rays
    with d, so the share counts at least 2^d points: at d = 8 the peaks
    barely depend on m.  A stack pads each cone to its largest, so one cone
    above its share stretches the buffers of its whole stack.  Measured
    peaks per cone (one-cone fits of Gaussian samples, hinted and unhinted,
    at most; the share in brackets): 936 for d = 3, m = 60 (1 920); 8 624
    for d = 5, m = 40 (5 120), unhinted only, so a stack of 51 such samples
    may reach 1.7 * SR_CHUNK_ELEMS (a 300-trial `verify_contract` call then
    runs 11 % faster than in stacks of 26, at a 27 % higher tracemalloc
    peak), and 6 952 for m = 100 (12 800); 19 008 for d = 6, m = 100
    (25 600); for d = 8, 222 288 at m = 100 and 233 216 at m = 200
    (262 144), and 590 000 for a cone of 3 000 rays, so such samples are
    built one at a time."""
    return max(1, SR_CHUNK_ELEMS // (max(m, 1 << d) << (d + 2)))


def sub_batches(n: int, m: int, d: int) -> range:
    """The starts of the sub-batches in which n samples of m points in R^d
    are fitted, each sub-batch `step` samples long (the last one may be
    shorter): the fewest sub-batches that `fit_batch(m, d)` allows, of
    near-equal size.  Where `fit_batch` is 136, 301 samples run as 101 +
    101 + 99."""
    parts = -(-n // fit_batch(m, d))
    return range(0, n, -(-n // parts) if n else 1)


def fit_stack(
    X: np.ndarray, y: np.ndarray, concept: ConceptClass, interior_hint: np.ndarray | None = None
) -> ConeStack | IntervalStack:
    """`fit_version_space` of each sample (X[c], y[c]) of a stack X (K, m,
    d), y (K, m), in one pass, as one stack of arrays (stack[c] is the
    space of sample c); label 0 marks a padding row, which is no point of
    its sample.  The stack is not checked here (`Dataset` and
    `check_labelled` check samples).  Linear samples share one ray build,
    so a stack holds at most `fit_batch(m, d)` of them, and each cone is
    the same bits as its one-sample fit."""
    if concept == "linear":
        return _fit_cones(X, y, interior_hint)
    # intervals: (lo, hi] is (largest negative, smallest positive] of the
    # cut coordinates; the first sample without a consistent cut raises
    vs = IntervalVS(-math.inf, math.inf, getattr(concept, "base", None))
    if concept != "threshold" and vs.base is None:
        raise ValueError(f"unknown concept class {concept!r}")
    if concept == "threshold" and X.shape[2] != 1:
        raise ValueError("threshold concepts act on 1-d data")
    U = vs.coords(X.reshape(-1, X.shape[2])).reshape(y.shape) if y.size else y
    lo = np.where(y < 0, U, -math.inf).max(axis=1, initial=-math.inf)
    hi = np.where(y > 0, U, math.inf).min(axis=1, initial=math.inf)
    failed = ~(lo < hi)
    if failed.any():
        a, b = lo[failed][0].item(), hi[failed][0].item()
        raise RealizabilityError(
            f"no consistent cut: largest negative {a} >= smallest positive {b}")
    return IntervalStack(lo, hi, vs.base)


def fit_version_spaces(
    samples: list, concept: ConceptClass, interior_hint: np.ndarray | None = None
) -> list[VersionSpace]:
    """`fit_version_space` of each sample, in order: the samples (of one
    dimension) stacked, zero rows of label 0 padding the shorter ones, and
    `fit_stack` of each sub-stack (`sub_batches`)."""
    if not samples:
        return []
    d = samples[0].dimension
    if any(S.dimension != d for S in samples):
        raise ValueError("a batch of fits needs samples of one dimension")
    X = np.zeros((len(samples), max(len(S) for S in samples), d))
    y = np.zeros(X.shape[:2], dtype=np.int64)
    for c, S in enumerate(samples):
        X[c, : len(S)], y[c, : len(S)] = S.X, S.y
    starts = sub_batches(len(samples), X.shape[1], d)
    return [vs for lo in starts
            for vs in fit_stack(X[lo : lo + starts.step], y[lo : lo + starts.step], concept,
                                interior_hint)]


def fit_version_space(
    S: Dataset, concept: ConceptClass, interior_hint: np.ndarray | None = None
) -> VersionSpace:
    """Exact representation of the hypotheses consistent with S: the
    one-sample call of `fit_stack`.

    `interior_hint` optionally supplies a known strictly-consistent normal
    for a linear concept; the ray build then takes the rows in ascending
    slack on it, which speeds the build and changes no member: the interior
    comes from the cone's own generators.  A hint that is not strictly
    feasible is ignored.  A linear fit raises DegenerateVersionSpaceError
    when its ray build exceeds RAY_CAP.
    """
    return fit_stack(S.X[None], S.y[None], concept, interior_hint)[0]


def erm(S: Dataset, concept: ConceptClass) -> Hypothesis:
    """A canonical zero-error hypothesis: the interval midpoint, or for
    linear separators the max-margin LP direction, max s with <A_i, w> >= s
    and |w|_inf <= 1.

    The LP runs over the rows the ray build cut with.  Those describe the
    same cone, so every other unit row is a conic combination of them whose
    weights sum to at least 1, and it cannot bind at a margin >= 0: the LP's
    margin is the margin over all rows, at a size that does not grow with
    m.  A cone without rows or without interior (margin <= STRICT_LP_TOL)
    gives the cone's interior normal instead.
    """
    vs = fit_version_space(S, concept)
    if isinstance(vs, IntervalVS):
        return Threshold(vs.canonical) if vs.base is None else OffsetBoundary(vs.base, vs.canonical)
    if vs.A.shape[0]:
        w, s = max_margin_direction(vs.A[vs.bank.cuts])
        if s > STRICT_LP_TOL:
            return LinearHomogeneous(w / np.linalg.norm(w))
    return LinearHomogeneous(vs.interior)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def check_width(vs: VersionSpace, X: np.ndarray) -> None:
    """Raise DimensionMismatchError unless the rows of X have the width the
    version space fixes (any width for offsets: their base checks it)."""
    if vs.dim is not None and X.shape[1] != vs.dim:
        raise DimensionMismatchError(
            f"version space dimension {vs.dim} != point dimension {X.shape[1]}"
        )


def mask_blocks(vss, n: int, d: int) -> list[range]:
    """The trial blocks of `stack_query` for n points in R^d per space of
    the stack vss (`as_stack`): runs of consecutive spaces whose count,
    times the largest width among them (d, or a cone's generator count
    where that is larger), times n stays within SR_CHUNK_ELEMS >> 5
    entries.  A space over that share is a block of its own."""
    vss = as_stack(vss)
    cone = isinstance(vss, ConeStack)
    widths = np.maximum(vss.bank.counts, d) if cone else np.full(len(vss), d)
    if len(vss) * widths.max(initial=0) * n <= SR_CHUNK_ELEMS >> 5:  # one block holds all
        return [range(len(vss))] if len(vss) else []
    blocks, lo = [], 0
    while lo < len(vss):  # the longest run from lo within the share, one space at least
        tops = np.maximum.accumulate(widths[lo:])
        fits = np.arange(1, tops.size + 1) * tops * n <= SR_CHUNK_ELEMS >> 5
        size = tops.size if fits.all() else max(int(np.argmin(fits)), 1)
        blocks.append(range(lo, lo + size))
        lo += size
    return blocks


def _top(vss, rows) -> int:
    """The largest generator count of the cones vss[rows], 1 for intervals:
    a block's padded width."""
    return int(vss.bank.counts[rows].max()) if isinstance(vss, ConeStack) else 1


def chunk_points(part) -> int:
    """Points per chunk of `_query_blocks` for the block of spaces `part`
    (a stack): the (spaces, rays, points) values of a chunk stay within
    SR_CHUNK_ELEMS, with one ray per interval.  A block of several spaces
    is one chunk (`mask_blocks` keeps it within a share of SR_CHUNK_ELEMS)."""
    return _chunk(len(part), _top(part, slice(None)))


def _chunk(spaces: int, top: int) -> int:
    """`chunk_points` of a block of `spaces` spaces of padded width `top`."""
    return max(1, SR_CHUNK_ELEMS // (spaces * top))


def _query_blocks(vss, T: np.ndarray, visit) -> None:
    """visit(rows, cols, P, G, V, codes) per block of the stack T: a run of
    spaces `rows` (`mask_blocks`) of the stack vss (`as_stack`) and a chunk
    of points `cols` (`chunk_points`), P = T[rows, cols], and the codes
    (`_codes`).  Cones: G = (W, above), the views W[rows, :top] and
    plus_above[rows, :top] of the padded generators, top the block's largest
    count (any, min, max and the first argmin of a cone are its own); V =
    W @ P^T.  Intervals: G = (lo, hi, scale), (spaces, 1) each; V the cut
    coordinates.  A block's values are freed before the next one's form."""
    vss = as_stack(vss)
    _, n, d = T.shape
    for block in mask_blocks(vss, n, d):
        rows = slice(block.start, block.stop)
        top = _top(vss, rows)
        if isinstance(vss, ConeStack):
            G = (vss.bank.W[rows, :top], vss.bank.plus_above[rows, :top, None])
        else:
            G = (vss.lo[rows, None], vss.hi[rows, None], vss._scale)
        step = _chunk(len(block), top)
        for lo in range(0, n, step):
            cols = slice(lo, lo + step)
            visit(rows, cols, *_block_values(vss, G, T[rows, cols]))


def _block_values(vss, G: tuple, P: np.ndarray) -> tuple:
    """(P, G, V, codes) of a block of `_query_blocks` of the stack vss."""
    if isinstance(vss, ConeStack):
        V = G[0] @ P.transpose(0, 2, 1)
        return P, G, V, _codes((V > G[1]).any(axis=1), (V < -STRICT_LP_TOL).any(axis=1))
    V = vss.coords(P.reshape(-1, P.shape[2])).reshape(P.shape[:2])  # one base for the class
    # a cut t in (lo, hi] labels u +1 when u >= t: some cut does so when
    # u > lo, and some labels it -1 when u < hi
    return P, G, V, _codes(V > G[0], V < G[1])


def stack_query(vss, T: np.ndarray, need: float | None = None,
                hstar: Hypothesis | None = None, eta: float | None = None):
    """The points T[k] (n, d) of a stack T (K, n, d) against vss[k], K
    fitted spaces of one class (a stack, or a list: `as_stack`), in one
    blocked pass (`_query_blocks`).

    Without `need` or `eta`: the codes (int8) and the distances to the
    disagreement region (0 on disputed points), (K, n) each.  Else a (K, n)
    bool mask, reduced per block: with a cap radius `eta`, the agreed
    points whose cap of B(x, eta) with hstar's label of x stays unanimous;
    else the points at distance >= need > 0, or the agreed ones at need 0.
    A cone decides need > 0 from each point's least and largest value, as
    `_ray_gap(V, codes) >= need` would, without forming the distances.
    Every value is its one-space query's, but a cone's padded
    matrix-vector product (n = 1) may round differently from its own."""
    vss = as_stack(vss)
    K, n, _ = T.shape
    mask = need is not None or eta is not None
    out = np.empty((K, n), dtype=bool if mask else np.int8)
    dist = None if mask else np.empty((K, n))
    cone = isinstance(vss, ConeStack)

    def visit(rows, cols, P, G, V, codes):
        if eta is not None:
            caps = (_unanimous_caps if cone else _unanimous_cuts)(G, V, hstar, P, eta)
            out[rows, cols] = (codes != 0) & caps
        elif need == 0.0:
            out[rows, cols] = codes != 0
        elif need is None:
            out[rows, cols] = codes
            dist[rows, cols] = _ray_gap(V, codes) if cone else _cut_gap(V, *G)
        elif cone:
            # _ray_gap(V, codes) >= need > 0: the gap is max(min, 0), or
            # max(-max, 0) where the code is -1 (and min < 0)
            out[rows, cols] = (V.min(axis=1) >= need) | ((V.max(axis=1) <= -need) & (codes < 0))
        else:
            out[rows, cols] = _cut_gap(V, *G) >= need

    _query_blocks(vss, T, visit)
    return out if mask else (out, dist)


def _unanimous_cuts(G: tuple, u: np.ndarray, hstar, P: np.ndarray, eta: float) -> np.ndarray:
    """The cap test of a block of intervals G = (lo, hi, scale), in closed
    form: the cut values that the same-label part of each eta-ball around
    P reaches (from u, their cut coordinates) must miss (lo, hi)."""
    lo, hi, scale = G
    if not isinstance(hstar, (Threshold, OffsetBoundary)):
        raise ValueError("target concept does not match the version space")
    cut = hstar.t if isinstance(hstar, Threshold) else hstar.offset
    y = hstar.predict_many(P.reshape(-1, P.shape[2])).reshape(u.shape)
    reach = eta / scale  # residual reach of the eta point ball
    cap_lo = np.where(y > 0, np.maximum(u - reach, cut), u - reach)
    cap_hi = np.where(y > 0, u + reach, np.minimum(u + reach, cut))
    return ~((cap_lo < hi) & (cap_hi > lo))


def _unanimous_caps(G: tuple, V: np.ndarray, hstar, P: np.ndarray, eta: float) -> np.ndarray:
    """Per point x of each cone: whether the part of B(x, eta) sharing the
    target label y keeps <w, y*z> >= 0 for every generator w (sufficient
    on the generators' conic hull because the cap minimum is superadditive
    in w).  G = (W, above) holds the cones' generators W (K, rays, d), P
    (K, n, d) their points, and V (K, rays, n) the values of W at them.

    With u = y*w and a = y*w*, the minimum of <u, z> over B(x, eta) cut by
    {a.z >= 0} is <u, x> - eta*|u| when the free minimiser x - eta*u/|u|
    lies in the cut, and otherwise sits on the face a.z = 0.  Generators
    enter only through |w|, w.w* and |w - (w.w*) w*|; points only through
    x.w and x.w*.  The arrays are (K, rays, points), reduced over the
    generators."""
    if not isinstance(hstar, LinearHomogeneous):
        raise ValueError("target concept does not match the version space")
    W, wstar = G[0], hstar.w
    nu = np.linalg.norm(W, axis=2)[:, :, None]
    ua = (W @ wstar)[:, :, None]  # u.a for either label
    ut = np.linalg.norm(W - ua * wstar, axis=2)[:, :, None]
    step = eta / nu
    s = hstar.margins(P.reshape(-1, P.shape[2])).reshape(V.shape[0], 1, V.shape[2])
    y = np.where(s >= 0.0, 1.0, -1.0)
    ax = y * s  # a.x >= 0: the cap is never empty
    ux = y * V
    free = ax - step * ua >= 0.0
    beta = np.maximum(-ax, -eta)  # move this far along a to reach a.z = 0
    rad = np.sqrt(np.maximum(eta * eta - beta * beta, 0.0))
    face = ux + beta * ua - rad * ut
    low = np.where(free, ux - eta * nu, face)
    return ~(low < 0.0).any(axis=1)


def attack_directions(vss, X: np.ndarray, rngs: list) -> np.ndarray:
    """Per row i, a unit step from X[i] toward the points vss[i] disputes.

    A cone row steps against the first generator w of vss[i] with the least
    code * <w, x>, from the values of the blocked pass (`_query_blocks`):
    along -w where <w, x> >= 1e-15, else along w.  An interval row steps
    along the last axis toward the disputed cuts.  A disputed row draws
    from its own generator rngs[i], in row order: a random unit for a cone,
    a coin flip for an interval.
    """
    vss = as_stack(vss)
    if isinstance(vss, IntervalStack):
        codes = stack_query(vss, X[:, None])[0][:, 0]
        D = np.zeros(X.shape)
        D[:, -1] = -codes
        for i in np.flatnonzero(codes == 0):
            D[i, -1] = 1.0 if rngs[i].random() < 0.5 else -1.0
        return D
    codes = np.empty(len(vss), dtype=np.int8)
    nearest = np.empty(X.shape)

    def visit(rows, cols, P, G, V, code):
        first = np.argmin(code[:, None, :] * V, axis=1)[:, 0]
        codes[rows], nearest[rows] = code[:, 0], G[0][np.arange(len(first)), first]

    _query_blocks(vss, X[:, None], visit)
    margins = np.array([w @ x for w, x in zip(nearest, X)])  # each row's one-point dot
    D = np.where(margins >= 1e-15, -1.0, 1.0)[:, None] * nearest
    for i in np.flatnonzero(codes == 0):
        D[i] = _random_unit(rngs[i], X.shape[1])
    return D


def random_members(vss, rngs: list) -> np.ndarray:
    """A random consistent member of each version space vss[i] (of one
    class; `as_stack`), away from its boundary, drawn from rngs[i]: (K, d)
    unit normals for cones, (K,) cuts for intervals.  Each generator draws
    the interior fraction first (`_interior_fraction`).  A cone with rows
    then draws a unit vector g and a step fraction s, and its member is the
    interior normal plus 0.45 * slack * s * g; a cone without rows draws a
    Gaussian normal.  An interval's cut sits at that fraction of a bounded
    interval, a uniform step inside a half-infinite one, or a Gaussian
    draw on the whole line."""
    vss = as_stack(vss)
    if isinstance(vss, IntervalStack):
        cuts = np.empty(len(vss))
        for i, (lo, hi, rng) in enumerate(zip(vss.lo.tolist(), vss.hi.tolist(), rngs)):
            u = _interior_fraction(rng)
            if math.isinf(lo) and math.isinf(hi):
                cuts[i] = rng.standard_normal()
            elif math.isinf(lo) or math.isinf(hi):
                cuts[i] = hi - rng.random() if math.isinf(lo) else lo + rng.random()
            else:
                cuts[i] = lo + u * (hi - lo)
        return cuts
    V = np.empty((len(vss), vss.dim))
    step = np.empty(len(vss))
    for i, (slack, rows, rng) in enumerate(zip(vss.slack.tolist(), vss.real.any(axis=1).tolist(),
                                               rngs)):
        _interior_fraction(rng)  # unused by cones; drawn to keep the stream order
        rng.standard_normal(out=V[i])
        step[i] = 0.45 * slack * rng.random() if rows else math.inf
    full = np.isfinite(step)  # a cone without rows keeps its Gaussian draw
    g = V[full] / np.maximum(np.linalg.norm(V[full], axis=1), 1e-300)[:, None]
    V[full] = vss.interior[full] + step[full, None] * g
    norms = np.linalg.norm(V, axis=1)
    if not (np.all(np.isfinite(V)) and np.all(norms >= 1e-12)):
        raise ValueError("weight vector must be finite and nonzero")
    return V / norms[:, None]


def member_labels(vs, members: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The labels (+1 or -1, sign(0) = +1) of the points P[i] (n, d) by
    members[i], members of the class of `vs` (a space or a stack) as
    `random_members` gives them: a row-wise product with the unit normal
    for cones, the cut coordinate minus the cut for intervals."""
    if isinstance(vs, _Cuts):
        margins = vs.coords(P.reshape(-1, P.shape[2])).reshape(P.shape[:2]) - members[:, None]
    else:
        margins = _rowdot(P, members[:, None, :])
    return np.where(margins >= 0.0, 1, -1)
