"""Small dense LP solver for homogeneous-cone feasibility problems.

Solves   max c.x   s.t.  G x >= 0,  lo <= x <= hi   (componentwise box)

The feasible set always contains x = 0 (the box must straddle the origin),
so no phase-one pass is needed: splitting x into positive and negative
parts yields a starting basis of slacks that is feasible outright.  Bland's
rule keeps the (heavily degenerate) start from cycling.

Problem sizes here are tiny: tens of constraints, < 10 variables.  A dense
tableau is faster than anything clever at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-10


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    value: float
    iterations: int


class LPError(RuntimeError):
    """Solver failed to terminate cleanly (should not happen on valid input)."""


def maximize_over_cone_box(
    c: np.ndarray,
    G: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    max_iter: int = 20000,
) -> LPResult:
    """Maximize c.x subject to G x >= 0 and lo <= x <= hi.

    Requires lo <= 0 <= hi so that the origin is feasible.
    """
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = c.shape[0]
    if G.ndim != 2 or G.shape[1] != n:
        raise ValueError(f"constraint matrix shape {G.shape} incompatible with {n} variables")
    if np.any(lo > EPS) or np.any(hi < -EPS):
        raise ValueError("box must contain the origin")
    m = G.shape[0]

    # Standard form variables: x+ (n), x- (n), s (m) cone slacks,
    # t+ (n), t- (n) box slacks.  The slack s = G x >= 0 is written with a
    # +identity column block so the slack basis is canonical:
    #   -G x+ + G x- + s      = 0
    #   x+            + t+    = hi
    #   x-            + t-    = -lo
    ncols = 4 * n + m
    nrows = m + 2 * n
    T = np.zeros((nrows + 1, ncols + 1))
    T[:m, :n] = -G
    T[:m, n : 2 * n] = G
    T[:m, 2 * n : 2 * n + m] = np.eye(m)
    rows_tp = slice(m, m + n)
    rows_tm = slice(m + n, m + 2 * n)
    T[rows_tp, :n] = np.eye(n)
    T[rows_tp, 2 * n + m : 3 * n + m] = np.eye(n)
    T[rows_tp, -1] = hi
    T[rows_tm, n : 2 * n] = np.eye(n)
    T[rows_tm, 3 * n + m : 4 * n + m] = np.eye(n)
    T[rows_tm, -1] = -lo
    # objective row: minimize -c.x+ + c.x-
    T[-1, :n] = -c
    T[-1, n : 2 * n] = c

    basis = np.concatenate(
        [
            np.arange(2 * n, 2 * n + m),  # cone slacks, basic at 0
            np.arange(2 * n + m, 4 * n + m),  # box slacks, basic at hi / -lo
        ]
    )

    bland_after = 4 * (nrows + ncols)  # switch to Bland if Dantzig stalls
    for it in range(max_iter):
        red = T[-1, :-1]
        if it < bland_after:
            entering = int(np.argmin(red))
            if red[entering] >= -EPS:
                entering = -1
        else:
            improving = np.nonzero(red < -EPS)[0]
            entering = int(improving[0]) if improving.size else -1
        if entering < 0:
            x = np.zeros(n)
            for i, b in enumerate(basis):
                if b < n:
                    x[b] += T[i, -1]
                elif b < 2 * n:
                    x[b - n] -= T[i, -1]
            return LPResult(x=x, value=float(c @ x), iterations=it)
        col = T[:-1, entering]
        pos = col > EPS
        if not np.any(pos):
            raise LPError("unbounded LP despite box constraints")
        ratios = np.full(nrows, np.inf)
        ratios[pos] = T[:-1, -1][pos] / col[pos]
        best = np.min(ratios)
        # Bland tie-break: smallest basis index among minimal ratios
        tied = np.where(ratios <= best + EPS)[0]
        leaving = tied[np.argmin(basis[tied])]
        piv = T[leaving, entering]
        T[leaving] /= piv
        coef = T[:, entering].copy()
        coef[leaving] = 0.0
        T -= np.outer(coef, T[leaving])
        basis[leaving] = entering

    raise LPError(f"simplex did not terminate in {max_iter} iterations")


def max_margin_direction(constraints: np.ndarray, strict: np.ndarray | None = None):
    """Maximize the worst slack s with constraints[i] @ w >= s, ||w||_inf <= 1.

    When `strict` is given, only the flagged rows carry the margin variable;
    the rest are held at >= 0.  Returns (w, s).
    """
    A = np.asarray(constraints, dtype=float)
    m, d = A.shape
    if strict is None:
        strict = np.ones(m, dtype=bool)
    # variables: (w, s); rows: A w - s*flag >= 0
    G = np.hstack([A, -strict.astype(float)[:, None]])
    c = np.zeros(d + 1)
    c[-1] = 1.0
    lo = np.concatenate([-np.ones(d), [-2.0]])
    hi = np.concatenate([np.ones(d), [2.0]])
    res = maximize_over_cone_box(c, G, lo=lo, hi=hi)
    return res.x[:d], float(res.x[d])
