"""Two-phase revised simplex for sparse equality-form LPs.

Solves max c.x subject to A x = b, x >= 0.  Phase 1 starts from an
all-artificial basis; a caller that already knows a feasible basis
(one column per row, nonsingular, B^-1 b >= 0) passes it and the solve
starts in phase 2.  The basis inverse is kept
explicitly (dense, one rank-1 update per pivot); A is read only through
its nonzeros, so a pivot costs one sparse pricing product plus O(m^2).
Dantzig pricing with a permanent switch to Bland's rule once a
degeneracy streak is detected, so termination is guaranteed and pivots
are deterministic.  An optimal basis that does not solve the original
system to 1e-9 (relative to the largest |b|) raises SimplexError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StandardLP", "LPSolution", "solve_lp", "SimplexError"]

_PIVOT_TOL = 1e-9


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True)
class StandardLP:
    """max c.x s.t. A x = b, x >= 0 (dense)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if a.ndim != 2 or b.ndim != 1 or c.ndim != 1:
            raise ValueError("a must be a matrix, b and c vectors")
        m, n = a.shape
        if b.shape[0] != m or c.shape[0] != n:
            raise ValueError("inconsistent LP dimensions")


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded
    phase1_pivots: int = 0  # includes pivots driving artificials out
    phase2_pivots: int = 0
    bland: bool = False  # Bland's rule switched on in either phase


class _Columns:
    """A's nonzeros as (row, col, value) triplets sorted by column.
    Column ids >= n are artificial unit columns e_(id - n).  Products
    are elementwise sums, not BLAS calls, so results do not depend on
    the BLAS thread count."""

    def __init__(self, rows, cols, vals, n):
        self.rows, self.cols, self.vals, self.n = rows, cols, vals, n
        self.starts = np.searchsorted(cols, np.arange(n + 1))

    def price(self, y: np.ndarray) -> np.ndarray:
        """y A over the structural columns, then y itself for the artificials."""
        return np.concatenate([np.bincount(self.cols, y[self.rows] * self.vals, self.n), y])

    def column(self, binv: np.ndarray, j: int) -> np.ndarray:
        """B^-1 times column j."""
        if j >= self.n:
            return binv[:, j - self.n].copy()
        s, e = self.starts[j], self.starts[j + 1]
        return (binv[:, self.rows[s:e]] * self.vals[s:e]).sum(axis=1)


def _leaving_row(alpha: np.ndarray, x_b: np.ndarray, basis: np.ndarray) -> int:
    """Minimum ratio over rows with alpha > tol; ties within 1e-12 go to
    the lowest basic id."""
    rows = (alpha > _PIVOT_TOL).nonzero()[0]
    best_row, best_ratio, best_id = -1, np.inf, -1
    for i, ratio, j in zip(rows.tolist(), (x_b[rows] / alpha[rows]).tolist(), basis[rows].tolist()):
        if ratio < best_ratio - 1e-12 or (abs(ratio - best_ratio) <= 1e-12 and j < best_id):
            best_row, best_ratio, best_id = i, ratio, j
    return best_row


def _exchange(binv, x_b, basis, alpha, row, col) -> None:
    """Rank-1 update of B^-1 and x_B for column col entering at row."""
    pivot_row = binv[row] / alpha[row]
    theta = x_b[row] / alpha[row]
    binv -= np.outer(alpha, pivot_row)
    binv[row] = pivot_row
    x_b -= theta * alpha
    x_b[row] = theta
    basis[row] = col


def _iterate(a: _Columns, cost, binv, x_b, basis, max_iters):
    """Pivot until optimal or unbounded over the len(cost) priceable
    columns; returns (status, pivots, bland)."""
    streak_limit = 2 * (len(basis) + len(cost))
    bland, degenerate_streak = False, 0
    for pivots in range(max_iters):
        c_b = cost[basis]
        priced = c_b.nonzero()[0]  # y = c_B B^-1 over the rows with a cost
        d = cost - a.price((c_b[priced, None] * binv[priced]).sum(axis=0))[: len(cost)]
        improving = (d > _PIVOT_TOL).nonzero()[0]
        if not improving.size:
            return "optimal", pivots, bland
        # Bland: first improving column; Dantzig: largest d, first on ties.
        col = int(improving[0] if bland else improving[np.argmax(d[improving])])
        alpha = a.column(binv, col)
        row = _leaving_row(alpha, x_b, basis)
        if row < 0:
            return "unbounded", pivots, bland
        degenerate_streak = degenerate_streak + 1 if x_b[row] / alpha[row] <= 1e-12 else 0
        bland = bland or degenerate_streak > streak_limit
        _exchange(binv, x_b, basis, alpha, row, col)
    raise SimplexError(f"simplex did not terminate within {max_iters} pivots")


def _factor(lp: StandardLP, keep, basis, b):
    """B^-1 and x_B for the basis columns on the kept rows, with the
    rows whose right-hand side is negative negated."""
    sign = np.where(lp.b[keep] < 0, -1.0, 1.0)
    binv = np.linalg.inv(sign[:, None] * lp.a[np.ix_(keep, basis)])
    return binv, binv @ b


def solve_lp(lp: StandardLP, basis=None) -> LPSolution:
    """Optimize lp, from the given feasible basis (column ids, one per
    row) if there is one, else from phase 1.  A given basis that is
    malformed, singular or infeasible raises ValueError."""
    m, n = lp.a.shape
    cols, rows = np.nonzero(lp.a.T)
    vals = lp.a[rows, cols]
    vals[lp.b[rows] < 0] *= -1.0
    b = np.abs(lp.b)
    max_iters = max(200, 50 * (m + n))
    a = _Columns(rows, cols, vals, n)
    keep = np.ones(m, dtype=bool)

    if basis is not None:
        basis = np.array(basis, dtype=np.intp)
        if basis.shape != (m,) or not ((basis >= 0) & (basis < n)).all():
            raise ValueError(f"starting basis must list {m} column ids in [0, {n})")
        try:
            binv, x_b = _factor(lp, keep, basis, b)
        except np.linalg.LinAlgError:
            raise ValueError("starting basis is singular") from None
        # 1-norm condition number of B from B^-1, which is already at hand
        cond = np.abs(lp.a[:, basis]).sum(axis=0).max() * np.abs(binv).sum(axis=0).max()
        if not cond < 1e12:
            raise ValueError(f"starting basis is singular (condition number {cond:.3g})")
        if x_b.min(initial=0.0) < -1e-9 * (1.0 + b.max(initial=0.0)):
            raise ValueError("starting basis is infeasible: B^-1 b has a negative entry")
        pivots1, bland1 = 0, False
    else:
        # Phase 1: artificial basis, maximize -(sum of artificials).
        binv, x_b, basis = np.eye(m), b.copy(), np.arange(n, n + m)
        cost = np.concatenate([np.zeros(n), -np.ones(m)])
        status, pivots1, bland1 = _iterate(a, cost, binv, x_b, basis, max_iters)
        if status != "optimal":
            raise SimplexError("phase 1 reported unbounded (internal bug)")
        if x_b[basis >= n].sum() > 1e-7 * (1.0 + b.max(initial=0.0)):
            return LPSolution(np.zeros(n), float("nan"), "infeasible", pivots1, 0, bland1)

        # Drive remaining artificials out of the basis or drop their rows.
        # An artificial e_k left basic at position i makes row i of B^-1 A a
        # dependency with weight 1 on constraint k, so constraint k goes.
        for i in np.flatnonzero(basis >= n).tolist():
            big = np.flatnonzero(np.abs(a.price(binv[i])[:n]) > _PIVOT_TOL)
            if big.size:
                _exchange(binv, x_b, basis, a.column(binv, int(big[0])), i, int(big[0]))
                pivots1 += 1
            else:
                keep[basis[i] - n] = False
        if not keep.all():  # refactorize the kept basis on the kept rows
            kept = keep[rows]
            a = _Columns((np.cumsum(keep) - 1)[rows[kept]], cols[kept], vals[kept], n)
            basis, b = basis[basis < n], b[keep]
            binv, x_b = _factor(lp, keep, basis, b)
    status, pivots2, bland2 = _iterate(a, lp.c, binv, x_b, basis, max_iters)
    counters = dict(phase1_pivots=pivots1, phase2_pivots=pivots2, bland=bland1 or bland2)
    if status == "unbounded":
        return LPSolution(x=np.zeros(n), objective=float("inf"), status="unbounded", **counters)

    x = np.zeros(n)
    x[basis] = x_b
    x[np.abs(x) < 1e-12] = 0.0
    # B^-1 is updated in place through both phases, so rounding can
    # leave a basis that no longer solves the original system.
    violation = max(np.abs(lp.a @ x - lp.b).max(initial=0.0), -x.min(initial=0.0))
    if violation > 1e-9 * (1.0 + np.abs(lp.b).max(initial=0.0)):
        raise SimplexError(f"final basis violates A x = b, x >= 0 by {violation:.3g}")
    return LPSolution(x=x, objective=float(lp.c @ x), status="optimal", **counters)
