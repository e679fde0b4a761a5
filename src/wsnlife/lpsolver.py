"""Two-phase revised simplex for sparse equality-form LPs.

Solves max c.x subject to A x = b, x >= 0 from one starting basis:
all artificial unit columns, or any feasible mix of structural and
artificial columns (one per row, nonsingular, B^-1 b >= 0) that the
caller passes.  Phase 1 runs only while an artificial is basic.  The
basis inverse is kept explicitly (dense, one rank-1 update per pivot);
A is read only through its nonzeros, so a pivot costs one sparse
pricing product plus O(m^2).  Dantzig pricing with a permanent switch
to Bland's rule once a degeneracy streak is detected, so termination
is guaranteed and pivots are deterministic.  An optimal basis that
does not solve the original system to 1e-9 (relative to the largest
|b|) raises SimplexError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StandardLP", "LPSolution", "solve_lp", "SimplexError"]

_PIVOT_TOL = 1e-9


class SimplexError(RuntimeError):
    pass


class StandardLP:
    """max c.x s.t. A x = b, x >= 0, with A held as its nonzeros.

    rows, cols and vals list A's nonzero entries sorted by column, then
    row; shape is (len(b), len(c)).  StandardLP(a=..., b=..., c=...)
    takes a dense matrix and from_triplets takes (row, col, value)
    entries in any order; both store the same arrays, with explicit
    zeros dropped.  Non-finite entries, out-of-range or repeated
    indices and mismatched sizes raise ValueError.  lp.a is a dense
    copy of A built on each access, O(m*n) time and memory; the solver
    never reads it."""

    __slots__ = ("rows", "cols", "vals", "b", "c")

    def __init__(self, a, b, c):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError("a must be a matrix, b and c vectors")
        cols, rows = np.nonzero(a.T)
        self._store(rows, cols, a[rows, cols], a.shape, b, c)

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape, b, c) -> "StandardLP":
        lp = cls.__new__(cls)
        lp._store(rows, cols, vals, shape, b, c)
        return lp

    def _store(self, rows, cols, vals, shape, b, c) -> None:
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if b.ndim != 1 or c.ndim != 1:
            raise ValueError("a must be a matrix, b and c vectors")
        m, n = b.shape[0], c.shape[0]
        if tuple(shape) != (m, n):
            raise ValueError(f"inconsistent LP dimensions: A is {tuple(shape)}, b has {m}, c {n}")
        rows, cols = (np.asarray(v) for v in (rows, cols))
        if not rows.shape == cols.shape == vals.shape or vals.ndim != 1:
            raise ValueError("rows, cols and vals must be vectors of one length")
        if vals.size and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise ValueError("row and column indices must be integers")
        rows, cols = rows.astype(np.intp), cols.astype(np.intp)
        if vals.size and not (0 <= rows.min() and rows.max() < m and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"an entry of A lies outside its {m} x {n} shape")
        for name, v in (("A", vals), ("b", b), ("c", c)):
            if not np.isfinite(v).all():
                raise ValueError(f"LP data must be finite: {name} has a NaN or inf entry")
        key = cols * m + rows  # column-major position: sorted and unique iff increasing
        if not (np.diff(key) > 0).all():
            order = np.argsort(key, kind="stable")
            rows, cols, vals, key = rows[order], cols[order], vals[order], key[order]
            if not (np.diff(key) > 0).all():
                raise ValueError("A lists a (row, col) entry twice")
        nonzero = vals != 0.0
        if not nonzero.all():
            rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
        for name, v in (("rows", rows), ("cols", cols), ("vals", vals), ("b", b), ("c", c)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"StandardLP is immutable; cannot set {name!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.b.shape[0], self.c.shape[0]

    @property
    def a(self) -> np.ndarray:
        """A as a dense matrix, built anew on each access."""
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        return a


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

    def basis_matrix(self, basis: np.ndarray, m: int) -> np.ndarray:
        """B: the m x m matrix of the columns listed in basis."""
        bmat = np.zeros((m, len(basis)))
        for k, j in enumerate(basis.tolist()):
            if j >= self.n:
                bmat[j - self.n, k] = 1.0
            else:
                s, e = self.starts[j], self.starts[j + 1]
                bmat[self.rows[s:e], k] = self.vals[s:e]
        return bmat


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


def _factor(a: _Columns, basis, b):
    """B, B^-1 and x_B = B^-1 b for a basis of column ids."""
    bmat = a.basis_matrix(basis, len(b))
    binv = np.linalg.inv(bmat)
    return bmat, binv, binv @ b


def solve_lp(lp: StandardLP, basis=None) -> LPSolution:
    """Optimize lp from a basis of m column ids, one per row, in which
    id n + k is row k's artificial unit column; the default is every
    artificial.  A malformed, singular or infeasible basis raises
    ValueError.  Phase 1 maximizes -(sum of artificials) from there."""
    m, n = lp.shape
    rows, cols, vals = lp.rows, lp.cols, lp.vals
    if (lp.b < 0).any():  # negate the rows whose right-hand side is negative
        vals = np.where(lp.b[rows] < 0, -vals, vals)
    b = np.abs(lp.b)
    max_iters = max(200, 50 * (m + n))
    a = _Columns(rows, cols, vals, n)

    basis = np.arange(n, n + m) if basis is None else np.array(basis, dtype=np.intp)
    if basis.shape != (m,) or not ((basis >= 0) & (basis < n + m)).all():
        raise ValueError(f"starting basis must list {m} column ids in [0, {n + m})")
    try:
        bmat, binv, x_b = _factor(a, basis, b)
    except np.linalg.LinAlgError:
        raise ValueError("starting basis is singular") from None
    # 1-norm condition number of B from B^-1, which is already at hand
    cond = np.abs(bmat).sum(axis=0).max() * np.abs(binv).sum(axis=0).max()
    if not cond < 1e12:
        raise ValueError(f"starting basis is singular (condition number {cond:.3g})")
    if x_b.min(initial=0.0) < -1e-9 * (1.0 + b.max(initial=0.0)):
        raise ValueError("starting basis is infeasible: B^-1 b has a negative entry")
    pivots1, bland1 = 0, False
    if (basis >= n).any():
        cost = np.concatenate([np.zeros(n), -np.ones(m)])
        status, pivots1, bland1 = _iterate(a, cost, binv, x_b, basis, max_iters)
        if status != "optimal":
            raise SimplexError("phase 1 reported unbounded (internal bug)")
        if x_b[basis >= n].sum() > 1e-7 * (1.0 + b.max(initial=0.0)):
            return LPSolution(np.zeros(n), float("nan"), "infeasible", pivots1, 0, bland1)

        # Drive remaining artificials out of the basis or drop their rows.
        # An artificial e_k left basic at position i makes row i of B^-1 A a
        # dependency with weight 1 on constraint k, so constraint k goes.
        keep = np.ones(m, dtype=bool)
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
            _bmat, binv, x_b = _factor(a, basis, b)
    status, pivots2, bland2 = _iterate(a, lp.c, binv, x_b, basis, max_iters)
    counters = dict(phase1_pivots=pivots1, phase2_pivots=pivots2, bland=bland1 or bland2)
    if status == "unbounded":
        return LPSolution(x=np.zeros(n), objective=float("inf"), status="unbounded", **counters)

    x = np.zeros(n)
    x[basis] = x_b
    x[np.abs(x) < 1e-12] = 0.0
    # B^-1 is updated in place through both phases, so rounding can
    # leave a basis that no longer solves the original system.
    residual = np.bincount(lp.rows, lp.vals * x[lp.cols], m) - lp.b
    violation = max(np.abs(residual).max(initial=0.0), -x.min(initial=0.0))
    if violation > 1e-9 * (1.0 + np.abs(lp.b).max(initial=0.0)):
        raise SimplexError(f"final basis violates A x = b, x >= 0 by {violation:.3g}")
    return LPSolution(x=x, objective=float(lp.c @ x), status="optimal", **counters)
