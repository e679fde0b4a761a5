"""The revised simplex as it stood before its pivot was vectorised: a
Python ratio scan over every candidate row, np.bincount pricing with the
artificial block appended, and np.outer for the rank-1 update.  The code
below is kept verbatim as an oracle of test_lpsolver.py: the ratio
test and pricing must return the same rows and bits, and a whole solve,
priced by Dantzig's rule here and by steepest edge in the solver, the
same status and objective to 1e-12, in no more pivots on lifetime LPs."""

import numpy as np

from wsnlife.lpsolver import _PIVOT_TOL, LPSolution, SimplexError, StandardLP


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
