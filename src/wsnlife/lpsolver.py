"""Two-phase revised simplex for sparse equality-form LPs.

Solves max c.x subject to A x = b, x >= 0 from one starting basis:
all artificial unit columns, or any feasible mix of structural and
artificial columns (one per row, nonsingular, B^-1 b >= 0) that the
caller passes.  Phase 1 runs only while an artificial is basic.  Only
structural columns are priced, so an artificial never re-enters; one
on a redundant row stays basic at zero.  The basis inverse is kept
explicitly (dense, one rank-1 update per pivot, in place through one
scratch array per phase); A is read only through its nonzeros, and
pricing from a table of each column's first four entries.

Steepest-edge pricing (Goldfarb and Reid, Math. Programming 12, 1977;
Forrest and Goldfarb, Math. Programming 57, 1992): the entering column
has the largest d_j^2 / gamma_j among the improving columns, where
gamma_j = 1 + |B^-1 a_j|^2.  Each phase computes gamma once and then
updates it and the reduced costs d from each pivot row, and prices d
afresh before it reports an optimum or an unbounded ray, and before
each pivot under Bland's rule.  So a pivot costs O(n + nnz(A) + m^2)
in a set number of numpy calls.

The ratio test is Bland's leaving rule with a tolerance band (Bland,
Math. of OR 2, 1977; Harris, Math. Programming 5, 1973): among the rows
with alpha > 1e-9 whose ratio x_B / alpha lies within 1e-12 of the
least ratio, the row with the lowest basic id.  The choice does not
depend on the order of the rows.  A permanent switch to Bland's rule
once a degeneracy streak is detected guarantees termination, and pivots
are deterministic.  The returned x is >= 0 exactly: entries below
1e-12 read 0.  An optimal basis with an entry below -1e-9 (relative to
the largest |b|), or that misses a row of A x = b by more than 1e-9 of
that row's own scale, |b_k| + sum_j |a_kj x_j|, raises SimplexError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StandardLP", "LPSolution", "solve_lp", "SimplexError"]

_PIVOT_TOL = 1e-9
# A run of more than _BLAND_STREAK * (rows + priced columns) degenerate
# pivots switches pricing to Bland's rule for the rest of the phase.
_BLAND_STREAK = 2


class SimplexError(RuntimeError):
    pass


class StandardLP:
    """max c.x s.t. A x = b, x >= 0, with A held as its nonzeros.

    rows, cols and vals list A's nonzero entries sorted by column, then
    row; shape is (len(b), len(c)).  StandardLP(a=..., b=..., c=...)
    takes a dense matrix and from_triplets takes (row, col, value)
    entries in any order; both store the same arrays, with explicit
    zeros dropped.  Non-finite entries, out-of-range or repeated
    indices, mismatched sizes and no rows raise ValueError.  lp.a is a
    dense copy of A built on each access, O(m*n) time and memory; the
    solver never reads it."""

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
        if m == 0:
            raise ValueError("an LP needs at least one row")
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
    # The final basis, as column ids: n + k is row k's artificial, left
    # basic at zero where row k is a combination of the other rows.
    basis: np.ndarray | None = None


class _Columns:
    """A's nonzeros as (row, col, value) triplets sorted by column.
    Column ids >= n are artificial unit columns e_(id - n).  Products
    are elementwise sums, not BLAS calls, so results do not depend on
    the BLAS thread count.  For pricing, head_rows and head_vals hold
    entry k of every column at [k], k < 4, padded with row 0 and value
    0.0; long lists the columns with more entries (the lifetime LP's
    T), long_rows and long_vals hold all their entries in order, and
    long_at each entry's place in long."""

    def __init__(self, rows, cols, vals, n):
        self.rows, self.vals, self.n = rows, vals, n
        self.starts = np.searchsorted(cols, np.arange(n + 1))
        count = np.diff(self.starts)
        rank = np.arange(len(cols)) - self.starts[cols]  # entry's place in its column
        head = rank < 4
        self.head_rows = np.zeros((4, n), dtype=np.intp)
        self.head_vals = np.zeros((4, n))
        self.head_rows[rank[head], cols[head]] = rows[head]
        self.head_vals[rank[head], cols[head]] = vals[head]
        self.long = np.flatnonzero(count > 4)
        in_long = count[cols] > 4
        self.long_rows, self.long_vals = rows[in_long], vals[in_long]
        self.long_at = np.repeat(np.arange(len(self.long)), count[self.long])

    def price(self, y: np.ndarray) -> np.ndarray:
        """y A over the structural columns.  Each column adds its terms
        in entry order, as one np.bincount over all of A does: the
        table's rows one after another, or np.bincount over the long
        columns alone.  So the values are equal; only a zero sum may
        differ in sign, which no comparison sees."""
        w = y.take(self.head_rows)
        w *= self.head_vals
        z = w[0] + w[1]
        z += w[2]
        z += w[3]
        z[self.long] = np.bincount(self.long_at, y[self.long_rows] * self.long_vals, len(self.long))
        return z

    def weights(self, binv: np.ndarray) -> np.ndarray:
        """1 + |B^-1 a_j|^2 over the structural columns, as 1 + a_j^T M
        a_j with M = B^-T B^-1: the head table's 4 x 4 products of
        entries, then each long column's quadratic form in full.  M is
        an np.einsum, which calls no BLAS.  Where B^-1 has large entries
        the form can round below 0, so the weights are kept at least 1."""
        gram = np.einsum("ki,kj->ij", binv, binv)
        hr, hv = self.head_rows, self.head_vals
        w = np.ones(self.n)
        for k in range(4):
            w += (hv[k] * hv * gram[hr[k], hr]).sum(axis=0)
        bounds = np.searchsorted(self.long_at, np.arange(len(self.long) + 1))
        for j, s, e in zip(self.long.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            r, v = self.long_rows[s:e], self.long_vals[s:e]
            w[j] = 1.0 + np.einsum("i,ij,j->", v, gram[r[:, None], r], v)
        return np.maximum(w, 1.0, out=w)

    def column(self, binv: np.ndarray, j: int) -> np.ndarray:
        """B^-1 times structural column j."""
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
    """Among the rows with alpha > _PIVOT_TOL whose ratio x_B / alpha
    lies within 1e-12 of the least ratio, the row with the lowest basic
    id; -1 if no row qualifies (so if every ratio is NaN)."""
    rows = np.flatnonzero(alpha > _PIVOT_TOL)
    ratios = x_b[rows] / alpha[rows]
    tied = rows[ratios - np.fmin.reduce(ratios, initial=np.inf) <= 1e-12]
    return int(tied[basis[tied].argmin()]) if tied.size else -1


def _exchange(binv, x_b, basis, alpha, scratch, row, col) -> float:
    """Rank-1 update of B^-1 and x_B for column col entering at row,
    through scratch, an array shaped like B^-1; returns the step x_B[row]
    / alpha[row]."""
    pivot_row = binv[row] / alpha[row]
    theta = x_b[row] / alpha[row]
    binv -= np.einsum("i,j->ij", alpha, pivot_row, out=scratch)
    binv[row] = pivot_row
    x_b -= theta * alpha
    x_b[row] = theta
    basis[row] = col
    return theta


def _iterate(a: _Columns, cost, binv, x_b, basis, max_iters):
    """Pivot until optimal or unbounded, pricing only the n structural
    columns: cost covers every id, n + k at row k's artificial, so an
    artificial is read in c_B but never enters.  Returns (status,
    pivots, bland).  Steepest-edge pricing, with gamma and d updated by
    the Goldfarb-Reid recurrences."""
    c = cost[: a.n]
    streak_limit = _BLAND_STREAK * (len(basis) + a.n)
    bland, degenerate_streak, pivots = False, 0, 0
    scratch = np.empty_like(binv)

    def reduced_costs():
        c_b = cost[basis]
        priced = c_b.nonzero()[0]  # y = c_B B^-1 over the rows with a cost
        return c - a.price((c_b[priced, None] * binv[priced]).sum(axis=0))

    gamma = a.weights(binv)
    d, fresh = reduced_costs(), True
    while pivots < max_iters:
        if bland:  # first improving column, on reduced costs priced afresh
            if not fresh:
                d, fresh = reduced_costs(), True
            col = int(np.argmax(d > _PIVOT_TOL))
        else:  # largest d_j^2 / gamma_j over the improving columns, first on ties
            col = int(np.argmax(np.where(d > _PIVOT_TOL, d * d / gamma, -1.0)))
        improving = d[col] > _PIVOT_TOL
        if improving:
            alpha = a.column(binv, col)
            row = _leaving_row(alpha, x_b, basis)
        if not improving or row < 0:
            if not fresh:  # decide on reduced costs priced afresh
                d, fresh = reduced_costs(), True
                continue
            if improving:
                return "unbounded", pivots, bland
            if not np.isfinite(d).all():  # a NaN d_j is never improving
                raise SimplexError("reduced costs are not finite")
            return "optimal", pivots, bland
        # With rho the pivot row (B^-1 A)[row] / alpha[row] and tau =
        # B^-T alpha: gamma_j += rho_j (rho_j gamma_q - 2 a_j.tau), at
        # least 1 + rho_j^2, and d_j -= d_q rho_j; a leaving structural
        # column gets gamma_q / alpha[row]^2, at least 1.
        rho = a.price(binv[row])
        rho /= alpha[row]
        a_tau = a.price(np.einsum("k,ki->i", alpha, binv))
        gamma_q = 1.0 + float((alpha * alpha).sum())
        gamma += rho * (rho * gamma_q - 2.0 * a_tau)
        np.maximum(gamma, 1.0 + rho * rho, out=gamma)
        if basis[row] < a.n:
            gamma[basis[row]] = max(gamma_q / (alpha[row] * alpha[row]), 1.0)
        d -= d[col] * rho
        d[col], fresh = 0.0, False
        theta = _exchange(binv, x_b, basis, alpha, scratch, row, col)
        pivots += 1
        degenerate_streak = degenerate_streak + 1 if theta <= 1e-12 else 0
        bland = bland or degenerate_streak > streak_limit
    raise SimplexError(f"simplex did not terminate within {max_iters} pivots")


def solve_lp(lp: StandardLP, basis=None) -> LPSolution:
    """Optimize lp from a basis of m column ids, one per row, in which
    id n + k is row k's artificial unit column; the default is every
    artificial.  A malformed, singular or infeasible basis raises
    ValueError.  Phase 1 maximizes -(sum of artificials) from there.
    An artificial it cannot drive out stays basic at zero on its
    redundant row, whose row of B^-1 A is zero on every structural
    column, so no phase-2 pivot moves it."""
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
    bmat = a.basis_matrix(basis, m)
    try:
        binv = np.linalg.inv(bmat)
    except np.linalg.LinAlgError:
        raise ValueError("starting basis is singular") from None
    # 1-norm condition number of B from B^-1, which is already at hand
    cond = np.abs(bmat).sum(axis=0).max() * np.abs(binv).sum(axis=0).max()
    if not cond < 1e12:
        raise ValueError(f"starting basis is singular (condition number {cond:.3g})")
    x_b = binv @ b
    if x_b.min(initial=0.0) < -1e-9 * (1.0 + b.max(initial=0.0)):
        raise ValueError("starting basis is infeasible: B^-1 b has a negative entry")
    pivots1, bland1 = 0, False
    if (basis >= n).any():
        cost = np.concatenate([np.zeros(n), -np.ones(m)])
        status, pivots1, bland1 = _iterate(a, cost, binv, x_b, basis, max_iters)
        if status != "optimal":
            raise SimplexError("phase 1 reported unbounded (internal bug)")
        if x_b[basis >= n].sum() > 1e-7 * (1.0 + b.max(initial=0.0)):
            return LPSolution(np.zeros(n), float("nan"), "infeasible", pivots1, 0, bland1, basis)
        # Drive each basic artificial out on a structural column with a
        # nonzero in its row of B^-1 A.  Where there is none, its row of
        # A is a combination of the others, and the artificial stays.
        scratch = np.empty_like(binv)
        for i in np.flatnonzero(basis >= n).tolist():
            big = np.flatnonzero(np.abs(a.price(binv[i])) > _PIVOT_TOL)
            if big.size:
                _exchange(binv, x_b, basis, a.column(binv, int(big[0])), scratch, i, int(big[0]))
                pivots1 += 1
    cost = np.concatenate([lp.c, np.zeros(m)])
    status, pivots2, bland2 = _iterate(a, cost, binv, x_b, basis, max_iters)
    counters = dict(phase1_pivots=pivots1, phase2_pivots=pivots2, bland=bland1 or bland2, basis=basis)
    if status == "unbounded":
        return LPSolution(x=np.zeros(n), objective=float("inf"), status="unbounded", **counters)

    x = np.bincount(basis, x_b, n + m)[:n]
    # B^-1 is updated in place through both phases, so rounding can
    # leave a basis that no longer solves A x = b.  Each row is checked
    # at its own scale once x below 1e-12 reads 0; a NaN fails a test.
    if not x.min(initial=0.0) >= -1e-9 * (1.0 + np.abs(lp.b).max(initial=0.0)):
        raise SimplexError(f"final basis violates x >= 0 by {-x.min():.3g}")
    x[x < 1e-12] = 0.0
    terms = lp.vals * x[lp.cols]
    residual = np.abs(np.bincount(lp.rows, terms, m) - lp.b)
    off = np.flatnonzero(~(residual <= 1e-9 * (np.abs(lp.b) + np.bincount(lp.rows, np.abs(terms), m))))
    if off.size:
        raise SimplexError(f"final basis violates row {off[0]} of A x = b by {residual[off[0]]:.3g}")
    return LPSolution(x=x, objective=float(lp.c @ x), status="optimal", **counters)
