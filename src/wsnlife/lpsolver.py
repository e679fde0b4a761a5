"""Dense two-phase tableau simplex for small equality-form LPs.

Solves max c.x subject to A x = b, x >= 0.  Dantzig pricing with a
permanent switch to Bland's rule once a degeneracy streak is
detected, so termination is guaranteed and pivots are deterministic.
An optimal basis that does not solve the original system to 1e-9
(relative to the largest |b|) raises SimplexError.
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


def _choose_entering(obj_row: np.ndarray, ncols: int, bland: bool) -> int:
    best = -1
    if bland:
        for j in range(ncols):
            if obj_row[j] > _PIVOT_TOL:
                return j
        return -1
    best_val = _PIVOT_TOL
    for j in range(ncols):
        if obj_row[j] > best_val:
            best_val = obj_row[j]
            best = j
    return best


def _choose_leaving(tab: np.ndarray, col: int, basis: list[int], m: int) -> int:
    best_row = -1
    best_ratio = np.inf
    for i in range(m):
        a = tab[i, col]
        if a > _PIVOT_TOL:
            ratio = tab[i, -1] / a
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12
                and (best_row < 0 or basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _pivot(tab: np.ndarray, row: int, col: int, basis: list[int]) -> None:
    tab[row, :] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i, :] -= tab[i, col] * tab[row, :]
    basis[row] = col


def _run_simplex(
    tab: np.ndarray, basis: list[int], ncols: int, max_iters: int
) -> str:
    """Iterate until optimal or unbounded.  tab's last row is the
    reduced-cost row (positive entry = improving column), last column
    the RHS."""
    m = tab.shape[0] - 1
    bland = False
    degenerate_streak = 0
    streak_limit = 2 * (m + ncols)
    for _ in range(max_iters):
        col = _choose_entering(tab[-1, :ncols], ncols, bland)
        if col < 0:
            return "optimal"
        row = _choose_leaving(tab, col, basis, m)
        if row < 0:
            return "unbounded"
        if tab[row, -1] / tab[row, col] <= 1e-12:
            degenerate_streak += 1
            if degenerate_streak > streak_limit:
                bland = True
        else:
            degenerate_streak = 0
        _pivot(tab, row, col, basis)
    raise SimplexError(f"simplex did not terminate within {max_iters} pivots")


def solve_lp(lp: StandardLP) -> LPSolution:
    a = lp.a.copy()
    b = lp.b.copy()
    c = lp.c
    m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    max_iters = max(200, 50 * (m + n))

    # Phase 1: artificial basis, maximize -(sum of artificials).
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, : n + m] = tab[:m, : n + m].sum(axis=0)
    tab[-1, n : n + m] = 0.0
    tab[-1, -1] = b.sum()
    basis = list(range(n, n + m))
    status = _run_simplex(tab, basis, n + m, max_iters)
    if status != "optimal":
        raise SimplexError("phase 1 reported unbounded (internal bug)")
    if tab[-1, -1] > 1e-7 * (1.0 + abs(b).max(initial=0.0)):
        return LPSolution(x=np.zeros(n), objective=float("nan"), status="infeasible")

    # Drive remaining artificials out of the basis or drop their rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tab[i, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tab, i, pivot_col, basis)
                keep.append(i)
            # else: redundant row, dropped below
        else:
            keep.append(i)
    rows = keep + [m]
    tab = tab[np.ix_(rows, list(range(n)) + [n + m])]
    basis = [basis[i] for i in keep]
    m2 = len(basis)

    # Phase 2 objective row: reduced costs of the original objective.
    cb = c[basis]
    tab[-1, :n] = c - cb @ tab[:m2, :n]
    tab[-1, -1] = cb @ tab[:m2, -1]
    status = _run_simplex(tab, basis, n, max_iters)
    if status == "unbounded":
        return LPSolution(x=np.zeros(n), objective=float("inf"), status="unbounded")

    x = np.zeros(n)
    for i, j in enumerate(basis):
        x[j] = tab[i, -1]
    x[np.abs(x) < 1e-12] = 0.0
    # The tableau is pivoted in place through both phases, so rounding
    # can leave a basis that no longer solves the original system.
    violation = max(np.abs(lp.a @ x - lp.b).max(initial=0.0), -x.min(initial=0.0))
    if violation > 1e-9 * (1.0 + np.abs(lp.b).max(initial=0.0)):
        raise SimplexError(f"final basis violates A x = b, x >= 0 by {violation:.3g}")
    return LPSolution(x=x, objective=float(c @ x), status="optimal")
