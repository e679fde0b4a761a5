import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import simplex_reference as reference
from wsnlife import harness, lpsolver, routing
from wsnlife.lpsolver import LPSolution, SimplexError, StandardLP, solve_lp


def enumerate_vertices(lp: StandardLP):
    """Brute-force oracle: best objective over all basic feasible
    solutions."""
    m, n = lp.a.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = lp.a[:, cols]
        if np.linalg.matrix_rank(sub) < m:
            continue
        x_b = np.linalg.solve(sub, lp.b)
        if (x_b < -1e-9).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        obj = float(lp.c @ x)
        if best is None or obj > best:
            best = obj
    return best


def random_feasible_lp(rng, m, n):
    a = rng.normal(size=(m, n))
    x0 = rng.random(n)  # strictly feasible point fixes b
    b = a @ x0
    c = rng.normal(size=n)
    # bound the feasible region so the LP cannot be unbounded:
    # add sum(x) <= bound as an equality with a slack column
    bound = float(x0.sum() + 5.0)
    a = np.hstack([a, np.zeros((m, 1))])
    a = np.vstack([a, np.ones(n + 1)])
    b = np.append(b, bound)
    c = np.append(c, 0.0)
    return StandardLP(a=a, b=b, c=c)


class TestSolveLp:
    def test_simple_cap(self):
        # max x s.t. x + s = 5
        lp = StandardLP(a=[[1.0, 1.0]], b=[5.0], c=[1.0, 0.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-10)

    def test_degenerate_face(self):
        lp = StandardLP(a=[[1.0, 1.0]], b=[1.0], c=[1.0, 1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-10)

    def test_infeasible(self):
        # x + y = -1 with x, y >= 0
        lp = StandardLP(a=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0], c=[1.0, 0.0])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        # max x s.t. x - y = 0
        lp = StandardLP(a=[[1.0, -1.0]], b=[0.0], c=[1.0, 0.0])
        assert solve_lp(lp).status == "unbounded"

    def test_negative_rhs_handled(self):
        lp = StandardLP(a=[[-1.0, -1.0]], b=[-5.0], c=[1.0, 0.0])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(5.0, abs=1e-10)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 1, 10))
            lp = random_feasible_lp(rng, m, n)
            sol = solve_lp(lp)
            oracle = enumerate_vertices(lp)
            assert sol.status == "optimal", trial
            assert sol.objective == pytest.approx(oracle, abs=1e-7), trial
            assert (sol.x >= 0.0).all(), trial

    def test_feasibility_residual(self):
        rng = np.random.default_rng(7)
        lp = random_feasible_lp(rng, 4, 8)
        sol = solve_lp(lp)
        residual = np.abs(lp.a @ sol.x - lp.b).max()
        assert residual <= 1e-7 * (1.0 + np.abs(lp.b).max())
        assert (sol.x >= 0.0).all()
        assert sol.objective == pytest.approx(float(lp.c @ sol.x), abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        lp = random_feasible_lp(rng, 4, 9)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert (a.x == b.x).all() and a.objective == b.objective

    def test_rhs_scaling(self):
        lp = StandardLP(
            a=[[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]],
            b=[4.0, 6.0],
            c=[3.0, 2.0, 0.0, 0.0],
        )
        base = solve_lp(lp).objective
        scaled = solve_lp(
            StandardLP(a=lp.a, b=lp.b * 2.5, c=lp.c)
        ).objective
        assert scaled == pytest.approx(2.5 * base, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            StandardLP(a=[[1.0, 2.0]], b=[1.0, 2.0], c=[1.0, 0.0])

    def test_wrong_final_basis_raises(self, monkeypatch):
        # A basic solution that drifted during the B^-1 updates no
        # longer solves A x = b; it must not be reported optimal.
        iterate = lpsolver._iterate

        def drifting(a, cost, binv, x_b, basis, max_iters):
            result = iterate(a, cost, binv, x_b, basis, max_iters)
            x_b[0] += 1e-6
            return result

        monkeypatch.setattr(lpsolver, "_iterate", drifting)
        lp = StandardLP(a=[[1.0, 1.0]], b=[5.0], c=[1.0, 0.0])
        with pytest.raises(SimplexError, match="violates"):
            solve_lp(lp)

    def test_nan_final_basis_raises(self, monkeypatch):
        # A NaN in x_B compares false with every bound; it must not pass
        # the final check as a feasible optimum.
        iterate = lpsolver._iterate

        def poisoned(a, cost, binv, x_b, basis, max_iters):
            result = iterate(a, cost, binv, x_b, basis, max_iters)
            x_b[0] = np.nan
            return result

        monkeypatch.setattr(lpsolver, "_iterate", poisoned)
        with pytest.raises(SimplexError, match="violates"):
            solve_lp(StandardLP(a=[[1.0, 1.0]], b=[5.0], c=[1.0, 0.0]))

    def test_row_below_the_resolution_raises(self):
        # x2 = 1e-13 lies below the 1e-12 resolution and reads 0, which
        # misses its row by all of that row's scale; an absolute test at
        # the scale of the largest |b| would return x2 = 0.
        lp = StandardLP(a=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1e-13], c=[1.0, 1.0])
        with pytest.raises(SimplexError, match="violates row 1 "):
            solve_lp(lp)

    def test_small_row_missed_by_all_of_it_raises(self, monkeypatch):
        # x2 = 2e-10 where its row asks for 1e-10: off by 1e-10, well
        # within 1e-9 of the largest |b|, but 100% of the row itself.
        iterate = lpsolver._iterate

        def drifting(a, cost, binv, x_b, basis, max_iters):
            result = iterate(a, cost, binv, x_b, basis, max_iters)
            x_b[basis == 1] *= 2.0
            return result

        monkeypatch.setattr(lpsolver, "_iterate", drifting)
        lp = StandardLP(a=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1e-10], c=[1.0, 1.0])
        with pytest.raises(SimplexError, match="violates row 1 "):
            solve_lp(lp, [0, 1])

    def test_redundant_rows_keep_the_optimum(self):
        # Appending combinations of existing rows leaves the LP unchanged.
        rng = np.random.default_rng(3)
        for trial in range(10):
            lp = random_feasible_lp(rng, 3, 6)
            w = rng.normal(size=(2, lp.a.shape[0]))
            padded = StandardLP(a=np.vstack([w @ lp.a, lp.a]), b=np.append(w @ lp.b, lp.b), c=lp.c)
            sol = solve_lp(padded)
            assert sol.status == "optimal", trial
            assert sol.objective == pytest.approx(solve_lp(lp).objective, abs=1e-9), trial

    def test_redundant_row_keeps_its_artificial_at_zero(self):
        # Rows 1 and 2 are equal.  Started with row 2's artificial (id
        # 4 + 2) at basis position 4 and row 4's at position 2, phase 1
        # drives out every artificial but that of row 1 or 2, which no
        # structural column can replace; it stays basic at zero through
        # phase 2.
        lp = StandardLP(
            a=[[2, -2, 0, 0], [0, 1, -1, 0], [0, 1, -1, 0], [0, 1, -2, 0], [1, 1, 1, 1]],
            b=[2, -1, -1, -2, 4],
            c=[2, 1, 0, 0],
        )
        for basis in (None, [4, 5, 8, 7, 6]):
            sol = solve_lp(lp, basis)
            assert sol.status == "optimal"
            assert sol.x.tolist() == pytest.approx([1.0, 0.0, 1.0, 2.0], abs=1e-12)
            assert [j for j in sol.basis.tolist() if j >= 4] in ([5], [6])
            assert certify(lp, sol) == 2

    @pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (5, 3)])
    def test_lp_without_nonzeros(self, m, n):
        # Every row is redundant, so every artificial stays basic: the
        # LP is unbounded if some c_j > 0, and optimal at x = 0 if not.
        zeros = np.zeros((m, n))
        c = np.array([3.0, -1.0, 0.0])[:n]
        sol = solve_lp(StandardLP(a=zeros, b=np.zeros(m), c=c))
        assert sol.status == "unbounded" and sol.basis.tolist() == list(range(n, n + m))
        lp = StandardLP(a=zeros, b=np.zeros(m), c=-np.abs(c))
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.x.tolist() == [0.0] * n
        assert certify(lp, sol) == 0
        assert solve_lp(StandardLP(a=zeros, b=np.arange(m) - 1.0, c=c)).status == "infeasible"

    def test_basis_is_returned(self):
        # all structural on an LP without redundant rows; an infeasible
        # LP ends on the phase-1 basis, with the artificial of row 1 (id
        # 2 + 1) basic
        lp = random_feasible_lp(np.random.default_rng(8), 4, 9)
        sol = solve_lp(lp)
        assert (sol.basis < 10).all()
        assert sol.x[sol.basis] == pytest.approx(np.linalg.solve(lp.a[:, sol.basis], lp.b), rel=1e-12)
        assert set(np.flatnonzero(sol.x).tolist()) <= set(sol.basis.tolist())
        certify(lp, sol)
        sol = solve_lp(StandardLP(a=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0], c=[1.0, 0.0]))
        assert sol.status == "infeasible"
        assert 3 in sol.basis.tolist()


def first_feasible_basis(lp: StandardLP, tol=0.0):
    """The first basis, in combinations order, that is nonsingular and
    has B^-1 b >= -tol."""
    m, n = lp.a.shape
    for cols in itertools.combinations(range(n), m):
        sub = lp.a[:, cols]
        if np.linalg.matrix_rank(sub) == m and (np.linalg.solve(sub, lp.b) >= -tol).all():
            return list(cols)
    raise AssertionError("LP has no feasible basis")


class TestStartingBasis:
    def test_slack_basis_skips_phase1(self):
        sol = solve_lp(StandardLP(a=[[1.0, 1.0]], b=[5.0], c=[1.0, 0.0]), basis=[1])
        assert (sol.phase1_pivots, sol.phase2_pivots, sol.bland) == (0, 1, False)
        assert sol.x.tolist() == [5.0, 0.0]

    def test_negative_rhs_row(self):
        sol = solve_lp(StandardLP(a=[[-1.0, -1.0]], b=[-5.0], c=[1.0, 0.0]), basis=[1])
        assert sol.phase1_pivots == 0
        assert sol.objective == pytest.approx(5.0, abs=1e-12)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 1, 10))
            lp = random_feasible_lp(rng, m, n)
            sol = solve_lp(lp, first_feasible_basis(lp))
            assert sol.status == "optimal" and sol.phase1_pivots == 0, trial
            assert sol.objective == pytest.approx(enumerate_vertices(lp), abs=1e-7), trial

    def test_mixed_basis_runs_phase1(self):
        # column 0 covers row 0 and row 1 starts on its artificial, id 3 + 1
        lp = StandardLP(a=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], b=[1.0, 2.0], c=[1.0, 0.0, 0.0])
        sol = solve_lp(lp, [0, 4])
        assert sol.status == "optimal" and sol.phase1_pivots > 0
        assert sol.x.tolist() == [1.0, 0.0, 2.0]

    def test_unbounded_from_basis(self):
        sol = solve_lp(StandardLP(a=[[1.0, -1.0]], b=[0.0], c=[1.0, 0.0]), basis=[0])
        assert (sol.status, sol.phase1_pivots) == ("unbounded", 0)

    @pytest.mark.parametrize(
        "a, b, basis, message",
        [
            ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [1.0, 2.0], [0, 1], "singular"),
            ([[1.0, 1.0 + 1e-14, 0.0], [1.0, 1.0, 1.0]], [1.0, 2.0], [0, 1], "singular"),
            ([[1.0, -1.0]], [5.0], [1], "infeasible"),
            ([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 2.0], [0, 1], "infeasible"),
            ([[1.0, 1.0]], [5.0], [0, 1], "column ids"),
            ([[1.0, 1.0]], [5.0], [3], "column ids"),  # n + m: past the artificials
            ([[1.0, 1.0]], [5.0], [-1], "column ids"),
            # id 3 is row 0's artificial e_0, which column 0 repeats
            ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 2.0], [0, 3], "singular"),
            # column 0 takes x_0 = 2 from row 0, so row 1's artificial is 1 - 2
            ([[1.0, 1.0], [1.0, 0.0]], [2.0, 1.0], [0, 3], "infeasible"),
        ],
    )
    def test_bad_basis_raises(self, a, b, basis, message):
        lp = StandardLP(a=a, b=b, c=[1.0] + [0.0] * (len(a[0]) - 1))
        with pytest.raises(ValueError, match=message):
            solve_lp(lp, basis)


class TestCounters:
    def test_simple_cap_counts(self):
        # x enters the all-artificial basis once and is already optimal.
        sol = solve_lp(StandardLP(a=[[1.0, 1.0]], b=[5.0], c=[1.0, 0.0]))
        assert (sol.phase1_pivots, sol.phase2_pivots, sol.bland) == (1, 0, False)

    def test_counters_add_up_to_basis_exchanges(self, monkeypatch):
        exchange = lpsolver._exchange
        calls = []
        monkeypatch.setattr(
            lpsolver, "_exchange", lambda *args: calls.append(args[-1]) or exchange(*args)
        )
        lp = random_feasible_lp(np.random.default_rng(5), 4, 9)
        sol = solve_lp(lp)
        assert sol.phase1_pivots > 0 and sol.phase2_pivots > 0
        assert sol.phase1_pivots + sol.phase2_pivots == len(calls)

    def test_cycling_lp_switches_to_bland(self, monkeypatch):
        # Phase 1 of this LP is the cycling example of Bertsimas &
        # Tsitsiklis (Example 3.6): the column sums are its objective
        # (3/4, -20, 1/2, -6) and the artificials of rows 1-2 are its
        # slacks.  Dantzig's rule cycles on it and steepest edge does
        # not, so a streak limit of 0 forces Bland's rule on at the
        # first degenerate pivot.
        lp = CYCLING_LP
        free = solve_lp(lp)
        monkeypatch.setattr(lpsolver, "_BLAND_STREAK", 0)
        forced = solve_lp(lp)
        assert not free.bland and forced.bland
        for sol in (free, forced):
            assert sol.objective == pytest.approx(enumerate_vertices(lp), abs=1e-9)
            assert sol.objective == pytest.approx(1.25, abs=1e-9)
            assert certify(lp, sol) == Fraction(5, 4)


CYCLING_LP = StandardLP(
    a=[
        [0.25, -8.0, -1.0, 9.0, 0.1, 0.0, 0.0, 0.0],
        [0.5, -12.0, -0.5, 3.0, 0.0, 0.1, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.1, 0.0],
        [0.0, 0.0, 1.0, -18.0, 0.0, 0.0, 0.0, 0.1],
    ],
    b=[0.0, 0.0, 1.0, 100.0],
    c=[0.75, -20.0, 0.5, -6.0, 0.0, 0.0, 0.0, 0.0],
)


def exact_solve(rows, rhs):
    """x with B x = rhs in Fractions, for a nonsingular B given as its
    rows, each a dict {column: Fraction} of its nonzeros: Gauss-Jordan
    elimination on the nonzeros, each column pivoting on its shortest
    remaining row, the columns with fewest entries first."""
    rows, rhs, m = [dict(r) for r in rows], list(rhs), len(rows)
    where = [set() for _ in range(m)]  # column -> rows with a nonzero there
    for i, r in enumerate(rows):
        for j in r:
            where[j].add(i)
    pivot_of = {}
    for j in sorted(range(m), key=lambda j: len(where[j])):
        p = min(set(where[j]) - set(pivot_of.values()), key=lambda i: (len(rows[i]), i))
        pivot_of[j] = p
        for i in sorted(where[j] - {p}):
            f = rows[i][j] / rows[p][j]
            for k, v in rows[p].items():
                w = rows[i].get(k, 0) - f * v
                if w:
                    rows[i][k] = w
                    where[k].add(i)
                else:
                    del rows[i][k]
                    where[k].discard(i)
            rhs[i] -= f * rhs[p]
    return [rhs[pivot_of[j]] / rows[pivot_of[j]][j] for j in range(m)]


def certify(lp: StandardLP, sol: LPSolution) -> Fraction:
    """Proves sol's basis optimal in exact arithmetic over all m rows:
    B x_B = b with x_B >= 0, where a basic artificial n + k is the unit
    column e_k and its value must be exactly 0, and with B^T y = c_B (0
    at an artificial) every reduced cost c_j - y.A_j is <= 0.  Checks
    that the float objective lies within 1e-12 of the exact one,
    c_B.x_B, and returns that."""
    assert sol.status == "optimal"
    m, n = lp.shape
    col_at = {j: k for k, j in enumerate(sol.basis.tolist())}
    entries = [(r, j, Fraction(v)) for r, j, v in zip(lp.rows.tolist(), lp.cols.tolist(), lp.vals.tolist())]
    units = [(j - n, j, Fraction(1)) for j in col_at if j >= n]
    b_rows, bt_rows = [{} for _ in range(m)], [{} for _ in range(m)]
    for i, j, v in entries + units:
        if j in col_at:
            b_rows[i][col_at[j]] = bt_rows[col_at[j]][i] = v
    x_b = exact_solve(b_rows, [Fraction(v) for v in lp.b.tolist()])
    assert all(x == 0 for x, j in zip(x_b, sol.basis.tolist()) if j >= n)
    assert min(x_b) >= 0
    c_b = [Fraction(v) for v in np.append(lp.c, np.zeros(m))[sol.basis].tolist()]
    y = exact_solve(bt_rows, c_b)
    d = [Fraction(v) for v in lp.c.tolist()]
    for i, j, v in entries:
        d[j] -= y[i] * v
    assert max(d) <= 0, f"reduced cost {float(max(d)):.3g} > 0"
    objective = sum(c * x for c, x in zip(c_b, x_b))
    assert abs(sol.objective - objective) <= 1e-12 * abs(objective)
    return objective


def triplets(a):
    """(rows, cols, vals) of a's nonzeros, in row-major order."""
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


class TestStandardLP:
    def test_dense_and_triplet_forms_store_the_same_arrays(self):
        a = np.array([[0.0, 2.0, 0.0, -1.0], [3.0, 0.0, 0.0, 4.0], [0.0, 5.0, 6.0, 0.0]])
        b, c = [1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0]
        dense = StandardLP(a=a, b=b, c=c)
        rows, cols, vals = triplets(a)
        # shuffled, with an explicit zero that must not be stored
        order = np.random.default_rng(1).permutation(len(vals) + 1)
        rows, cols, vals = (np.append(v, z)[order] for v, z in ((rows, 0), (cols, 2), (vals, 0.0)))
        sparse = StandardLP.from_triplets(rows, cols, vals, a.shape, b, c)
        for lp in (dense, sparse):
            assert lp.cols.tolist() == [0, 1, 1, 2, 3, 3]
            assert lp.rows.tolist() == [1, 0, 2, 2, 0, 1]
            assert lp.vals.tolist() == [3.0, 2.0, 5.0, 6.0, -1.0, 4.0]
            assert lp.shape == (3, 4) and np.array_equal(lp.a, a)

    def test_random_lps_solve_alike_in_both_forms(self):
        # acceptance 6's LPs, from phase 1 and from a feasible basis
        rng = np.random.default_rng(606)
        for trial in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 1, 10))
            dense = random_feasible_lp(rng, m, n)
            rows, cols, vals = triplets(dense.a)
            order = rng.permutation(len(vals))
            sparse = StandardLP.from_triplets(
                rows[order], cols[order], vals[order], dense.shape, dense.b, dense.c)
            for basis in (None, first_feasible_basis(dense)):
                one, two = solve_lp(dense, basis), solve_lp(sparse, basis)
                assert one.x.tobytes() == two.x.tobytes(), trial
                assert (one.objective, one.phase1_pivots, one.phase2_pivots, one.bland) == (
                    two.objective, two.phase1_pivots, two.phase2_pivots, two.bland), trial

    @pytest.mark.parametrize(
        "a, b, c, message",
        [
            ([[np.nan, 1.0]], [1.0], [1.0, 0.0], "A has a NaN"),
            ([[1.0, 1.0]], [np.nan], [1.0, 0.0], "b has a NaN"),
            ([[np.inf, 1.0]], [1.0], [1.0, 0.0], "A has a NaN or inf"),
            ([[1.0, 1.0]], [1.0], [-np.inf, 0.0], "c has a NaN or inf"),
        ],
        ids=["nan-in-a", "nan-in-b", "inf-in-a", "inf-in-c"],
    )
    def test_rejects_non_finite_data(self, a, b, c, message):
        with pytest.raises(ValueError, match=message):
            StandardLP(a=a, b=b, c=c)
        with pytest.raises(ValueError, match=message):
            StandardLP.from_triplets([0, 0], [0, 1], np.ravel(a), (1, 2), b, c)

    @pytest.mark.parametrize(
        "rows, cols, vals, shape, message",
        [
            ([0, 0], [0], [1.0, 1.0], (1, 2), "one length"),
            ([0, 1], [0, 1], [1.0, 1.0], (1, 2), "outside"),
            ([0, 0], [0, 2], [1.0, 1.0], (1, 2), "outside"),
            ([0, -1], [0, 1], [1.0, 1.0], (1, 2), "outside"),
            ([0, 0, 0], [1, 0, 1], [1.0, 1.0, 2.0], (1, 2), "twice"),
            ([0, 0], [0, 1], [1.0, 1.0], (2, 2), "inconsistent"),
        ],
        ids=["unequal-lengths", "row-out-of-range", "col-out-of-range", "negative-row",
             "duplicate", "shape-disagrees"],
    )
    def test_rejects_malformed_triplets(self, rows, cols, vals, shape, message):
        with pytest.raises(ValueError, match=message):
            StandardLP.from_triplets(rows, cols, vals, shape, [5.0], [1.0, 0.0])

    def test_rejects_no_rows(self):
        # solve_lp once failed on it with numpy's "zero-size array" error
        with pytest.raises(ValueError, match="^an LP needs at least one row$"):
            StandardLP(a=np.zeros((0, 2)), b=[], c=[1.0, 0.0])
        with pytest.raises(ValueError, match="^an LP needs at least one row$"):
            StandardLP.from_triplets([], [], [], (0, 2), [], [0.0, 0.0])


def scan_inputs(ratios, ids, rng):
    """alpha, x_B and basis whose candidate rows (alpha 1) have these
    ratios and basic ids, in this order, between rows that are not
    candidates (alpha 0, -1 or 1e-10)."""
    k = len(ratios)
    alpha = np.ones(2 * k + 1)
    alpha[::2] = rng.choice([0.0, -1.0, 1e-10], k + 1)
    x_b = rng.random(2 * k + 1)
    x_b[1::2] = ratios
    basis = rng.permutation(10 * k + 10)[: 2 * k + 1]
    basis[1::2] = ids
    return alpha, x_b, basis


def near_tie_chains(rng):
    """(ratios, ids) on which a sequential scan depends on the path:
    chains of rows stepping up or down by about 1e-12 or an ulp, longer
    than 1e-12 times their length where the ulp exceeds 1e-12, around
    magnitudes where an ulp is below, near and above 1e-12."""
    for base in (1.0, 2.0**12, 2.0**13, 2.0**40):
        ulp = math.ulp(base)
        for step in (0.9e-12, 0.99e-12, 1.1e-12, ulp, 2 * ulp):
            for k in (3, 6, 7, 60):
                up = base + step * np.arange(k)
                for ratios in (up, up[::-1]):
                    for ids in (np.arange(k), np.arange(k)[::-1], rng.permutation(k)):
                        yield ratios, ids


def least_ratio_row(alpha, x_b, basis):
    """The ratio test's rule by brute force: of the rows with alpha >
    1e-9 whose ratio x_B / alpha lies within 1e-12 of the least ratio,
    the row with the lowest basic id; -1 if no row qualifies."""
    ratios = {i: x_b[i] / alpha[i] for i in range(len(alpha)) if alpha[i] > 1e-9}
    low = min((r for r in ratios.values() if not math.isnan(r)), default=math.inf)
    tied = [i for i, r in ratios.items() if r - low <= 1e-12]
    return min(tied, key=lambda i: basis[i], default=-1)


def order_free(alpha, x_b, basis):
    """True if no candidate ratio lies more than 1e-12 but at most 2e-12
    above the least one.  The rows within 1e-12 then all tie with each
    other, and every other row lies more than 1e-12 above each of them,
    so the reference's sequential scan picks the same row in any row
    order."""
    ratios = x_b[alpha > 1e-9] / alpha[alpha > 1e-9]
    gap = ratios - np.fmin.reduce(ratios, initial=np.inf)
    return not ((gap > 1e-12) & (gap <= 2e-12)).any()


def assert_ratio_test(args, label):
    """lpsolver._leaving_row against its rule, and against the
    reference's scan where that scan does not depend on the row order;
    returns whether the scan was compared."""
    row = lpsolver._leaving_row(*args)
    assert row == least_ratio_row(*args), label
    if order_free(*args):
        assert row == reference._leaving_row(*args), label
        return True
    return False


def assert_solves_like_reference(lp, basis=None):
    """The reference solver's status, and its objective to 1e-12
    relative, with no negative entry in x; returns both solutions."""
    got, want = solve_lp(lp, basis), reference.solve_lp(lp, basis)
    assert got.status == want.status and (got.x >= 0.0).all()
    if want.status == "optimal":
        assert abs(got.objective - want.objective) <= 1e-12 * abs(want.objective)
    else:
        assert got.objective.hex() == want.objective.hex()  # nan or inf
    return got, want


def lifetime_lp(n, seed, monkeypatch, with_coop=True):
    """The lifetime LP and crash basis of an n-node topology at the
    bench's constant density."""
    nodes = harness.generate_topology(n, 100.0 * math.sqrt(n / 30.0), seed)
    return lifetime_lp_of(nodes, routing.build_links(nodes, harness.default_phy()), monkeypatch, with_coop)


def lifetime_lp_of(nodes, links, monkeypatch, with_coop):
    """The lifetime LP and crash basis that solve_lifetime_lp solves,
    or None where it answers lifetime 0 without solving one."""
    captured = []
    with monkeypatch.context() as patch:
        patch.setattr(routing, "solve_lp", lambda lp, basis: captured.append((lp, basis)) or solve_lp(lp, basis))
        routing.solve_lifetime_lp(nodes, links, with_coop=with_coop)
    return captured[0] if captured else None


class TestPivotOracles:
    """Pricing against the unvectorised pricing it replaced, bit for
    bit; the ratio test against a brute-force statement of its rule, and
    against the reference's sequential scan wherever that scan cannot
    depend on the row order; whole solves against the
    reference's Dantzig-priced simplex, by status and objective, and
    against exact optimality certificates."""

    def test_ratio_test_on_near_tie_chains(self):
        rng = np.random.default_rng(24)
        compared = [assert_ratio_test(scan_inputs(ratios, ids, rng), (ratios[0], ids[:3]))
                    for ratios, ids in near_tie_chains(rng)]
        assert any(compared)

    @pytest.mark.parametrize("base", [0.0, 1.0, 2.0**12, 2.0**13, 2.0**40])
    def test_ratio_test_on_random_near_ties(self, base):
        # rows a few steps of 1e-12 or an ulp apart, in any order, with
        # ratios x_B / alpha that round
        rng = np.random.default_rng(int(base) % 1000 + 1)
        compared = []
        for trial in range(200):
            k = int(rng.integers(1, 40))
            step = rng.choice([0.5e-12, 0.9e-12, 1e-12, math.ulp(base + 1.0)])
            ratios = base + step * rng.integers(0, 3 * k, k)
            alpha, x_b, basis = scan_inputs(ratios, rng.permutation(k), rng)
            alpha[1::2] = rng.uniform(0.5, 2.0, k)
            x_b[1::2] *= alpha[1::2]
            compared.append(assert_ratio_test((alpha, x_b, basis), trial))
        assert any(compared)

    @pytest.mark.parametrize(
        "ratios",
        [
            [0.0] * 5 + [1e-13, 5e-13, 1e-12, 2e-12, 0.3],  # exact zeros, then near zero
            [-1e-13, 0.0, 1e-13, 0.0, -2e-12],
            [0.25] * 40,  # all equal
            [2.0**40] * 10 + [2.0**40 + 2.0**-12],
        ],
        ids=["zeros", "signed-near-zero", "all-equal", "equal-at-2^40"],
    )
    def test_ratio_test_on_exact_ties(self, ratios):
        rng = np.random.default_rng(len(ratios))
        for trial in range(20):
            order = rng.permutation(len(ratios))
            args = scan_inputs(np.array(ratios)[order], rng.permutation(len(ratios)), rng)
            assert lpsolver._leaving_row(*args) == reference._leaving_row(*args), trial

    def test_ratio_test_without_candidates(self):
        alpha, x_b, basis = np.array([0.0, -1.0, 1e-10]), np.ones(3), np.arange(3)
        assert lpsolver._leaving_row(alpha, x_b, basis) == reference._leaving_row(alpha, x_b, basis) == -1

    def test_pricing_matches_bincount(self):
        # columns of 0, 1, 2, 3, 4, 5, 12 and 30 entries; terms spread
        # over 16 decades, so a sum in another order would differ
        rng = np.random.default_rng(9)
        m, counts = 30, [0, 1, 2, 3, 4, 5, 12, 30] * 5
        rows = np.concatenate([np.sort(rng.choice(m, c, replace=False)) for c in counts]).astype(np.intp)
        cols = np.repeat(np.arange(len(counts)), counts)
        vals = rng.normal(size=len(rows)) * 10.0 ** rng.integers(-8, 9, len(rows))
        ours, theirs = (mod._Columns(rows, cols, vals, len(counts)) for mod in (lpsolver, reference))
        for trial in range(50):
            y = rng.normal(size=m) * 10.0 ** rng.integers(-8, 9, m)
            assert np.array_equal(ours.price(y), theirs.price(y)[: len(counts)]), trial

    def test_pricing_matches_bincount_on_a_lifetime_lp(self, monkeypatch):
        lp, _basis = lifetime_lp(30, 1, monkeypatch)
        m, n = lp.shape
        ours, theirs = (mod._Columns(lp.rows, lp.cols, lp.vals, n) for mod in (lpsolver, reference))
        rng = np.random.default_rng(3)
        for trial in range(20):
            y = rng.normal(size=m)
            assert np.array_equal(ours.price(y), theirs.price(y)[:n]), trial

    def test_random_lps_solve_like_the_reference(self):
        rng = np.random.default_rng(2424)
        for trial in range(40):
            m = int(rng.integers(2, 8))
            lp = random_feasible_lp(rng, m, int(rng.integers(m + 1, 16)))
            a, b = lp.a, lp.b.copy()
            flip = rng.random(len(b)) < 0.5  # negative right-hand sides
            a[flip], b[flip] = -a[flip], -b[flip]
            lp = StandardLP(a=a, b=b, c=lp.c)
            for basis in (None, first_feasible_basis(lp)):
                got, _want = assert_solves_like_reference(lp, basis)
                certify(lp, got)
            w = rng.normal(size=(2, len(b)))  # redundant rows
            assert_solves_like_reference(StandardLP(a=np.vstack([w @ a, a]), b=np.append(w @ b, b), c=lp.c))

    def test_lps_with_a_redundant_row(self):
        # Integer LPs with one row an integer multiple of another, so the
        # rows are exactly dependent and the rational certificate holds.
        # A rank-deficient A leaves m - rank(A) artificials basic, at
        # zero; started from every artificial and from a feasible basis
        # of the other rows plus the copy's artificial.
        rng = np.random.default_rng(30)
        statuses = []
        for trial in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 9))
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            x0 = rng.integers(0, 3, size=n)  # a feasible point
            b = a @ x0
            if trial % 4:  # bounded, as in random_feasible_lp
                a = np.vstack([np.hstack([a, np.zeros((m, 1))]), np.ones(n + 1)])
                b = np.append(b, x0.sum() + 5.0)
            lp = StandardLP(a=a, b=b, c=rng.normal(size=a.shape[1]))
            starts = [None]
            if np.linalg.matrix_rank(lp.a) == len(b):
                starts.append(first_feasible_basis(lp, 1e-12))
            src, at = int(rng.integers(len(b))), int(rng.integers(len(b) + 1))
            k = float(rng.choice([-3, -2, -1, 1, 2, 3]))
            padded = StandardLP(a=np.insert(a, at, k * a[src], axis=0), b=np.insert(b, at, k * b[src]), c=lp.c)
            rank = np.linalg.matrix_rank(padded.a)
            for start in starts:
                if start is not None:  # a structural basis of the other rows
                    start = start[:at] + [padded.shape[1] + at] + start[at:]
                got, _want = assert_solves_like_reference(padded, start)
                statuses.append(got.status)
                assert (got.basis >= padded.shape[1]).sum() == len(padded.b) - rank, trial
                if got.status == "optimal":
                    certify(padded, got)
        assert len(statuses) >= 300 and {"optimal", "unbounded"} <= set(statuses)

    def test_larger_random_lps_solve_like_the_reference(self):
        rng = np.random.default_rng(77)
        for trial in range(3):
            assert_solves_like_reference(random_feasible_lp(rng, 25, 60))

    def test_special_lps_solve_like_the_reference(self):
        got, _want = assert_solves_like_reference(CYCLING_LP)
        certify(CYCLING_LP, got)
        assert_solves_like_reference(StandardLP(a=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0], c=[1.0, 0.0]))  # infeasible
        assert_solves_like_reference(StandardLP(a=[[1.0, -1.0]], b=[0.0], c=[1.0, 0.0]))  # unbounded
        lp = StandardLP(a=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], b=[1.0, 2.0], c=[1.0, 0.0, 0.0])
        got, _want = assert_solves_like_reference(lp, [0, 4])
        assert certify(lp, got) == 1

    @pytest.mark.parametrize("n, seed", [(30, 1), (30, 2), (60, 1), (100, 1)])
    def test_lifetime_lps_solve_like_the_reference(self, monkeypatch, n, seed):
        # from the crash basis with and without coop links, and at n =
        # 30 from every artificial too; each in no more pivots than
        # Dantzig's rule takes
        for with_coop in (False, True):
            lp, basis = lifetime_lp(n, seed, monkeypatch, with_coop)
            for start in (basis, None) if n == 30 else (basis,):
                got, want = assert_solves_like_reference(lp, start)
                certify(lp, got)
                assert got.phase1_pivots + got.phase2_pivots <= want.phase1_pivots + want.phase2_pivots

    @pytest.mark.parametrize("topology", ["topo12.json", "topo12c.json", "topo12r.json", "topo14.json"])
    def test_golden_topology_lps_pass_certify(self, monkeypatch, topology):
        # the LPs behind the golden `wsnlife lp` outputs, solved from
        # the crash basis, proved optimal in exact arithmetic; one is
        # skipped, topo12c without coop links, whose lifetime is 0 with
        # no LP solved, as four sensors with traffic have no route
        nodes = harness.load_topology(str(Path(__file__).parent / "golden" / topology))
        links = routing.build_links(nodes, harness.default_phy())
        solved = [lifetime_lp_of(nodes, links, monkeypatch, with_coop) for with_coop in (False, True)]
        assert solved.count(None) == (topology == "topo12c.json")
        for lp, basis in filter(None, solved):
            certify(lp, solve_lp(lp, basis))

    def test_non_finite_reduced_cost_is_not_optimal(self):
        # y = c_B B^-1 is NaN on row 0, so no reduced cost is finite; a
        # scan that skipped the NaNs would find nothing improving.
        a = lpsolver._Columns(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 2]), np.ones(4), 3)
        binv = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(SimplexError, match="not finite"):
            lpsolver._iterate(a, np.array([1.0, 0.0, 0.0]), binv, np.ones(2), np.array([0, 2]), 10)
