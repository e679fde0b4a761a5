import itertools

import numpy as np
import pytest

from wsnlife import lpsolver
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

    def test_feasibility_residual(self):
        rng = np.random.default_rng(7)
        lp = random_feasible_lp(rng, 4, 8)
        sol = solve_lp(lp)
        residual = np.abs(lp.a @ sol.x - lp.b).max()
        assert residual <= 1e-7 * (1.0 + np.abs(lp.b).max())
        assert (sol.x >= -1e-9).all()
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

    def test_redundant_rows_dropped(self):
        # Appending combinations of existing rows leaves the LP unchanged.
        rng = np.random.default_rng(3)
        for trial in range(10):
            lp = random_feasible_lp(rng, 3, 6)
            w = rng.normal(size=(2, lp.a.shape[0]))
            padded = StandardLP(a=np.vstack([w @ lp.a, lp.a]), b=np.append(w @ lp.b, lp.b), c=lp.c)
            sol = solve_lp(padded)
            assert sol.status == "optimal", trial
            assert sol.objective == pytest.approx(solve_lp(lp).objective, abs=1e-9), trial

    def test_redundant_row_dropped_is_the_dependent_one(self):
        # Rows 1 and 2 are equal.  Phase 1 ends with row 1's artificial
        # basic at basis position 4; dropping constraint 4 (the bound)
        # instead of row 1 would leave a singular basis.
        lp = StandardLP(
            a=[[2, -2, 0, 0], [0, 1, -1, 0], [0, 1, -1, 0], [0, 1, -2, 0], [1, 1, 1, 1]],
            b=[2, -1, -1, -2, 4],
            c=[2, 1, 0, 0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x.tolist() == pytest.approx([1.0, 0.0, 1.0, 2.0], abs=1e-12)


def first_feasible_basis(lp: StandardLP):
    """The first basis, in combinations order, that is nonsingular and
    has B^-1 b >= 0."""
    m, n = lp.a.shape
    for cols in itertools.combinations(range(n), m):
        sub = lp.a[:, cols]
        if np.linalg.matrix_rank(sub) == m and (np.linalg.solve(sub, lp.b) >= 0.0).all():
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

    def test_cycling_lp_switches_to_bland(self):
        # Phase 1 of this LP is the cycling example of Bertsimas &
        # Tsitsiklis (Example 3.6): the column sums are its objective
        # (3/4, -20, 1/2, -6) and the artificials of rows 1-2 are its
        # slacks.  Dantzig pricing cycles through degenerate pivots until
        # the streak limit 2 (m + n + m) = 32 turns Bland's rule on.
        lp = StandardLP(
            a=[
                [0.25, -8.0, -1.0, 9.0, 0.1, 0.0, 0.0, 0.0],
                [0.5, -12.0, -0.5, 3.0, 0.0, 0.1, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.1, 0.0],
                [0.0, 0.0, 1.0, -18.0, 0.0, 0.0, 0.0, 0.1],
            ],
            b=[0.0, 0.0, 1.0, 100.0],
            c=[0.75, -20.0, 0.5, -6.0, 0.0, 0.0, 0.0, 0.0],
        )
        sol = solve_lp(lp)
        assert sol.bland
        assert sol.phase1_pivots > 32
        assert sol.objective == pytest.approx(enumerate_vertices(lp), abs=1e-9)
        assert sol.objective == pytest.approx(1.25, abs=1e-9)


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
