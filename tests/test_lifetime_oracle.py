"""The lifetime LP against an independent solver and on instances the
earlier dense-tableau simplex could not solve."""

import math
import time

import numpy as np
import pytest

from wsnlife.harness import generate_topology
from wsnlife.routing import build_links, solve_lifetime_lp


def highs_lifetime(nodes, links, with_coop):
    """Max-min lifetime (Chang & Tassiulas, IEEE/ACM ToN 2004, with
    helper duty) posed as an inequality LP and solved by HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    sensors = [n for n in nodes if not n.is_sink]
    row = {n.id: r for r, n in enumerate(sensors)}
    arcs = [(i, j, ()) for (i, j) in sorted(links.direct) if i in row]
    if with_coop:
        arcs += [(i, j, h) for (i, j), h in sorted(links.coop.items()) if i in row]
    a_eq = np.zeros((len(sensors), len(arcs) + 1))
    a_ub = np.zeros((len(sensors), len(arcs) + 1))
    for k, (i, j, helpers) in enumerate(arcs):
        a_eq[row[i], k] += 1.0
        if j in row:
            a_eq[row[j], k] -= 1.0
        for v in (i, *helpers):
            a_ub[row[v], k] += 1.0
    a_eq[:, -1] = [-n.rate for n in sensors]
    cost = np.zeros(len(arcs) + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=a_ub, b_ub=[n.energy for n in sensors], A_eq=a_eq,
                  b_eq=np.zeros(len(sensors)), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def assert_feasible_flows(nodes, links, sol, tol=1e-9):
    """Flow conservation at every sensor and the energy caps, helper
    duty included, recomputed from qhat."""
    net = {n.id: 0.0 for n in nodes}
    spent = {n.id: 0.0 for n in nodes}
    for (i, j, coop), q in sol.qhat.items():
        assert q > 0.0
        net[i] += q
        net[j] -= q
        for v in (i, *(links.coop[(i, j)] if coop else ())):
            spent[v] += q
    for n in nodes:
        if not n.is_sink:
            assert net[n.id] == pytest.approx(n.rate * sol.lifetime, abs=tol)
            assert spent[n.id] <= n.energy + tol
        assert sol.energy_used[n.id] == pytest.approx(spent[n.id], abs=tol)


@pytest.mark.parametrize("seed", range(8))
def test_matches_highs_on_random_topologies(phy, seed):
    n = 5 + 5 * seed  # 5 ... 40 nodes at constant density
    nodes = generate_topology(n, 100.0 * math.sqrt(n / 30.0), 1000 + seed)
    links = build_links(nodes, phy)
    for with_coop in (False, True):
        sol = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        assert sol.status == "optimal"
        reference = highs_lifetime(nodes, links, with_coop)
        assert sol.lifetime == pytest.approx(reference, rel=1e-9, abs=1e-12)
        assert_feasible_flows(nodes, links, sol)


# n = 150 on a 223.6 m field: the topologies that the benchmark's
# _connected_topology(150, 223.6, seed, index) draws for seed 510 /
# index 3 and seed 504 / index 13 (the first sub-seed of each is
# connected).  The dense tableau drifted on both until its final basis
# violated A x = b.  References: the HiGHS optima, 25/292 and 17/133.
@pytest.mark.parametrize(
    "subseed, reference",
    [(1918525479, 0.08561643835616438), (176851269, 0.12781954887218044)],
)
def test_n150_instances_solve(phy, subseed, reference):
    nodes = generate_topology(150, 223.6, subseed)
    links = build_links(nodes, phy)
    start = time.process_time()
    sol = solve_lifetime_lp(nodes, links, with_coop=True)
    assert time.process_time() - start < 1.0
    assert sol.lifetime == pytest.approx(reference, rel=1e-7)
    assert_feasible_flows(nodes, links, sol)
