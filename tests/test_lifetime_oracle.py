"""The lifetime LP against an independent solver, on instances the
earlier dense-tableau simplex could not solve, and under metamorphic
relations: changes to the input whose effect on the output is known."""

import math
import pathlib
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wsnlife.harness import flow_solution_to_json, generate_topology, load_topology
from wsnlife.lpsolver import SimplexError
from wsnlife.routing import (
    NoRouteError,
    SensorNode,
    build_links,
    shortest_path_lifetime,
    simulate_dynamic,
    solve_lifetime_lp,
)


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


# generate_topology(30, 160.0, seed): in each, some sensors have no
# direct route to the sink, so the crash basis starts their
# conservation rows on artificials.  Without coop links those sensors
# have no route at all and the optimum is 0.
@pytest.mark.parametrize("seed", [14, 30, 35, 49])
def test_matches_highs_off_the_direct_tree(phy, seed):
    nodes = generate_topology(30, 160.0, seed)
    links = build_links(nodes, phy)
    with pytest.raises(NoRouteError):
        shortest_path_lifetime(nodes, links)
    for with_coop in (False, True):
        sol = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        reference = highs_lifetime(nodes, links, with_coop)
        assert sol.lifetime == pytest.approx(reference, rel=1e-9, abs=1e-12)
        assert_feasible_flows(nodes, links, sol)


# A sensor with traffic and no route pins the lifetime to 0, which
# comes back with no flow and no energy used.  The first is
# tests/golden/topo12c.json; in the other two a sensor has no route even
# with coop links.
@pytest.mark.parametrize(
    "n, field, seed, energy, with_coop",
    [(12, 110.0, 13, 40.0, False), (30, 160.0, 60, 1.0, True), (30, 160.0, 102, 1.0, True)],
)
def test_zero_optimum_moves_no_flow(phy, n, field, seed, energy, with_coop):
    nodes = [replace(v, energy=energy) for v in generate_topology(n, field, seed)]
    links = build_links(nodes, phy)
    sol = solve_lifetime_lp(nodes, links, with_coop=with_coop)
    assert highs_lifetime(nodes, links, with_coop) == pytest.approx(0.0, abs=1e-12)
    assert sol.lifetime == 0.0
    assert sol.qhat == {}
    assert sol.energy_used == {v.id: 0.0 for v in nodes}


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


GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_topologies():
    return [load_topology(str(path)) for path in sorted(GOLDEN.glob("topo*.json"))]


@pytest.fixture(scope="module")
def seed1_pool(workloads):
    """The node lists of the bench's seed-1 network pool, in pool order."""
    return [nodes for ladder in workloads.Network(1).pool for nodes in ladder]


# solve_lifetime_lp solves in units where the largest energy lies in
# [0.5, 1), so scaling every battery by 2^k, for each k here, scales
# the lifetime, every flow and every node's energy use by exactly 2^k.
ENERGY_EXPONENTS = (-60, -46, -40, -21, -1, 1, 3, 10, 40, 60)


@pytest.mark.parametrize("with_coop", [False, True])
def test_energy_scaling_is_exact(phy, with_coop):
    rng = np.random.default_rng(46)
    nets = [load_topology(str(GOLDEN / name)) for name in ("topo12.json", "topo12c.json", "topo14.json")]
    for seed in range(3):  # fractional energies over two decades
        nodes = generate_topology(20, 100.0 * math.sqrt(20 / 30.0), 4600 + seed)
        nets.append([replace(v, energy=float(rng.uniform(0.1, 10.0))) for v in nodes])
    for nodes in nets:
        links = build_links(nodes, phy)
        base = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        for k in ENERGY_EXPONENTS:
            scaled = [replace(v, energy=math.ldexp(v.energy, k)) for v in nodes]
            sol = solve_lifetime_lp(scaled, links, with_coop=with_coop)
            assert sol.lifetime == math.ldexp(base.lifetime, k), k
            assert sol.qhat == {key: math.ldexp(q, k) for key, q in base.qhat.items()}, k
            assert sol.energy_used == {i: math.ldexp(e, k) for i, e in base.energy_used.items()}, k


def test_tiny_batteries_keep_their_lifetime(phy):
    # topo12's lifetime is exactly 100/3 at 40 units a battery (a
    # rational certificate of its LP gives 25/24 in solver units); at
    # 40 * 2^-46 units it is 100/3 * 2^-46, about 4.74e-13, and not the
    # 0 that absolute tolerances at the data's own scale once gave
    nodes = [v if v.is_sink else replace(v, energy=math.ldexp(40.0, -46))
             for v in load_topology(str(GOLDEN / "topo12.json"))]
    links = build_links(nodes, phy)
    for with_coop in (False, True):
        sol = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        assert sol.lifetime == float(Fraction(100, 3) / 2**46)
        assert_feasible_flows(nodes, links, sol, tol=1e-24)


@pytest.mark.parametrize("with_coop", [False, True])
def test_isolated_idle_sensor_moves_nothing(phy, seed1_pool, with_coop):
    # A rate-0 sensor far from every node has no link, so its flow
    # conservation row in the lifetime LP is all zeros: the LP gains a
    # redundant row, whose artificial stays basic at zero.  The lifetime
    # may move by rounding only, and the sensor spends nothing.
    nets = golden_topologies() + seed1_pool[:60]
    assert len(nets) == 64
    for k, nodes in enumerate(nets):
        idle = SensorNode(id=max(v.id for v in nodes) + 1, x=1e6, y=1e6, rate=0.0)
        base = solve_lifetime_lp(nodes, build_links(nodes, phy), with_coop=with_coop)
        sol = solve_lifetime_lp(nodes + [idle], build_links(nodes + [idle], phy), with_coop=with_coop)
        assert abs(sol.lifetime - base.lifetime) <= 1e-15 * base.lifetime, k
        assert sol.energy_used[idle.id] == 0.0, k
        assert all(idle.id not in (i, j) for i, j, _coop in sol.qhat), k


@pytest.mark.parametrize("with_coop", [False, True])
def test_plan_does_not_depend_on_the_node_order(phy, seed1_pool, with_coop):
    # The LP's sensor rows go in id order, so a shuffled node list gives
    # the same printed plan, byte for byte: three shuffles of each golden
    # topology, one of each of the first 30 seed-1 pool instances.
    rng = np.random.default_rng(32)
    for k, nodes in enumerate(golden_topologies() + seed1_pool[:30]):
        want = flow_solution_to_json(solve_lifetime_lp(nodes, build_links(nodes, phy), with_coop=with_coop))
        for _ in range(3 if k < 4 else 1):
            shuffled = [nodes[i] for i in rng.permutation(len(nodes))]
            sol = solve_lifetime_lp(shuffled, build_links(shuffled, phy), with_coop=with_coop)
            assert flow_solution_to_json(sol) == want, k


@pytest.mark.parametrize("with_coop", [False, True])
def test_rate_scaling_is_exact(phy, seed1_pool, with_coop):
    # The solver's units put the largest rate in [0.5, 1), so every rate
    # times 2^k gives the same LP: the lifetime is exactly 2^-k times as
    # long, and the flows and energy use are unchanged.  Every k in
    # -60 ... 60 on the golden topologies, every 20th on the first four
    # seed-1 pool instances.
    cases = [(nodes, range(-60, 61)) for nodes in golden_topologies()]
    cases += [(nodes, range(-60, 61, 20)) for nodes in seed1_pool[:4]]
    for nodes, exponents in cases:
        links = build_links(nodes, phy)
        base = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        for k in exponents:
            scaled = [replace(v, rate=math.ldexp(v.rate, k)) for v in nodes]
            sol = solve_lifetime_lp(scaled, links, with_coop=with_coop)
            assert sol.lifetime == math.ldexp(base.lifetime, -k), k
            assert (sol.qhat, sol.energy_used) == (base.qhat, base.energy_used), k


def outcome(f, *args):
    """f(*args), or the class of the NoRouteError it raises."""
    try:
        return f(*args)
    except NoRouteError as exc:
        return type(exc)


def test_monotone_relabelling_maps_every_output(phy, seed1_pool):
    # i -> 3i + 7 keeps the order of the ids, which every tie rule and
    # the LP's rows follow, so each output is the same with its ids
    # mapped: on the golden topologies and the first ten seed-1 pool
    # instances.
    def f(i):
        return 3 * i + 7

    for k, nodes in enumerate(golden_topologies() + seed1_pool[:10]):
        moved = [replace(v, id=f(v.id)) for v in nodes]
        links, moved_links = build_links(nodes, phy), build_links(moved, phy)
        assert moved_links.direct == {(f(i), f(j)) for i, j in links.direct}, k
        assert dict(moved_links.coop) == {(f(i), f(j)): tuple(map(f, h)) for (i, j), h in links.coop.items()}, k
        for with_coop in (False, True):
            want = solve_lifetime_lp(nodes, links, with_coop=with_coop)
            got = solve_lifetime_lp(moved, moved_links, with_coop=with_coop)
            assert got.lifetime == want.lifetime, k
            assert got.qhat == {(f(i), f(j), coop): q for (i, j, coop), q in want.qhat.items()}, k
            assert got.energy_used == {f(i): e for i, e in want.energy_used.items()}, k
        assert outcome(shortest_path_lifetime, moved, moved_links) == outcome(shortest_path_lifetime, nodes, links), k
        assert simulate_dynamic(moved, moved_links) == simulate_dynamic(nodes, links), k


# One battery, or one rate, times 2^k: from k = 37 on topo12 the other
# sensors' batteries or rates fall near or below the solver's
# tolerances, where a solve raises SimplexError.
WIDE_EXPONENTS = (0, 1, 10, 30, *range(36, 46), 60, 300, 1000)


def wide_lifetimes(phy, nodes, field, with_coop):
    """The lifetime, and the lifetimes with the battery or the rate
    (field) of the lowest-id sensor with traffic times 2^k for each k
    in WIDE_EXPONENTS, None where the solve raises SimplexError."""
    links = build_links(nodes, phy)
    sensor = min(v.id for v in nodes if v.rate > 0)
    lifetimes = []
    for k in WIDE_EXPONENTS:
        wide = [replace(v, **{field: math.ldexp(getattr(v, field), k)}) if v.id == sensor else v for v in nodes]
        try:
            lifetimes.append(solve_lifetime_lp(wide, links, with_coop=with_coop).lifetime)
        except SimplexError:
            lifetimes.append(None)
    return solve_lifetime_lp(nodes, links, with_coop=with_coop).lifetime, lifetimes


@pytest.mark.parametrize("field", ["energy", "rate"])
def test_one_wide_battery_or_rate_moves_the_lifetime_one_way(phy, seed1_pool, field):
    # A larger battery never shortens the optimum, and a larger rate
    # never lengthens it: each solve either raises SimplexError or keeps
    # to that.  On the golden topologies and the first four seed-1 pool
    # instances, but for the battery of topo12c with coop links, which
    # the next test covers.
    nets = {path.stem: load_topology(str(path)) for path in sorted(GOLDEN.glob("topo*.json"))}
    nets.update((f"seed1-{k}", nodes) for k, nodes in enumerate(seed1_pool[:4]))
    raised = 0
    for name, nodes in nets.items():
        for with_coop in (False, True):
            if (field, name, with_coop) == ("energy", "topo12c", True):
                continue
            base, lifetimes = wide_lifetimes(phy, nodes, field, with_coop)
            raised += lifetimes.count(None)
            wrong = [(k, t) for k, t in zip(WIDE_EXPONENTS, lifetimes)
                     if t is not None and (t < base if field == "energy" else t > base)]
            assert wrong == [], (name, with_coop)
    assert raised > 0


def test_one_wide_battery_beside_coop_only_sensors(phy):
    # topo12c's sensors 3, 6, 9 and 10 reach the sink only over coop
    # links, so no min-hop tree bound checks the optimum; with sensor
    # 1's battery times 2^41 and more the LP reads 0.0, and solve_lp
    # refuses it, as the other batteries' rows lie below its resolution.
    base, lifetimes = wide_lifetimes(phy, load_topology(str(GOLDEN / "topo12c.json")), "energy", True)
    assert all(t is None or t >= base for t in lifetimes)
