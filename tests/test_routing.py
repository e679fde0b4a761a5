import heapq
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from routing_reference import reference_build_links, reference_lp_data, reference_min_hop_tree, reference_no_route

from wsnlife import harness, lpsolver, routing
from wsnlife.harness import generate_topology
from wsnlife.lpsolver import LPSolution, SimplexError, StandardLP, solve_lp
from wsnlife.routing import (
    CostParams,
    LinkSet,
    NoRouteError,
    SensorNode,
    build_links,
    dynamic_cost,
    shortest_path_lifetime,
    simulate_dynamic,
    solve_lifetime_lp,
)


def two_node_net(phy, spacing):
    a0 = phy.hop_range()
    return [
        SensorNode(id=1, x=0.0, y=0.0, rate=-1.0),
        SensorNode(id=2, x=spacing * a0, y=0.0, rate=1.0),
    ]


def repeated_id_net(phy):
    """Links built from a sink and sensor 1, handed a node list that
    repeats id 1 at another spot."""
    base = [SensorNode(0, 0.0, 0.0, rate=-2.0), SensorNode(1, 30.0, 0.0)]
    return base + [SensorNode(1, 60.0, 0.0)], build_links(base, phy)


class TestSensorNode:
    @pytest.mark.parametrize("field", ["x", "y", "energy", "rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="non-finite"):
            SensorNode(**{"id": 1, "x": 0.0, "y": 0.0, field: value})


class TestBuildLinks:
    def test_two_nodes_in_range(self, phy):
        nodes = two_node_net(phy, 0.99)
        links = build_links(nodes, phy)
        assert (1, 2) in links.direct and (2, 1) in links.direct
        assert not links.coop

    def test_two_nodes_out_of_range(self, phy):
        nodes = two_node_net(phy, 2.0)
        links = build_links(nodes, phy)
        assert not links.direct
        assert not links.coop

    def test_duplicate_positions_rejected(self, phy):
        nodes = [
            SensorNode(id=9, x=1.0, y=2.0),
            SensorNode(id=4, x=0.0, y=0.0, rate=-1.0),
            SensorNode(id=2, x=1.0, y=2.0),
        ]
        with pytest.raises(ValueError, match="^nodes 2 and 9 share a position$"):
            build_links(nodes, phy)

    @pytest.mark.parametrize("x3", [60.0, 30.0])  # the repeat apart, or on one spot
    def test_duplicate_ids_rejected(self, phy, x3):
        # Unchecked, id 1 would link to itself and help its own coop
        # link to the sink.
        nodes = [SensorNode(0, 0.0, 0.0, rate=-2.0), SensorNode(1, 30.0, 0.0), SensorNode(1, x3, 0.0)]
        with pytest.raises(ValueError, match="^node id 1 is used by more than one node$"):
            build_links(nodes, phy)
        with pytest.raises(ValueError, match="^node id 4 is used"):
            build_links([SensorNode(4, 0.0, 0.0, rate=-1.0), SensorNode(9, 5.0, 0.0), SensorNode(4, 9.0, 0.0)], phy)

    def test_snapshot_adjacency(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        for pair in [(3, 2), (5, 2), (6, 2), (4, 5), (4, 6), (2, 1)]:
            assert pair in links.direct
        # node 2 is the only node in direct reach of the sink
        assert {i for (i, j) in links.direct if j == 1} == {2}
        # the snapshot's cooperative shot to the sink, helped by node 5
        assert links.coop[(6, 1)] == (5,)
        # no direct sink reach from 3..6
        for i in (3, 4, 5, 6):
            assert (i, 1) not in links.direct


def reference_links(nodes, phy):
    """The double loop over id pairs that build_links replaced: a
    distance per pair, a scan of all sensors for each source's nearest
    one (ties to the lower id), a scan of all targets per source."""
    dist = {}
    for a in nodes:
        for b in nodes:
            if a.id < b.id:
                dist[(a.id, b.id)] = dist[(b.id, a.id)] = math.hypot(a.x - b.x, a.y - b.y)
    a0 = phy.hop_range()
    threshold = phy.snr_min * phy.noise / (phy.power * phy.c0)
    direct = {(a.id, b.id) for a in nodes for b in nodes if a.id != b.id and dist[(a.id, b.id)] <= a0}
    coop = {}
    sensors = [n for n in nodes if not n.is_sink]
    for src in sensors:
        nearest = min(((dist[(src.id, o.id)], o.id) for o in sensors if o.id != src.id), default=None)
        if nearest is None or nearest[0] > a0:
            continue
        h = nearest[1]
        for tgt in nodes:
            if tgt.id == src.id or (src.id, tgt.id) in direct:
                continue
            if dist[(src.id, tgt.id)] ** -phy.alpha + dist[(h, tgt.id)] ** -phy.alpha >= threshold:
                coop[(src.id, tgt.id)] = (h,)
    return direct, coop


@st.composite
def networks(draw):
    """1-14 sensors and 1-3 sinks in shuffled order under distinct,
    non-contiguous ids, either on an integer grid (many equidistant
    pairs) or uniform on a square."""
    n_sensors, n_sinks = draw(st.integers(1, 14)), draw(st.integers(1, 3))
    n = n_sensors + n_sinks
    if draw(st.booleans()):
        step = draw(st.sampled_from([8, 13, 20, 29]))
        cells = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
        xy = [(step * i, step * j) for i, j in draw(st.lists(cells, min_size=n, max_size=n, unique=True))]
    else:
        field = draw(st.floats(30.0, 300.0))
        xy = (np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, 2)) * field).tolist()
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    rates = [-1.0] * n_sinks
    rates += draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n_sensors, max_size=n_sensors))
    nodes = [SensorNode(id=i, x=float(x), y=float(y), rate=r) for i, (x, y), r in zip(ids, xy, rates)]
    return draw(st.permutations(nodes))


class TestLinksAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(nodes=networks())
    def test_same_links_as_pair_loop(self, phy, nodes):
        links = build_links(nodes, phy)
        direct, coop = reference_links(nodes, phy)
        assert links.direct == direct
        assert links.coop == coop

    @pytest.mark.parametrize(
        "low, high",
        [
            ((0.0, -28.0), (0.0, 28.0)),
            # 17^2 + 52^2 == 28^2 + 47^2, but np.hypot rounds them apart
            ((17.0, 52.0), (28.0, 47.0)),
        ],
    )
    def test_equidistant_helpers_tie_to_lower_id(self, phy, low, high):
        nodes = [
            SensorNode(id=12, x=high[0], y=high[1]),
            SensorNode(id=20, x=-57.0, y=0.0, rate=-3.0),
            SensorNode(id=7, x=0.0, y=0.0),
            SensorNode(id=3, x=low[0], y=low[1]),
        ]
        links = build_links(nodes, phy)
        assert links.coop[(7, 20)] == (3,)
        assert (links.direct, links.coop) == reference_links(nodes, phy)

    def test_nearly_coincident_nodes(self, phy):
        # d^-alpha overflows to inf on the close pair; pytest makes a
        # warning an error
        nodes = [
            SensorNode(id=0, x=0.0, y=0.0, rate=-1.0),
            SensorNode(id=1, x=1e-90, y=0.0),
            SensorNode(id=2, x=30.0, y=0.0),
        ]
        links = build_links(nodes, phy)
        assert (links.direct, links.coop) == reference_links(nodes, phy)


def scanned_adjacency(pairs):
    """Reference index: one full scan of the link pairs per source."""
    sources = {i for (i, _j) in pairs}
    return {i: tuple(sorted(j for (a, j) in pairs if a == i)) for i in sources}


class TestLinkIndex:
    @staticmethod
    def assert_matches_scan(links):
        # the arrays list the links in (src, dst) order, so that each
        # node's targets are one ascending run
        direct, coop = links.direct, links.coop
        assert [tuple(p) for p in links.direct_pairs.T.tolist()] == sorted(direct)
        assert [tuple(p) for p in links.coop_pairs.T.tolist()] == sorted(coop)
        assert [links.helpers_of(k) for k in range(len(coop))] == [coop[p] for p in sorted(coop)]
        succ, coop_succ = scanned_adjacency(direct), scanned_adjacency(coop)
        for i in {i for pair in direct | coop.keys() for i in pair}:
            assert links.direct_out(i) == succ.get(i, ())
            out = routing._leaving(links.coop_pairs, i)
            assert tuple(links.coop_pairs[1, out].tolist()) == coop_succ.get(i, ())

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 14),
        field=st.floats(20.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
        keep=st.integers(1, 3),
    )
    def test_matches_brute_force_scan(self, phy, n, field, seed, keep):
        links = build_links(generate_topology(n, field, seed), phy)
        self.assert_matches_scan(links)
        # replace() must rebuild the arrays from the new link fields
        thinned = replace(
            links,
            direct=frozenset(sorted(links.direct)[::keep]),
            coop=dict(list(links.coop.items())[::keep]),
        )
        self.assert_matches_scan(thinned)

    def test_node_without_links(self, phy):
        links = build_links(two_node_net(phy, 2.0), phy)
        assert links.direct_out(1) == ()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def bench_pools(workloads):
    """The node list of every instance in the bench's network and
    lp_scaling pools at seeds 1-3."""
    pools = []
    for seed in (1, 2, 3):
        pools += [nodes for ladder in workloads.Network(seed).pool for nodes in ladder]
        pools += [nodes for ladder in workloads.LpScaling(seed).pool for nodes, _links in ladder]
    return pools


def golden_topologies():
    return [harness.load_topology(str(path)) for path in sorted(GOLDEN.glob("topo*.json"))]


def random_hand_built(rng, ids):
    """Direct links at random, self-links included, and coop links
    under helper tuples of length 1-3 drawn from all ids, so that a
    helper can be the source or the target."""
    direct = {(int(i), int(j)) for i in ids for j in ids if rng.random() < 0.3}
    coop = {
        (int(i), int(j)): tuple(int(h) for h in rng.choice(ids, int(rng.integers(1, 4)), replace=False))
        for i in ids for j in ids if rng.random() < 0.2
    }
    return direct, coop


class TestLinkSet:
    def test_readback_equals_input(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            ids = rng.choice(np.arange(-40, 40), n, replace=False)
            direct, coop = random_hand_built(rng, ids)
            links = LinkSet(direct=frozenset(direct), coop=coop)
            assert links.direct == direct and direct == links.direct
            assert links.coop == coop and coop == links.coop
            assert len(links.direct) == len(direct) and len(links.coop) == len(coop)
            assert sorted(links.direct) == sorted(direct) and sorted(links.coop) == sorted(coop)
            assert all(pair in links.direct for pair in direct) and all(links.coop[p] == coop[p] for p in coop)
            for pair in itertools.product(range(-41, 41, 3), repeat=2):
                assert (pair in links.direct) == (pair in direct)
                assert links.coop.get(pair) == coop.get(pair)
            assert all(type(i) is int for pair in links.direct for i in pair)
            assert all(type(h) is int for hs in links.coop.values() for h in hs)

    def test_views_act_as_frozenset_and_dict(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        direct, coop = frozenset(links.direct), dict(links.coop)
        first = min(direct)
        for got, want in [
            (links.direct - {first}, direct - {first}),
            (links.direct | {(99, 99)}, direct | {(99, 99)}),
            (links.direct & {first, (99, 99)}, {first}),
        ]:
            assert type(got) is frozenset and got == want
        assert {**links.coop, first: (0,)} == {**coop, first: (0,)}
        assert dict(links.coop.items()) == coop and set(links.coop.keys()) == coop.keys()
        assert repr(links.direct) == repr(direct) and repr(links.coop) == repr(coop)
        for absent in [(99, 99), (first[0], 99), (2**70, 0), (0, 2**70), (1, 2, 3), "ab", 5, None]:
            assert absent not in links.direct and absent not in links.coop
        with pytest.raises(KeyError):
            links.coop[(99, 99)]

    def test_views_keep_nothing_per_link(self, phy):
        links = build_links(connected_topology(phy, 100, 1)[0], phy)
        pair = min(links.coop)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            views = links.direct, links.coop
            sizes = len(links.direct), len(links.coop), pair in links.direct, links.coop[pair]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sizes[:2] == (2496, 897) and views
        assert kept <= 1_000, kept

    def test_arrays_must_match_fields(self):
        with pytest.raises(ValueError):
            LinkSet._of_arrays(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros(1))

    def test_build_links_matches_parent_on_bench_pools(self, phy, bench_pools):
        for nodes in bench_pools:
            links = build_links(nodes, phy)
            direct, coop = reference_build_links(nodes, phy)
            assert links.direct == direct and links.coop == coop

    def test_equal_across_construction_paths(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        by_hand = LinkSet(direct=frozenset(sorted(links.direct, reverse=True)), coop=dict(links.coop))
        # a far-away node adds no link, and the node order does not matter
        far = SensorNode(id=99, x=1e6, y=0.0)
        other = build_links([far, *reversed(snapshot_nodes)], phy)
        for twin in (by_hand, other, replace(links)):
            assert (links == twin) is True and (links != twin) is False
        thinned = replace(links, direct=links.direct - {min(links.direct)})
        assert (links == thinned) is False and (links != thinned) is True
        assert links != (links.direct, links.coop)
        assert LinkSet(direct=frozenset(), coop={}) == LinkSet(direct=set(), coop={})

    def test_replace_as_the_bench_selftest_calls_it(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        direct, coop = links.direct, links.coop
        dropped = replace(links, direct=links.direct - {min(links.direct)})
        assert dropped.direct == direct - {min(direct)} and dropped.coop == coop
        extra = replace(links, coop={**links.coop, min(links.direct): (0,)})
        assert extra.direct == direct and extra.coop == {**coop, min(direct): (0,)}

    def test_direct_out_is_ascending_successors(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ids = rng.choice(np.arange(-20, 20), 8, replace=False)
            direct, coop = random_hand_built(rng, ids)
            links = LinkSet(direct=frozenset(direct), coop=coop)
            for i in range(-21, 21):
                assert links.direct_out(i) == tuple(sorted(j for (a, j) in direct if a == i))

    def test_holds_arrays_only(self, phy):
        # 100 nodes at the lp_scaling density: 2,496 direct and 897 coop
        # links.  One Python tuple per link in a frozenset, a dict and
        # three dict indexes kept 299 KB; the arrays keep 70 KB.
        nodes = connected_topology(phy, 100, 1)[0]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            links = build_links(nodes, phy)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (len(links.direct), len(links.coop)) == (2496, 897)
        assert kept <= 100_000, kept
        assert all(isinstance(v, np.ndarray) for v in vars(links).values())


def solver_units(nodes):
    """nodes in the units solve_lifetime_lp solves in: every energy and
    rate divided by the power of two that puts the largest sensor
    energy, or the largest sensor rate, in [0.5, 1)."""
    sensors = [v for v in nodes if not v.is_sink]
    e = math.frexp(max(v.energy for v in sensors))[1]
    r = math.frexp(max(v.rate for v in sensors))[1]
    return [replace(v, energy=math.ldexp(v.energy, -e), rate=math.ldexp(v.rate, -r)) for v in nodes]


def reference_lp_matrix(nodes, links, with_coop):
    """Row-by-row assembly of the lifetime LP: one conservation row and
    one energy row per sensor over columns direct flows | coop flows |
    T | energy slacks."""
    sinks = {n.id for n in nodes if n.is_sink}
    sensors = [n for n in nodes if not n.is_sink]
    arcs = [(i, j) for (i, j) in sorted(links.direct) if i not in sinks]
    coop = [(i, m) for (i, m) in sorted(links.coop) if i not in sinks] if with_coop else []
    nd, nc, ns = len(arcs), len(coop), len(sensors)
    t_col = nd + nc
    rows, rhs = [], []
    for node in sensors:
        row = [0.0] * (t_col + 1 + ns)
        for k, (i, j) in enumerate(arcs + coop):
            row[k] = float(i == node.id) - float(j == node.id)
        row[t_col] = -node.rate
        rows.append(row)
        rhs.append(0.0)
    for r, node in enumerate(sensors):
        row = [0.0] * (t_col + 1 + ns)
        for k, (i, _j) in enumerate(arcs):
            row[k] = float(i == node.id)
        for k, (i, m) in enumerate(coop):
            row[nd + k] = float(i == node.id) + float(node.id in links.coop[(i, m)])
        row[t_col + 1 + r] = 1.0
        rows.append(row)
        rhs.append(node.energy)
    c = [0.0] * (t_col + 1 + ns)
    c[t_col] = 1.0
    return np.array(rows), np.array(rhs), np.array(c)


class TestLifetimeLp:
    def test_repeated_id_rejected(self, phy):
        # Unchecked, the solver reported a singular starting basis.
        nodes, links = repeated_id_net(phy)
        with pytest.raises(ValueError, match="^node id 1 is used by more than one node$"):
            solve_lifetime_lp(nodes, links)

    @pytest.mark.parametrize("with_coop", [False, True])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_assembly_matches_row_by_row_reference(
        self, phy, snapshot_nodes, monkeypatch, seed, with_coop
    ):
        nodes = snapshot_nodes if seed is None else generate_topology(12, 80.0, seed)
        nodes = [replace(v, rate=0.0) if v.id == 3 else v for v in nodes]  # one rate-0 sensor
        links = build_links(nodes, phy)
        captured = []
        solve = routing.solve_lp
        monkeypatch.setattr(
            routing, "solve_lp", lambda lp, basis=None: captured.append(lp) or solve(lp, basis)
        )
        solve_lifetime_lp(nodes, links, with_coop=with_coop)
        a, b, c = reference_lp_matrix(solver_units(nodes), links, with_coop)
        (lp,) = captured
        assert lp.a.shape == a.shape
        assert np.array_equal(lp.a, a) and np.array_equal(lp.b, b) and np.array_equal(lp.c, c)

    def test_coinciding_entries_add_up(self, phy, snapshot_nodes, monkeypatch):
        # A hand-made self-loop cancels on its conservation row, and a
        # coop link helped by its own source costs it 2 per unit.
        links = build_links(snapshot_nodes, phy)
        links = LinkSet(direct=links.direct | {(4, 4)}, coop={**links.coop, (4, 1): (4,)})
        calls = capture_lps(monkeypatch)
        solve_lifetime_lp(snapshot_nodes, links, with_coop=True)
        ((lp, _basis, sol),) = calls
        assert sol.status == "optimal"
        a, b, c = reference_lp_matrix(solver_units(snapshot_nodes), links, True)
        assert np.array_equal(lp.a, a) and np.array_equal(lp.b, b) and np.array_equal(lp.c, c)

    def test_single_hop(self, phy):
        nodes = two_node_net(phy, 0.5)
        links = build_links(nodes, phy)
        sol = solve_lifetime_lp(nodes, links)
        assert sol.lifetime == pytest.approx(1.0, abs=1e-9)
        assert sol.qhat[(2, 1, False)] == pytest.approx(1.0, abs=1e-9)

    def test_snapshot_without_coop(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        sol = solve_lifetime_lp(snapshot_nodes, links, with_coop=False)
        assert sol.lifetime == pytest.approx(0.2, abs=1e-6)

    def test_snapshot_with_coop(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        sol = solve_lifetime_lp(snapshot_nodes, links, with_coop=True)
        assert sol.lifetime == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_flow_conservation_and_energy_caps(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        sol = solve_lifetime_lp(snapshot_nodes, links, with_coop=True)
        for node in snapshot_nodes:
            inflow = sum(q for (i, j, _c), q in sol.qhat.items() if j == node.id)
            outflow = sum(q for (i, j, _c), q in sol.qhat.items() if i == node.id)
            if node.rate > 0:
                assert inflow + node.rate * sol.lifetime == pytest.approx(outflow, abs=1e-6)
            assert sol.energy_used[node.id] <= node.energy + 1e-6

    def test_disconnected_origin_gives_zero(self, phy):
        a0 = phy.hop_range()
        nodes = [
            SensorNode(id=1, x=0.0, y=0.0, rate=-2.0),
            SensorNode(id=2, x=0.5 * a0, y=0.0, rate=1.0),
            SensorNode(id=3, x=10.0 * a0, y=0.0, rate=1.0),
        ]
        links = build_links(nodes, phy)
        sol = solve_lifetime_lp(nodes, links)
        assert sol.lifetime == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("with_coop", [False, True])
    def test_no_sink_raises(self, phy, with_coop):
        # with every node a sensor, T = 0 and circulations that deliver
        # nothing would come back as the optimum
        nodes = generate_topology(10, 80.0, 4)
        nodes[0] = replace(nodes[0], rate=1.0)
        with pytest.raises(ValueError, match="network has no sink"):
            solve_lifetime_lp(nodes, build_links(nodes, phy), with_coop=with_coop)

    def test_no_positive_rate_raises(self, phy):
        # the lifetime is unbounded, as in the other two algorithms
        a0 = phy.hop_range()
        nodes = [
            SensorNode(id=1, x=0.0, y=0.0, rate=-1.0),
            SensorNode(id=2, x=0.5 * a0, y=0.0, rate=0.0),
            SensorNode(id=3, x=a0, y=0.0, rate=0.0),
        ]
        links = build_links(nodes, phy)
        for with_coop in (False, True):
            with pytest.raises(ValueError, match="no sensor has a positive rate"):
                solve_lifetime_lp(nodes, links, with_coop=with_coop)
        with pytest.raises(NoRouteError):
            shortest_path_lifetime(nodes, links)
        with pytest.raises(ValueError):
            simulate_dynamic(nodes, links)

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    def test_non_optimal_status_raises(self, phy, snapshot_nodes, monkeypatch, status):
        # the lifetime LP is always feasible and bounded, so a solver
        # that says otherwise is at fault: no lifetime comes back
        monkeypatch.setattr(
            routing, "solve_lp",
            lambda lp, basis=None: LPSolution(np.zeros(lp.shape[1]), math.nan, status),
        )
        with pytest.raises(SimplexError, match=status):
            solve_lifetime_lp(snapshot_nodes, build_links(snapshot_nodes, phy))

    @pytest.mark.parametrize("change", ["drop a flow", "double the plan"])
    def test_plan_off_its_rows_raises(self, phy, snapshot_nodes, monkeypatch, change):
        # solve_lp checks every row of the plan it returns.  Dropping a
        # basic flow after phase 2 leaves its source's traffic unsent;
        # doubling every flow and T keeps each balance but spends twice
        # the battery of the nodes that set the lifetime.
        iterate = lpsolver._iterate

        def perturbed(a, cost, binv, x_b, basis, max_iters):
            result = iterate(a, cost, binv, x_b, basis, max_iters)
            t_col = int(cost.argmax())
            if cost[t_col] > 0:  # phase 2: no cost is positive in phase 1
                if change == "drop a flow":
                    x_b[np.flatnonzero((basis < t_col) & (x_b > 0))[0]] = 0.0
                else:
                    x_b[basis <= t_col] *= 2.0
            return result

        monkeypatch.setattr(lpsolver, "_iterate", perturbed)
        with pytest.raises(SimplexError, match="violates row "):
            solve_lifetime_lp(snapshot_nodes, build_links(snapshot_nodes, phy))

    def test_optimum_below_the_tree_raises(self, phy, snapshot_nodes, monkeypatch):
        # Halving every flow and T keeps each balance and battery, but
        # the load-balanced min-hop tree alone lasts longer than that.
        def solve(lp, basis=None):
            sol = solve_lp(lp, basis)
            x = sol.x.copy()
            x[: lp.c.argmax() + 1] *= 0.5
            return replace(sol, x=x)

        monkeypatch.setattr(routing, "solve_lp", solve)
        with pytest.raises(SimplexError, match="below the min-hop tree's"):
            solve_lifetime_lp(snapshot_nodes, build_links(snapshot_nodes, phy))

    @pytest.mark.parametrize("with_coop", [False, True])
    @pytest.mark.parametrize("k", [41, 50, 59, 80])
    @pytest.mark.parametrize("sensor", [1, 5, 9])
    def test_wide_battery_below_the_tree_raises(self, phy, sensor, k, with_coop):
        # topo12 with one battery times 2^k: the other batteries fall
        # below 1e-12 in the solver's units, and the LP's optimum reads
        # 0.0 with an empty plan, below the min-hop tree's lifetime.
        # solve_lp refuses it first: the other batteries' rows lie below
        # its resolution, so they read 0 against their energy.
        nodes = [replace(v, energy=math.ldexp(v.energy, k)) if v.id == sensor else v
                 for v in harness.load_topology(str(GOLDEN / "topo12.json"))]
        with pytest.raises(SimplexError, match="violates row "):
            solve_lifetime_lp(nodes, build_links(nodes, phy), with_coop=with_coop)

    def test_energy_scaling(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        base = solve_lifetime_lp(snapshot_nodes, links).lifetime
        scaled_nodes = [
            SensorNode(id=n.id, x=n.x, y=n.y, energy=3.0 * n.energy, rate=n.rate)
            for n in snapshot_nodes
        ]
        scaled = solve_lifetime_lp(scaled_nodes, links).lifetime
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_rate_scaling(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        base = solve_lifetime_lp(snapshot_nodes, links).lifetime
        scaled_nodes = [
            SensorNode(
                id=n.id, x=n.x, y=n.y, energy=n.energy,
                rate=2.0 * n.rate if n.rate > 0 else n.rate,
            )
            for n in snapshot_nodes
        ]
        scaled = solve_lifetime_lp(scaled_nodes, links).lifetime
        assert scaled == pytest.approx(base / 2.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_dominance_on_random_instances(self, phy, seed):
        nodes = generate_topology(8, 100.0, seed)
        links = build_links(nodes, phy)
        coop = solve_lifetime_lp(nodes, links, with_coop=True).lifetime
        plain = solve_lifetime_lp(nodes, links, with_coop=False).lifetime
        assert coop >= plain - 1e-9
        try:
            sp = shortest_path_lifetime(nodes, links)
        except NoRouteError:
            return
        assert plain >= sp - 1e-9


def capture_lps(monkeypatch):
    """Record (lp, basis, solution) for every solve_lp call that
    solve_lifetime_lp makes."""
    calls = []
    solve = routing.solve_lp

    def spy(lp, basis=None):
        sol = solve(lp, basis)
        calls.append((lp, basis, sol))
        return sol

    monkeypatch.setattr(routing, "solve_lp", spy)
    return calls


def connected_topology(phy, n, seed):
    """generate_topology at the lp_scaling density (30 nodes per
    100 m x 100 m), redrawn until every sensor reaches the sink over
    direct links."""
    for attempt in range(100):
        nodes = generate_topology(n, 100.0 * math.sqrt(n / 30.0), 1000 * seed + attempt)
        links = build_links(nodes, phy)
        try:
            shortest_path_lifetime(nodes, links)
        except NoRouteError:
            continue
        return nodes, links
    raise AssertionError(f"no connected topology with n={n}")


def reference_min_hop_next(nodes, links):
    """Next hops by the rule itself: BFS hop counts to the sink set,
    then the lowest-id direct successor one hop closer."""
    sinks = {n.id for n in nodes if n.is_sink}
    hops = {s: 0 for s in sinks}
    while True:
        new = {i: hops[j] + 1 for (i, j) in links.direct if j in hops and i not in hops}
        if not new:
            break
        hops.update(new)
    return {
        v: min(j for j in links.direct_out(v) if hops.get(j) == hops[v] - 1)
        for v in hops
        if v not in sinks
    }


def assert_artificials_off_the_tree(lp, basis, nodes, links):
    """The crash basis holds a conservation row's artificial (id n +
    row) on exactly the rows of the sensors with no min-hop tree edge,
    and a structural column everywhere else."""
    n = lp.shape[1]
    off_tree = [r for r, v in enumerate(v for v in nodes if not v.is_sink)
                if v.id not in reference_min_hop_next(nodes, links)]
    assert off_tree, "the network has a tree edge at every sensor"
    assert [k for k, j in enumerate(basis) if j >= n] == off_tree
    assert [basis[r] - n for r in off_tree] == off_tree


def assert_solves_alike(lp, twin, basis=None):
    """Two StandardLPs of one A solve to the same bits and counters."""
    one, two = solve_lp(lp, basis), solve_lp(twin, basis)
    assert one.x.tobytes() == two.x.tobytes()
    assert (one.objective, one.status) == (two.objective, two.status)
    assert (one.phase1_pivots, one.phase2_pivots, one.bland) == (
        two.phase1_pivots, two.phase2_pivots, two.bland)


class TestSparseAssembly:
    """solve_lifetime_lp hands solve_lp A as triplets; the dense twin
    StandardLP(a=lp.a, ...) is the same LP."""

    @pytest.mark.parametrize("with_coop", [False, True])
    @pytest.mark.parametrize("n", [20, 30, 60, 100])
    def test_dense_twin_has_the_same_triplets_and_solve(self, phy, monkeypatch, n, with_coop):
        nodes, links = connected_topology(phy, n, n)
        nodes = [replace(v, rate=0.0) if v.id == 3 else v for v in nodes]  # no stored zero
        calls = capture_lps(monkeypatch)
        solve_lifetime_lp(nodes, links, with_coop=with_coop)
        ((lp, basis, _sol),) = calls
        twin = StandardLP(a=lp.a, b=lp.b, c=lp.c)
        for name in ("rows", "cols", "vals", "b", "c"):
            assert np.array_equal(getattr(lp, name), getattr(twin, name)), name
        assert (lp.vals != 0.0).all()
        assert_solves_alike(lp, twin, basis)
        assert_solves_alike(lp, twin)

    def test_phase1_topology_solves_alike(self, phy, monkeypatch):
        # test_coop_only_sensor_takes_phase1's network: artificials in
        # the crash basis
        a0 = phy.hop_range()
        nodes = [
            SensorNode(id=1, x=0.0, y=0.0, rate=-2.0),
            SensorNode(id=2, x=1.05 * a0, y=0.0),
            SensorNode(id=3, x=1.3 * a0, y=0.0),
        ]
        links = build_links(nodes, phy)
        calls = capture_lps(monkeypatch)
        solve_lifetime_lp(nodes, links, with_coop=True)
        ((lp, basis, sol),) = calls
        assert_artificials_off_the_tree(lp, basis, nodes, links)
        assert sol.phase1_pivots > 0
        twin = StandardLP(a=lp.a, b=lp.b, c=lp.c)
        assert_solves_alike(lp, twin, basis)
        assert_solves_alike(lp, twin)

    @pytest.mark.parametrize("with_coop", [False, True])
    def test_no_dense_matrix_on_the_solve_path(self, phy, monkeypatch, with_coop):
        def dense(lp):
            raise AssertionError("the dense view of A was read")

        nodes, links = connected_topology(phy, 30, 3)
        expected = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        monkeypatch.setattr(StandardLP, "a", property(dense))
        sol = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        assert sol == expected


class _Caught(Exception):
    """Carries the LP and basis that solve_lifetime_lp hands to solve_lp."""


def assert_same_lp_data(monkeypatch, nodes, links, with_coop):
    """solve_lifetime_lp hands solve_lp the LP data and starting basis
    of routing_reference.reference_lp_data in solver units, bit for
    bit.  Returns the number of artificials in the basis, or None where
    a sensor with traffic has no route, so that the lifetime is 0 with
    no LP solved."""

    def catch(lp, basis=None):
        raise _Caught(lp, basis)

    monkeypatch.setattr(routing, "solve_lp", catch)
    if reference_no_route(nodes, links, with_coop):
        sol = solve_lifetime_lp(nodes, links, with_coop=with_coop)
        assert (sol.lifetime, sol.qhat, sol.energy_used) == (0.0, {}, dict.fromkeys((v.id for v in nodes), 0.0))
        return None
    with pytest.raises(_Caught) as caught:
        solve_lifetime_lp(nodes, links, with_coop=with_coop)
    lp, basis = caught.value.args
    ref, ref_basis = reference_lp_data(solver_units(nodes), links, with_coop)
    for name in ("rows", "cols", "vals", "b", "c"):
        got, want = getattr(lp, name), getattr(ref, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert basis == ref_basis and all(type(j) is int for j in basis)
    return sum(j >= lp.shape[1] for j in basis)


class TestLpDataAgainstReference:
    @pytest.mark.parametrize("with_coop", [False, True])
    def test_random_topologies(self, phy, monkeypatch, with_coop):
        # fractional rates and energies, silent sensors, a second sink
        # now and then, shuffled node order, and fields wide enough to
        # leave sensors with traffic without a route, which 9 of the 40
        # networks do: those are answered with no LP solved
        rng = np.random.default_rng(21)
        solved = []
        for _ in range(40):
            n = int(rng.integers(3, 40))
            nodes = generate_topology(n, float(rng.uniform(30.0, 250.0)), int(rng.integers(2**31)))
            nodes = [v if v.is_sink else replace(
                v, rate=float(rng.choice([-1.0, 0.0, 0.4, 1.0, 2.5])) if k > 1 else 1.5,
                energy=float(rng.uniform(0.5, 5.0))) for k, v in enumerate(nodes)]
            nodes = [nodes[k] for k in rng.permutation(n)]
            solved.append(assert_same_lp_data(monkeypatch, nodes, build_links(nodes, phy), with_coop))
        assert solved.count(None) == 9

    def test_hand_built_links(self, monkeypatch, snapshot_nodes):
        # self-links, direct and coop links on one pair, helper tuples
        # of length 1-3 with the source or the target among the
        # helpers, and links to and from ids of no node; 18 of the 80
        # LPs leave a sensor with traffic without a route, and are not
        # solved, and others start with artificials in the basis
        rng = np.random.default_rng(22)
        solved = []
        sensors = [v.id for v in snapshot_nodes if not v.is_sink]
        ids = [v.id for v in snapshot_nodes] + [7, 8]
        for _ in range(40):
            direct = {(i, j) for i in ids for j in ids if rng.random() < 0.3}
            coop = {
                (i, j): tuple(int(h) for h in rng.choice(sensors, int(rng.integers(1, 4)), replace=False))
                for i in ids for j in ids if rng.random() < 0.2
            }
            nodes = [v if v.is_sink else replace(v, rate=float(rng.choice([0.0, 0.5, 1.0, 3.0])))
                     for v in snapshot_nodes]
            nodes[1] = replace(nodes[1], rate=1.0)
            links = LinkSet(direct=frozenset(direct), coop=coop)
            for with_coop in (False, True):
                solved.append(assert_same_lp_data(monkeypatch, nodes, links, with_coop))
        assert solved.count(None) == 18 and sum(filter(None, solved)) > 0

    def test_bench_pools_and_golden_topologies(self, phy, monkeypatch, bench_pools):
        # one LP is not solved: topo12c's without coop links, where four
        # sensors with traffic have no route; with coop links they reach
        # the sink, and start on their rows' artificials
        solved = []
        for nodes in bench_pools + golden_topologies():
            links = build_links(nodes, phy)
            for with_coop in (False, True):
                solved.append(assert_same_lp_data(monkeypatch, nodes, links, with_coop))
        assert solved.count(None) == 1 and sum(filter(None, solved)) > 0


class TestCrashBasis:
    @pytest.mark.parametrize("seed", range(6))
    def test_min_hop_tree_matches_rule(self, phy, seed):
        nodes = generate_topology(25, 120.0, seed)
        links = build_links(nodes, phy)
        sinks = {n.id for n in nodes if n.is_sink}
        tree = routing._min_hop_tree(sinks, links)  # node -> column of its tree edge
        src, dst = links.direct_pairs.tolist()
        assert all(src[k] == i for i, k in tree.items())
        assert {i: dst[k] for i, k in tree.items()} == reference_min_hop_next(nodes, links)

    @pytest.mark.parametrize("with_coop", [False, True])
    @pytest.mark.parametrize("n, seed", [(10, 1), (20, 2), (30, 3), (45, 4), (60, 5)])
    def test_connected_network_skips_phase1(self, phy, monkeypatch, n, seed, with_coop):
        nodes, links = connected_topology(phy, n, seed)
        calls = capture_lps(monkeypatch)
        lifetime = solve_lifetime_lp(nodes, links, with_coop=with_coop).lifetime
        ((lp, basis, sol),) = calls
        assert max(basis) < lp.shape[1] and sol.phase1_pivots == 0  # no artificial
        cold = solve_lp(lp)
        assert cold.phase1_pivots > 0
        assert lifetime == pytest.approx(cold.objective, rel=1e-12)

    def test_pivot_budget(self, phy, monkeypatch):
        # The crash basis must save pivots, not only phase 1: on this
        # fixed n = 60 instance its phase-2 pivots stay below the cold
        # solve's phase-1 plus phase-2 pivots.
        nodes, links = connected_topology(phy, 60, 7)
        calls = capture_lps(monkeypatch)
        solve_lifetime_lp(nodes, links, with_coop=True)
        ((lp, _basis, crash),) = calls
        cold = solve_lp(lp)
        assert crash.phase1_pivots + crash.phase2_pivots < cold.phase1_pivots + cold.phase2_pivots

    def test_balanced_tree_saves_pivots_on_the_seed1_pools(self, phy, monkeypatch, workloads):
        # Every LP of the bench's seed-1 network and lp_scaling pools,
        # from the load-balanced crash tree and from the lowest-id one
        # built here.  Both reach one optimum.  Stated before the run:
        # the balanced tree takes at least 15% fewer pivots in all, and
        # at least 25% fewer at n = 100.
        lps = [(nodes, build_links(nodes, phy), with_coop)
               for ladder in workloads.Network(1).pool for nodes in ladder for with_coop in (False, True)]
        lps += [(nodes, links, True) for ladder in workloads.LpScaling(1).pool for nodes, links in ladder]
        pivots = {}  # n -> [lowest-id start, balanced start]
        calls = capture_lps(monkeypatch)
        for nodes, links, with_coop in lps:
            solve_lifetime_lp(nodes, links, with_coop=with_coop)
            ((lp, _basis, balanced),) = calls
            calls.clear()
            _lp, lowest_id_basis = reference_lp_data(solver_units(nodes), links, with_coop, reference_min_hop_tree)
            lowest_id = solve_lp(lp, lowest_id_basis)
            assert balanced.objective == pytest.approx(lowest_id.objective, rel=1e-13, abs=0.0)
            count = pivots.setdefault(len(nodes), [0, 0])
            for k, sol in enumerate((lowest_id, balanced)):
                count[k] += sol.phase1_pivots + sol.phase2_pivots
        (lowest_total, balanced_total) = np.sum(list(pivots.values()), axis=0)
        assert balanced_total <= 0.85 * lowest_total, pivots
        assert pivots[100][1] <= 0.75 * pivots[100][0], pivots

    def test_coop_only_sensor_takes_phase1(self, phy, monkeypatch):
        # Sensors 2 and 3 reach each other directly but the sink only
        # cooperatively, each helping the other: 2T <= 1 at either node.
        a0 = phy.hop_range()
        nodes = [
            SensorNode(id=1, x=0.0, y=0.0, rate=-2.0),
            SensorNode(id=2, x=1.05 * a0, y=0.0),
            SensorNode(id=3, x=1.3 * a0, y=0.0),
        ]
        links = build_links(nodes, phy)
        assert links.direct == {(2, 3), (3, 2)}
        assert links.coop == {(2, 1): (3,), (3, 1): (2,)}
        calls = capture_lps(monkeypatch)
        sol = solve_lifetime_lp(nodes, links, with_coop=True)
        ((lp, basis, lp_sol),) = calls
        assert_artificials_off_the_tree(lp, basis, nodes, links)
        assert lp_sol.phase1_pivots > 0
        assert sol.lifetime == pytest.approx(0.5, rel=1e-12)

    def test_unreachable_sensor_takes_phase1(self, phy, monkeypatch):
        # Sensor 3 has no route but no traffic either, so sensor 2's
        # single hop sets the lifetime.  Sensor 3's conservation row is
        # empty, so phase 1 finds no pivot for its artificial and drops
        # the row.
        a0 = phy.hop_range()
        nodes = [
            SensorNode(id=1, x=0.0, y=0.0, rate=-1.0),
            SensorNode(id=2, x=0.5 * a0, y=0.0, rate=1.0),
            SensorNode(id=3, x=10.0 * a0, y=0.0, rate=0.0),
        ]
        links = build_links(nodes, phy)
        calls = capture_lps(monkeypatch)
        sol = solve_lifetime_lp(nodes, links)
        ((lp, basis, lp_sol),) = calls
        assert_artificials_off_the_tree(lp, basis, nodes, links)
        assert (lp_sol.phase1_pivots, lp_sol.phase2_pivots) == (0, 1)
        assert sol.lifetime == pytest.approx(1.0, rel=1e-12)


def reference_link_cost(i, j, links, params, initial, remaining):
    """Per-edge inverse-barrier cost, looked up from the link sets on
    every call: (E0_i/E_i)^beta1 + sum over helpers (E0_h/E_h)^beta2,
    infinite once the transmitter or a helper is below one unit."""
    if (i, j) in links.direct:
        helpers = ()
    elif (i, j) in links.coop:
        helpers = links.coop[(i, j)]
    else:
        raise NoRouteError(f"no link {i} -> {j}")
    if remaining[i] < 1.0 or any(remaining[h] < 1.0 for h in helpers):
        return math.inf
    cost = (initial[i] / remaining[i]) ** params.beta1
    for h in helpers:
        cost += (initial[h] / remaining[h]) ** params.beta2
    return cost


def reference_least_cost_path(src, sinks, links, params, initial, remaining):
    """Dijkstra that prices every relaxation with reference_link_cost;
    direct successors before cooperative ones, ties toward lower
    predecessor ids."""
    dist = {src: 0.0}
    pred = {}
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u in sinks:
            path = []
            v = u
            while v != src:
                path.append(pred[v])
                v = pred[v][0]
            return path[::-1]
        edges = [(v, False) for v in links.direct_out(u)]
        edges += [(m, True) for (i, m) in sorted(links.coop) if i == u]
        for v, is_coop in edges:
            w = reference_link_cost(u, v, links, params, initial, remaining)
            if not math.isfinite(w):
                continue
            nd = d + w
            better = v not in dist or nd < dist[v] - 1e-15
            tie = v in dist and abs(nd - dist[v]) <= 1e-15 and u < pred[v][0]
            if better or tie:
                dist[v] = nd
                pred[v] = (u, v, is_coop)
                heapq.heappush(heap, (nd, v))
    return None


def reference_simulate(nodes, links, params=CostParams()):
    """The round-based heuristic with every link cost recomputed from
    the remaining energies on each relaxation; each sensor emits
    round(rate) packets a round."""
    # Copy the links into a frozenset and a dict once: the oracle looks
    # them up on every relaxation, and a LinkSet view searches arrays.
    links = SimpleNamespace(direct=frozenset(links.direct), coop=dict(links.coop), direct_out=links.direct_out)
    sinks = {n.id for n in nodes if n.is_sink}
    initial = {n.id: n.energy for n in nodes}
    remaining = dict(initial)
    packets = sorted((n.id, round(n.rate)) for n in nodes if n.rate > 0)
    emitted = sum(cnt for _o, cnt in packets)
    assert emitted > 0, "no sensor emits, so no round would end the run"
    for rnd in itertools.count():
        delivered = 0
        for origin, count in packets:
            for _ in range(count):
                path = reference_least_cost_path(origin, sinks, links, params, initial, remaining)
                if path is None:
                    return rnd + delivered / emitted
                for i, j, is_coop in path:
                    remaining[i] -= 1.0
                    for h in links.coop[(i, j)] if is_coop else ():
                        remaining[h] -= 1.0
                delivered += 1


def with_random_rates(nodes, rng):
    """nodes with each sensor's rate an integer 0-2 drawn from rng: 0
    where the sensor starts below one unit (it can neither transmit
    nor help), redrawn until some sensor emits."""
    while True:
        drawn = [
            v if v.is_sink
            else replace(v, rate=0.0 if v.energy < 1.0 else float(rng.integers(0, 3)))
            for v in nodes
        ]
        if any(v.rate > 0 for v in drawn):
            return drawn


def assert_matches_reference(nodes, links, rng):
    """simulate_dynamic == reference_simulate at the default exponents,
    then at random ones."""
    assert simulate_dynamic(nodes, links) == reference_simulate(nodes, links)
    params = CostParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
    assert simulate_dynamic(nodes, links, params) == reference_simulate(nodes, links, params)


def unbounded_least_cost_path(
    src: int,
    is_sink: list[bool],
    groups: list[list[tuple[tuple[int, ...], list[int]]]],
    tx: list[float],
    helper: list[float],
) -> list[tuple[int, tuple[int, ...]]] | None:
    """Deterministic Dijkstra on dense node indexes over direct and
    cooperative links.  groups[u] holds u's out-edges as (helpers,
    targets), direct links under (); a group's links all cost
    tx[u] + helper[h] per helper.  Ties are broken toward the lower
    predecessor index, then the lower sink index.  Returns the path as
    (transmitter, helpers) edges."""
    n = len(tx)
    dist = [math.inf] * n
    pred = [0] * n
    via: list[tuple[int, ...]] = [()] * n
    done = [False] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        if is_sink[u]:
            path = []
            while u != src:
                path.append((pred[u], via[u]))
                u = pred[u]
            return path[::-1]
        t = tx[u]
        if t == math.inf:
            continue
        for helpers, targets in groups[u]:
            w = t
            for h in helpers:
                w += helper[h]
            if w == math.inf:
                continue
            nd = d + w
            for v in targets:
                # Every cost term is >= 1, so an edge into a finalized
                # node can pass neither test below.
                if done[v]:
                    continue
                dv = dist[v]
                if nd < dv - 1e-15 or (abs(nd - dv) <= 1e-15 and u < pred[v]):
                    dist[v] = nd
                    pred[v] = u
                    via[v] = helpers
                    push(heap, (nd, v))
    return None


def unsplit_weight_groups(
    links: LinkSet, i: int, index: dict[int, int]
) -> list[tuple[tuple[int, ...], list[int]]]:
    """Node i's out-edges on dense indexes, grouped by helper tuple:
    direct targets under (), then each helper tuple's coop targets,
    every group in ascending target order."""
    groups = {(): [index[v] for v in links.direct_out(i)]}
    coop = links.coop
    for m in sorted(m for (a, m) in coop if a == i):
        helpers = tuple(index[h] for h in coop[(i, m)])
        groups.setdefault(helpers, []).append(index[m])
    return [(helpers, targets) for helpers, targets in groups.items() if targets]


def assert_same_paths(links, ids, sinks, tx, helper):
    """The bounded search returns the unbounded search's path, or
    None, from every non-sink origin, and its groups are the unsplit
    groups with each split into sinks and relays."""
    index = {i: k for k, i in enumerate(ids)}
    is_sink = [i in sinks for i in ids]
    split = [routing._weight_groups(links, i, index, is_sink) for i in ids]
    whole = [unsplit_weight_groups(links, i, index) for i in ids]
    for s, w in zip(split, whole):
        assert [(h, sorted(a + b)) for h, a, b in s] == w
        assert all(is_sink[v] for _h, a, _b in s for v in a)
        assert not any(is_sink[v] for _h, _a, b in s for v in b)
    for src in range(len(ids)):
        if not is_sink[src]:
            want = unbounded_least_cost_path(src, is_sink, whole, tx, helper)
            got = routing._least_cost_path(src, is_sink, split, tx, helper)
            assert got == want, (src, tx, helper)


def bounded_path(links, n, sinks, src, tx, helper):
    """The bounded search from src over nodes 0 .. n-1."""
    is_sink = [k in sinks for k in range(n)]
    index = {k: k for k in range(n)}
    groups = [routing._weight_groups(links, k, index, is_sink) for k in range(n)]
    return routing._least_cost_path(src, is_sink, groups, tx, helper)


def random_link_set(rng, ids):
    """Direct links at random, and coop links under one- and
    two-helper tuples, some of them onto a target the transmitter also
    reaches directly."""
    direct = {(i, j) for i in ids for j in ids if i != j and rng.random() < 0.3}
    coop = {}
    for i in ids:
        for j in ids:
            if i != j and rng.random() < 0.15:
                others = [h for h in ids if h not in (i, j)]
                size = int(rng.integers(1, 3))
                coop[(i, j)] = tuple(int(h) for h in rng.choice(others, size, replace=False))
    return LinkSet(direct=frozenset(direct), coop=coop)


BIG = 2.0**53
# Cost-term vectors per regime: exact ties, ties closer than 1e-15,
# terms near 2**53 and 1e20 where adding 1.0 is absorbed or lost, and
# infinite terms.
COST_REGIMES = {
    "exact_ties": lambda rng, n: rng.integers(1, 4, n).astype(float),
    "near_ties": lambda rng, n: rng.integers(1, 4, n) + rng.integers(0, 3, n) * 2.0**-51,
    "near_2_53": lambda rng, n: rng.choice([1.0, BIG - 1.0, BIG, BIG + 2.0], n),
    "near_1e20": lambda rng, n: rng.choice([1.0, 2.0, 1e20, np.nextafter(1e20, np.inf)], n),
    "infinite": lambda rng, n: np.where(rng.random(n) < 0.25, np.inf, rng.integers(1, 4, n)),
    "spread": lambda rng, n: np.exp(rng.uniform(0.0, 12.0, n)),
}


class TestBoundedSearch:
    """_least_cost_path stops at what can still beat the best sink
    reached; unbounded_least_cost_path, the search without that bound,
    is its oracle path for path."""

    @pytest.mark.parametrize("regime", sorted(COST_REGIMES))
    def test_random_link_sets(self, regime):
        rng = np.random.default_rng(sorted(COST_REGIMES).index(regime))
        draw = COST_REGIMES[regime]
        for _ in range(40):
            n = int(rng.integers(4, 13))
            ids = sorted(int(i) for i in rng.choice(5 * n, n, replace=False))
            sinks = set(int(i) for i in rng.choice(ids, int(rng.integers(1, 4)), replace=False))
            links = random_link_set(rng, ids)
            tx, helper = draw(rng, n).tolist(), draw(rng, n).tolist()
            assert_same_paths(links, ids, sinks, tx, helper)

    @pytest.mark.parametrize("regime", sorted(COST_REGIMES))
    def test_built_links(self, phy, regime):
        rng = np.random.default_rng(10 + sorted(COST_REGIMES).index(regime))
        draw = COST_REGIMES[regime]
        for _ in range(10):
            n = int(rng.integers(8, 25))
            nodes = generate_topology(n, 100.0, int(rng.integers(2**31)))
            ids = [v.id for v in nodes]
            sinks = {0} | set(int(i) for i in rng.choice(ids[1:], int(rng.integers(0, 3)), replace=False))
            tx, helper = draw(rng, n).tolist(), draw(rng, n).tolist()
            assert_same_paths(build_links(nodes, phy), ids, sinks, tx, helper)

    def test_direct_and_coop_to_one_target(self):
        # node 3 reaches sink 0 and relay 1 both directly and with
        # helper 4; node 2 reaches 0 directly and with helpers (1, 4)
        direct = frozenset({(3, 0), (3, 1), (3, 2), (1, 0), (2, 0), (4, 1)})
        coop = {(3, 0): (4,), (3, 1): (4,), (2, 0): (1, 4), (4, 0): (2,)}
        links = LinkSet(direct=direct, coop=coop)
        for tx in ([1.0] * 5, [1.0, 1.0, 2.0, 5.0, 1.0], [1.0, 1.5, 1.0, 2.0, math.inf]):
            for helper in ([1.0] * 5, [1.0, 0.5 + 2**-52, 3.0, 1.0, 1e-3], [math.inf] * 5):
                assert_same_paths(links, list(range(5)), {0}, tx, helper)

    def test_near_tie_goes_to_lower_predecessor(self):
        # sink 0 is reached first through node 2 at 1 + 3 = 4, then
        # through node 1 at 2 + tx[1] = 4 + 2**-50, within 1e-15 and
        # from the lower index: the tie rule moves the sink to node 1,
        # which a cut at the first sink value would hide
        links = LinkSet(direct=frozenset({(3, 2), (2, 0), (1, 0)}), coop={(3, 1): (4,)})
        tx = [1.0, 2.0 + 2.0**-50, 3.0, 1.0, 1.0]
        helper = [1.0] * 5
        assert 0.0 < (2.0 + tx[1]) - (1.0 + tx[2]) < 1e-15
        assert bounded_path(links, 5, {0}, 3, tx, helper) == [(3, (4,)), (1, ())]
        assert_same_paths(links, list(range(5)), {0}, tx, helper)

    def test_relay_one_unit_below_the_cut(self):
        # sink 0 is first reached through node 1 at 1 + 3 = 4; relay 3,
        # reached later at 1.5 + 1 = 2.5, leads to it at 3.5: a relay
        # is dropped only once even its cheapest next link lands past
        # the cut
        links = LinkSet(direct=frozenset({(4, 1), (1, 0), (2, 3), (3, 0)}), coop={(4, 2): (5,)})
        tx = [1.0, 3.0, 1.0, 1.0, 1.0, 1.0]
        helper = [1.0, 1.0, 1.0, 1.0, 1.0, 0.5]
        assert bounded_path(links, 6, {0}, 4, tx, helper) == [(4, (5,)), (2, ()), (3, ())]
        assert_same_paths(links, list(range(6)), {0}, tx, helper)

    def test_absorbed_unit_step(self):
        # at 2**53 and at 1e20 a unit link adds nothing: sink 2, reached
        # from origin 3 directly, is reached at the same cost through
        # relay 1, and the tie moves it to the lower predecessor
        links = LinkSet(direct=frozenset({(3, 1), (3, 2), (1, 2), (3, 0), (0, 2)}), coop={})
        for big in (BIG, 1e20):
            tx = [1e5, 1.0, 1.0, big]
            assert big + tx[1] == big
            assert bounded_path(links, 4, {2}, 3, tx, [1.0] * 4) == [(3, ()), (1, ())]
            for sinks in ({2}, {0, 2}, {1, 2}):
                assert_same_paths(links, list(range(4)), sinks, tx, [1.0] * 4)


class TestDynamicCost:
    def test_full_energy_direct(self):
        # a direct link costs its transmitter's term alone: 1.0 at full energy
        for energy in (1.0, 1.5, 8.0):
            for beta in (0.5, 2.0, 3.7):
                assert dynamic_cost(energy, energy, beta) == 1.0

    def test_hand_arithmetic(self, phy, snapshot_nodes):
        tx = dynamic_cost(8.0, 4.0, 2.0)  # (8/4)^2
        helper = dynamic_cost(8.0, 2.0, 0.5)  # (8/2)^0.5
        assert (tx, helper) == (4.0, 2.0)
        # the same energies price the snapshot's cooperative link
        # 6 -> 1 (helper 5) at the sum of the two terms
        links = build_links(snapshot_nodes, phy)
        initial = {n.id: 8.0 for n in snapshot_nodes}
        remaining = {**initial, 6: 4.0, 5: 2.0}
        params = CostParams(beta1=2.0, beta2=0.5)
        assert reference_link_cost(6, 1, links, params, initial, remaining) == 6.0 == tx + helper

    def test_barrier_blowup(self):
        assert dynamic_cost(1.0, 0.5, 2.0) == math.inf
        assert dynamic_cost(10.0, 0.999, 0.5) == math.inf
        assert dynamic_cost(3.0, 1.0, 2.0) == 9.0

    def test_monotone_in_depletion(self):
        costs = [dynamic_cost(10.0, rem, 2.0) for rem in (10.0, 8.0, 5.0, 2.0, 1.0)]
        assert all(b > a for a, b in zip(costs, costs[1:]))


class TestSimulateDynamic:
    def test_repeated_id_rejected(self, phy):
        # Unchecked, the second node 1 replaced the first and 1.0 came back.
        nodes, links = repeated_id_net(phy)
        with pytest.raises(ValueError, match="^node id 1 is used by more than one node$"):
            simulate_dynamic(nodes, links)

    def test_single_hop(self, phy):
        nodes = two_node_net(phy, 0.5)
        links = build_links(nodes, phy)
        assert simulate_dynamic(nodes, links) == pytest.approx(1.0)

    def test_relay_chain(self, phy):
        a0 = phy.hop_range()
        nodes = [
            SensorNode(id=1, x=0.0, y=0.0, rate=-1.0),
            SensorNode(id=2, x=0.9 * a0, y=0.0, rate=0.0),
            SensorNode(id=3, x=1.8 * a0, y=0.0, rate=1.0),
        ]
        links = build_links(nodes, phy)
        assert simulate_dynamic(nodes, links) == pytest.approx(1.0)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_no_packets_raises(self, phy, rate):
        # round(rate) = 0 packets a round: no round would ever end
        # the run.
        nodes = two_node_net(phy, 0.5)
        nodes[1] = replace(nodes[1], rate=rate)
        with pytest.raises(ValueError, match="no sensor emits a packet"):
            simulate_dynamic(nodes, build_links(nodes, phy))

    def test_no_sink_raises(self, phy):
        # not a lifetime of 0.0 rounds
        nodes = generate_topology(10, 80.0, 4)
        nodes[0] = replace(nodes[0], rate=1.0)
        with pytest.raises(ValueError, match="network has no sink"):
            simulate_dynamic(nodes, build_links(nodes, phy))

    def test_at_least_static_baseline(self, phy, snapshot_nodes):
        # larger batteries so the round granularity does not dominate
        nodes = [
            SensorNode(id=n.id, x=n.x, y=n.y, energy=30.0, rate=n.rate)
            for n in snapshot_nodes
        ]
        links = build_links(nodes, phy)
        heuristic = simulate_dynamic(nodes, links)
        static = shortest_path_lifetime(nodes, links)
        assert heuristic >= static

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_edge_reference(self, phy, seed):
        # random multi-hop topologies with fractional energies, about
        # one node in twenty below one unit (it can neither transmit
        # nor help) and random rates 0-2, 0 at those nodes; once at the
        # default exponents, once at random ones
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(8, 19))
            nodes = [
                replace(v, energy=float(rng.uniform(0.5, 1.0) if rng.random() < 0.05
                                        else rng.uniform(1.0, 4.0 * n)))
                for v in generate_topology(n, 90.0, int(rng.integers(2**31)))
            ]
            nodes = with_random_rates(nodes, rng)
            assert_matches_reference(nodes, build_links(nodes, phy), rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_shuffled_ids_two_sinks(self, phy, seed):
        # ids 1000 - 37k, listed in shuffled order, with a second sink:
        # the dense index map must keep the id order that breaks ties
        # between predecessors and between equally cheap sinks
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            n = int(rng.integers(8, 17))
            nodes = [
                replace(v, id=1000 - 37 * v.id, energy=float(rng.uniform(1.0, 3.0 * n)))
                for v in generate_topology(n, 90.0, int(rng.integers(2**31)))
            ]
            second = int(rng.integers(1, n))
            nodes[second] = replace(nodes[second], rate=-1.0)
            nodes = with_random_rates([nodes[i] for i in rng.permutation(n)], rng)
            assert_matches_reference(nodes, build_links(nodes, phy), rng)

    def test_hand_built_links_mixed_helper_tuples(self):
        # build_links only makes single-helper links; here transmitter
        # 5 has coop links under (2, 3), (6,) and (7,), and helper 7
        # starts below one unit, so its links cost infinity
        direct = {(2, 1), (3, 1), (2, 3), (3, 2), (4, 2), (4, 3), (5, 4),
                  (6, 4), (6, 5), (7, 4), (8, 2), (8, 6)}
        coop = {(5, 1): (2, 3), (5, 2): (6,), (5, 3): (6,), (5, 8): (7,), (6, 1): (4, 5)}
        links = LinkSet(direct=frozenset(direct), coop=coop)
        rng = np.random.default_rng(7)
        for _ in range(20):
            nodes = [SensorNode(id=1, x=0.0, y=0.0, rate=-7.0)] + [
                SensorNode(id=i, x=float(i), y=0.0,
                           energy=0.5 if i == 7 else float(rng.uniform(1.0, 12.0)))
                for i in range(2, 9)
            ]
            assert_matches_reference(with_random_rates(nodes, rng), links, rng)


class TestShortestPath:
    def test_repeated_id_rejected(self, phy):
        # Unchecked, both nodes 1 spent on one route and 0.5 came back.
        nodes, links = repeated_id_net(phy)
        with pytest.raises(ValueError, match="^node id 1 is used by more than one node$"):
            shortest_path_lifetime(nodes, links)

    def test_one_hop(self, phy):
        nodes = two_node_net(phy, 0.5)
        links = build_links(nodes, phy)
        assert shortest_path_lifetime(nodes, links) == pytest.approx(1.0)

    def test_snapshot(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        assert shortest_path_lifetime(snapshot_nodes, links) == pytest.approx(0.2)

    def test_star(self, phy):
        a0 = phy.hop_range()
        nodes = [SensorNode(id=1, x=0.0, y=0.0, rate=-4.0)]
        for k in range(4):
            ang = 2.0 * math.pi * k / 4.0
            nodes.append(
                SensorNode(
                    id=k + 2, x=0.7 * a0 * math.cos(ang), y=0.7 * a0 * math.sin(ang),
                    rate=1.0,
                )
            )
        links = build_links(nodes, phy)
        assert shortest_path_lifetime(nodes, links) == pytest.approx(1.0)

    def test_no_route(self, phy):
        nodes = two_node_net(phy, 3.0)
        links = build_links(nodes, phy)
        with pytest.raises(NoRouteError):
            shortest_path_lifetime(nodes, links)
