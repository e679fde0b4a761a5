import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import routing
from wsnlife.harness import default_phy, generate_topology
from wsnlife.routing import (
    CostParams,
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
            SensorNode(id=1, x=0.0, y=0.0, rate=-1.0),
            SensorNode(id=2, x=0.0, y=0.0, rate=1.0),
        ]
        with pytest.raises(ValueError):
            build_links(nodes, phy)

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


def scanned_adjacency(pairs):
    """Reference index: one full scan of the link pairs per source."""
    sources = {i for (i, _j) in pairs}
    return {i: tuple(sorted(j for (a, j) in pairs if a == i)) for i in sources}


class TestLinkIndex:
    @staticmethod
    def assert_matches_scan(links):
        assert links.direct_succ == scanned_adjacency(links.direct)
        assert links.coop_succ == scanned_adjacency(links.coop)
        assert links.direct_pred == scanned_adjacency({(j, i) for (i, j) in links.direct})
        for i, targets in links.direct_succ.items():
            assert links.direct_out(i) == targets

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
        # replace() must rebuild the indexes from the new link fields
        thinned = replace(
            links,
            direct=frozenset(sorted(links.direct)[::keep]),
            coop=dict(list(links.coop.items())[::keep]),
        )
        self.assert_matches_scan(thinned)

    def test_node_without_links(self, phy):
        links = build_links(two_node_net(phy, 2.0), phy)
        assert links.direct_out(1) == ()


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
    @pytest.mark.parametrize("with_coop", [False, True])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_assembly_matches_row_by_row_reference(
        self, phy, snapshot_nodes, monkeypatch, seed, with_coop
    ):
        nodes = snapshot_nodes if seed is None else generate_topology(12, 80.0, seed)
        links = build_links(nodes, phy)
        captured = []
        solve = routing.solve_lp
        monkeypatch.setattr(routing, "solve_lp", lambda lp: captured.append(lp) or solve(lp))
        solve_lifetime_lp(nodes, links, with_coop=with_coop)
        a, b, c = reference_lp_matrix(nodes, links, with_coop)
        (lp,) = captured
        assert lp.a.shape == a.shape
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


class TestDynamicCost:
    def setup_method(self):
        self.phy = default_phy()

    def test_full_energy_direct(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        e = {n.id: n.energy for n in snapshot_nodes}
        assert dynamic_cost(3, 2, links, CostParams(), e, dict(e)) == 1.0

    def test_hand_arithmetic(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        initial = {n.id: 8.0 for n in snapshot_nodes}
        remaining = dict(initial)
        remaining[6] = 4.0  # E/E_rem = 2
        remaining[5] = 2.0  # E/E_rem = 4
        cost = dynamic_cost(
            6, 1, links, CostParams(beta1=2.0, beta2=0.5), initial, remaining
        )
        assert cost == pytest.approx(4.0 + 2.0, abs=1e-12)

    def test_barrier_blowup(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        initial = {n.id: 1.0 for n in snapshot_nodes}
        remaining = dict(initial)
        remaining[3] = 0.5
        assert dynamic_cost(3, 2, links, CostParams(), initial, remaining) == math.inf

    def test_monotone_in_depletion(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        initial = {n.id: 10.0 for n in snapshot_nodes}
        costs = []
        for rem in (10.0, 8.0, 5.0, 2.0):
            remaining = dict(initial)
            remaining[5] = rem
            costs.append(dynamic_cost(6, 1, links, CostParams(), initial, remaining))
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_missing_link(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        e = {n.id: n.energy for n in snapshot_nodes}
        with pytest.raises(NoRouteError):
            dynamic_cost(3, 4, links, CostParams(), e, dict(e))


class TestSimulateDynamic:
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

    def test_seed_determinism(self, phy, snapshot_nodes):
        links = build_links(snapshot_nodes, phy)
        traffic = lambda rng, node: int(rng.integers(1, 3))
        a = simulate_dynamic(snapshot_nodes, links, traffic=traffic, seed=5)
        b = simulate_dynamic(snapshot_nodes, links, traffic=traffic, seed=5)
        assert a == b


class TestShortestPath:
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
