"""Link building, lifetime-LP assembly and the crash basis as they stood
while LinkSet held one Python tuple per link: a frozenset of direct
links, a dict of coop links and dict-of-tuple adjacency indexes.  The
code below is kept verbatim, but for its inputs and outputs and for the
load-balanced crash tree, written anew from its rule, as the exactness
oracle of test_routing.py: build_links must give the same links, and
solve_lifetime_lp the same LP data and starting basis, bit for bit."""

import math

import numpy as np

from wsnlife.lpsolver import StandardLP


def _adjacency(pairs) -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {}
    for i, j in pairs:
        out.setdefault(i, []).append(j)
    return {i: tuple(sorted(js)) for i, js in out.items()}


def reference_build_links(nodes, phy):
    """build_links' (direct, coop) as a frozenset and a dict."""
    order = sorted(nodes, key=lambda n: n.id)
    ids = [n.id for n in order]
    x, y = np.array([(n.x, n.y) for n in order], dtype=float).T
    dx, dy = x[:, None] - x, y[:, None] - y
    dist = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(dist, np.inf)
    a0 = phy.hop_range()
    threshold = phy.snr_min * phy.noise / (phy.power * phy.c0)  # on sum of d^-alpha
    direct = dist <= a0

    is_sink = np.array([n.is_sink for n in order])
    to_sensor = np.where(is_sink, np.inf, dist)
    src = np.flatnonzero(~is_sink & (to_sensor.min(axis=1) <= a0))
    helper = to_sensor.argmin(axis=1)[src]
    with np.errstate(over="ignore"):
        power = dist ** -phy.alpha  # 0 on the diagonal
    reach = (power[src] + power[helper] >= threshold) & ~direct[src]
    reach[np.arange(len(src)), src] = False  # no link to the source itself
    i, j = np.nonzero(direct)
    k, t = np.nonzero(reach)
    return (
        frozenset((ids[a], ids[b]) for a, b in zip(i.tolist(), j.tolist())),
        {
            (ids[s], ids[m]): (ids[h],)
            for s, h, m in zip(src[k].tolist(), helper[k].tolist(), t.tolist())
        },
    )


def reference_min_hop_tree(nodes, links) -> dict[int, int]:
    """Next hop of every non-sink node that reaches a sink over direct
    links, the lowest-id one one hop closer, by a BFS over the reversed
    direct links' adjacency index: the crash tree before the
    load-balanced one."""
    direct_pred = _adjacency((j, i) for i, j in links.direct)
    tree: dict[int, int] = {}
    sinks = {n.id for n in nodes if n.is_sink}
    seen, frontier = set(sinks), sorted(sinks)
    while frontier:
        found = []
        for v in frontier:
            for i in direct_pred.get(v, ()):
                if i not in seen:
                    seen.add(i)
                    tree[i] = v
                    found.append(i)
        frontier = sorted(found)
    return tree


def reference_balanced_tree(nodes, links) -> dict[int, int]:
    """Next hop of every sensor that reaches a sink over direct links,
    by the load-balancing rule: hop counts to the sink set, then, from
    the largest hop count down and in ascending id order within one,
    each sensor sends its rate plus what is already routed into it to
    the direct successor one hop closer with the least (traffic
    through it + this traffic) / energy, the lowest id on ties.  Any
    node but a sensor costs nothing to reach."""
    sinks = {n.id for n in nodes if n.is_sink}
    energy = {n.id: n.energy for n in nodes if not n.is_sink}
    load = {n.id: n.rate for n in nodes if not n.is_sink}
    direct = list(links.direct)
    direct_succ = _adjacency(direct)
    hops = dict.fromkeys(sinks, 0)
    while new := {i: hops[j] + 1 for (i, j) in direct if j in hops and i not in hops}:
        hops.update(new)
    tree: dict[int, int] = {}
    for v in sorted(hops, key=lambda v: (-hops[v], v)):
        if v in load:
            closer = [j for j in direct_succ[v] if hops.get(j) == hops[v] - 1]
            cost = [(load.get(j, 0.0) + load[v]) / energy.get(j, math.inf) for j in closer]
            tree[v] = j = closer[cost.index(min(cost))]
            if j in load:
                load[j] += load[v]
    return tree


def reference_no_route(nodes, links, with_coop) -> bool:
    """Whether a sensor with a positive rate has no route over the
    lifetime LP's flows (links out of sensors, coop links too if
    with_coop) to a target that is not a sensor."""
    sensors = {n.id for n in nodes if not n.is_sink}
    arcs = [(i, j) for (i, j) in links.direct if i in sensors]
    if with_coop:
        arcs += [(i, j) for (i, j) in links.coop if i in sensors]
    routed = {j for _i, j in arcs if j not in sensors}
    while new := {i for i, j in arcs if j in routed and i not in routed}:
        routed |= new
    return any(n.rate > 0 and n.id not in routed for n in nodes if not n.is_sink)


def reference_lp_data(nodes, links, with_coop, crash_tree=reference_balanced_tree):
    """The lifetime LP solve_lifetime_lp hands to solve_lp, and its
    starting basis, made from crash_tree(nodes, links): each sensor's
    next hop.  The sensor rows are in ascending id order."""
    sensors = sorted((n for n in nodes if not n.is_sink), key=lambda n: n.id)
    row_of = {n.id: r for r, n in enumerate(sensors)}
    # (src, dst, helpers) per flow column: direct links, then coop links.
    flows = [(i, j, ()) for (i, j) in sorted(links.direct) if i in row_of]
    n_direct = len(flows)
    if with_coop:
        flows += [(i, m, h) for (i, m), h in sorted(links.coop.items()) if i in row_of]
    ns, t_col = len(sensors), len(flows)
    ends = [(row_of[i], row_of.get(j, -1)) for i, j, _h in flows]  # -1: into a sink
    src, dst = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    duty = [(k, ns + row_of[h]) for k, (_i, _j, hs) in enumerate(flows[n_direct:], n_direct) for h in hs]
    hk, hr = np.array(duty, dtype=np.intp).reshape(-1, 2).T
    k, r, into = np.arange(t_col), np.arange(ns), dst >= 0
    rows = np.concatenate([src, ns + src, dst[into], hr, r, ns + r])
    cols = np.concatenate([k, k, k[into], hk, np.full(ns, t_col), t_col + 1 + r])
    vals = np.concatenate([
        np.ones(2 * t_col), -np.ones(into.sum()), np.ones(len(hk)),
        [-n.rate for n in sensors], np.ones(ns),
    ])
    key, at = np.unique(cols * (2 * ns) + rows, return_inverse=True)
    vals = np.bincount(at.ravel(), vals, len(key))
    b = np.array([0.0] * ns + [n.energy for n in sensors])
    c = np.zeros(t_col + 1 + ns)
    c[t_col] = 1.0
    lp = StandardLP.from_triplets(key % (2 * ns), key // (2 * ns), vals, (2 * ns, len(c)), b, c)
    tree = crash_tree(nodes, links)
    column = {(i, j): k for k, (i, j, _h) in enumerate(flows[:n_direct])}
    basis = [column[(n.id, tree[n.id])] if n.id in tree else len(c) + r for r, n in enumerate(sensors)]
    return lp, basis + list(range(t_col + 1, t_col + 1 + ns))
