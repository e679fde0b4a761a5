"""Network model with direct and cooperative links, the max-min
lifetime LP, and the dynamic-cost routing heuristic.

A cooperative link lets a node and its nearest neighbor transmit the
same packet together so their combined received energy clears the SNR
threshold at an otherwise unreachable target; the helper pays one
energy unit per packet just like the transmitter.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .gainmodels import PhyParams
from .lpsolver import SimplexError, StandardLP, solve_lp

__all__ = [
    "SensorNode",
    "LinkSet",
    "FlowSolution",
    "CostParams",
    "NoRouteError",
    "build_links",
    "solve_lifetime_lp",
    "dynamic_cost",
    "simulate_dynamic",
    "shortest_path_lifetime",
]


class NoRouteError(RuntimeError):
    pass


@dataclass(frozen=True)
class SensorNode:
    id: int
    x: float
    y: float
    energy: float = 1.0
    rate: float = 1.0  # negative at sinks

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.energy, self.rate)):
            raise ValueError("non-finite position, energy or rate")
        if self.energy <= 0:
            raise ValueError("initial energy must be positive")

    @property
    def is_sink(self) -> bool:
        return self.rate < 0


@dataclass(frozen=True, eq=False)
class LinkSet:
    """Directed direct links plus cooperative links (src, dst) ->
    helper tuple, held as integer arrays sorted by (src, dst).

    direct and coop are the constructor's arguments.  Each read of
    them builds a new frozenset and dict from the arrays, equal to the
    ones passed in; no Python object per link is kept.  direct_pairs and
    coop_pairs hold sources in row 0 and targets in row 1; coop link
    k's helpers are helpers[helper_start[k]:helper_start[k + 1]].
    Two link sets are equal when their links are.
    """

    # The direct and coop properties below become these InitVars'
    # defaults, which is how dataclasses.replace reads them back.
    direct: InitVar[frozenset[tuple[int, int]]]
    coop: InitVar[dict[tuple[int, int], tuple[int, ...]]]
    direct_pairs: np.ndarray = field(init=False)
    coop_pairs: np.ndarray = field(init=False)
    helper_start: np.ndarray = field(init=False)
    helpers: np.ndarray = field(init=False)

    def __post_init__(self, direct, coop):
        keys = sorted(coop)
        tuples = [tuple(coop[key]) for key in keys]
        self._store(
            _pair_array(sorted(set(direct))),
            _pair_array(keys),
            np.cumsum([0] + [len(h) for h in tuples]),
            [h for hs in tuples for h in hs],
        )

    @classmethod
    def _of_arrays(cls, *arrays) -> LinkSet:
        """A link set of arrays already in LinkSet's order, given in
        field order."""
        return cls.__new__(cls)._store(*arrays)

    def _store(self, *arrays) -> LinkSet:
        for f, a in zip(fields(self), arrays, strict=True):
            object.__setattr__(self, f.name, np.asarray(a, dtype=np.int64))
        return self

    @property
    def direct(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(*self.direct_pairs.tolist()))

    @property
    def coop(self) -> dict[tuple[int, int], tuple[int, ...]]:
        helpers, start = self.helpers.tolist(), self.helper_start.tolist()
        return {pair: tuple(helpers[a:b]) for pair, a, b in zip(zip(*self.coop_pairs.tolist()), start, start[1:])}

    def __eq__(self, other):
        if not isinstance(other, LinkSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def direct_out(self, i: int) -> tuple[int, ...]:
        """Node i's direct targets in ascending order."""
        return tuple(self.direct_pairs[1, _leaving(self.direct_pairs, i)].tolist())


def _pair_array(pairs: list[tuple[int, int]]) -> np.ndarray:
    """(src, dst) pairs as a 2 x len(pairs) array."""
    return np.array(pairs, dtype=np.int64).reshape(len(pairs), 2).T.copy()


def _leaving(pairs: np.ndarray, i: int) -> slice:
    """The columns of pairs, sorted by source, whose source is i."""
    return slice(pairs[0].searchsorted(i), pairs[0].searchsorted(i, "right"))


@dataclass(frozen=True)
class FlowSolution:
    qhat: dict[tuple[int, int, bool], float]  # (src, dst, is_coop) -> flow
    lifetime: float
    energy_used: dict[int, float]
    status: str = "optimal"


@dataclass(frozen=True)
class CostParams:
    beta1: float = 2.0
    beta2: float = 2.0

    def __post_init__(self):
        if not (self.beta1 > 0 and self.beta2 > 0):  # NaN fails too
            raise ValueError("cost exponents must be positive")
        # Energies stay below 2**53 and remaining at 1 or more, so a
        # term stays below 2**(53*beta): a float up to beta = 19.
        if not (self.beta1 <= 19 and self.beta2 <= 19):
            raise ValueError(f"cost exponents must be at most 19, got {max(self.beta1, self.beta2):g}")


def _check_ids(nodes: list[SensorNode]) -> None:
    """Raise ValueError if two nodes share an id, or if an id does not
    fit in 64 bits, as LinkSet holds ids in int64 arrays."""
    ids = sorted(n.id for n in nodes)
    if ids and not -(2**63) <= ids[0] <= ids[-1] < 2**63:
        raise ValueError("node ids must fit in 64 bits")
    if repeated := [i for i, j in zip(ids, ids[1:]) if i == j]:
        raise ValueError(f"node id {repeated[0]} is used by more than one node")


def build_links(nodes: list[SensorNode], phy: PhyParams) -> LinkSet:
    """Direct links wherever the single-hop SNR threshold is met;
    cooperative links from each sensor through its nearest other sensor
    (ties to the lower id) to targets whose combined received energy
    meets the threshold.  All of it is read off one distance matrix
    over the nodes in ascending id order."""
    if len(nodes) < 2:
        raise ValueError("need at least two nodes")
    _check_ids(nodes)
    order = sorted(nodes, key=lambda n: n.id)
    ids = [n.id for n in order]
    x, y = np.array([(n.x, n.y) for n in order], dtype=float).T
    with np.errstate(over="ignore"):  # checked below
        dx, dy = x[:, None] - x, y[:, None] - y
        # Correctly rounded where the squares sum exactly (integer
        # coordinates, say), so equidistant nodes tie; np.hypot may not be.
        dist = np.sqrt(dx * dx + dy * dy)
    far = np.argwhere(dist == np.inf)
    if len(far):
        i, j = far[0].tolist()  # first in row-major order, so i < j
        raise ValueError(f"nodes {ids[i]} and {ids[j]} are too far apart for a float distance")
    np.fill_diagonal(dist, np.inf)
    shared = np.argwhere(dist == 0.0)
    if len(shared):
        i, j = shared[0].tolist()  # first in row-major order, so i < j
        raise ValueError(f"nodes {ids[i]} and {ids[j]} share a position")
    a0 = phy.hop_range()
    threshold = phy.snr_min * phy.noise / (phy.power * phy.c0)  # on sum of d^-alpha
    direct = dist <= a0

    is_sink = np.array([n.is_sink for n in order])
    to_sensor = np.where(is_sink, np.inf, dist)
    # argmin takes the first minimum, the lowest id; a helper out of
    # range cannot decode the source.
    src = np.flatnonzero(~is_sink & (to_sensor.min(axis=1) <= a0))
    helper = to_sensor.argmin(axis=1)[src]
    with np.errstate(over="ignore"):  # inf only between near-coincident nodes, linked directly
        power = dist ** -phy.alpha  # 0 on the diagonal
    reach = (power[src] + power[helper] >= threshold) & ~direct[src]
    reach[np.arange(len(src)), src] = False  # no link to the source itself
    # np.nonzero lists rows in ascending order, each row's columns too,
    # so the links come out in (src, dst) order.
    ids = np.array(ids, dtype=np.int64)
    k, t = np.nonzero(reach)
    return LinkSet._of_arrays(
        ids[np.stack(np.nonzero(direct))], ids[np.stack([src[k], t])], np.arange(len(k) + 1), ids[helper[k]]
    )


def solve_lifetime_lp(
    nodes: list[SensorNode], links: LinkSet, with_coop: bool = True
) -> FlowSolution:
    """Max-min lifetime as an LP over lifetime-scaled flows.

    Variables: one flow per direct link, one per cooperative link (if
    enabled), slacks for the energy caps, and the lifetime itself.
    A cooperative unit of flow consumes one energy unit at the
    transmitter and one at each helper.  Raises ValueError when the
    network has no sink, or when no sensor has a positive rate, where
    the lifetime is unbounded, and SimplexError when the solver does
    not report an optimum, or one that lasts less than the min-hop tree
    (see below).  A sensor with traffic and no route gives lifetime 0
    with no flow and no LP solved.  Two nodes with one id raise
    ValueError, as in build_links.  Sensor rows go in id order, so the
    plan does not depend on the node order.
    """
    _check_ids(nodes)
    if not any(n.is_sink for n in nodes):
        raise ValueError("network has no sink")
    sensors = sorted((n for n in nodes if not n.is_sink), key=lambda n: n.id)
    if not any(n.rate > 0 for n in sensors):
        raise ValueError("no sensor has a positive rate, so the lifetime is unbounded")
    ns = len(sensors)
    ids = np.array([n.id for n in sensors], dtype=np.int64)

    def row_of(v):  # sensor row of each id in v, -1 for any other id
        at = np.minimum(ids.searchsorted(v), ns - 1)
        return np.where(ids[at] == v, at, -1)

    # Flow columns: the direct links out of sensors, then the coop
    # links out of sensors, each in (src, dst) order.
    direct_col = row_of(links.direct_pairs[0]) >= 0
    coop_col = (row_of(links.coop_pairs[0]) >= 0) & bool(with_coop)
    pairs = np.concatenate([links.direct_pairs[:, direct_col], links.coop_pairs[:, coop_col]], axis=1)
    n_direct, t_col = int(direct_col.sum()), pairs.shape[1]
    # rows: flow conservation (out - in - rate*T = 0) | energy caps
    # (transmissions + helper duty + slack = energy);
    # columns: flows | T | energy slacks.  Entries that meet at one
    # (row, col) add up, as a hand-made link set can make them do.
    src, dst = row_of(pairs)  # dst -1: into a sink
    counts = np.diff(links.helper_start)
    hk = n_direct + np.repeat(np.arange(t_col - n_direct), counts[coop_col])
    hr = row_of(links.helpers[np.repeat(coop_col, counts)])
    if (hr < 0).any():
        raise ValueError("a cooperative link has a helper that is not a sensor")
    k, r, into = np.arange(t_col), np.arange(ns), dst >= 0
    rows = np.concatenate([src, ns + src, dst[into], ns + hr, r, ns + r])
    cols = np.concatenate([k, k, k[into], hk, np.full(ns, t_col), t_col + 1 + r])
    # Solve in units where the largest energy and the largest rate lie
    # in [0.5, 1).  Scaling by powers of two is exact, so scaling every
    # energy by 2^k scales T and the flows by exactly 2^k, and the
    # solver's tolerances act at unit scale.
    e_exp = math.frexp(max(n.energy for n in sensors))[1]
    r_exp = math.frexp(max(n.rate for n in sensors))[1]
    rate = np.array([math.ldexp(n.rate, -r_exp) for n in sensors])
    energy = np.array([math.ldexp(n.energy, -e_exp) for n in sensors])
    vals = np.concatenate([np.ones(2 * t_col), -np.ones(into.sum()), np.ones(len(hk)), -rate, np.ones(ns)])
    key, at = np.unique(cols * (2 * ns) + rows, return_inverse=True)
    vals = np.bincount(at.ravel(), vals, len(key))
    b = np.concatenate([np.zeros(ns), energy])
    c = np.zeros(t_col + 1 + ns)
    c[t_col] = 1.0
    lp = StandardLP.from_triplets(key % (2 * ns), key // (2 * ns), vals, (2 * ns, len(c)), b, c)
    # Crash basis: each sensor's edge of the load-balanced min-hop tree,
    # or its conservation row's artificial (id len(c) + row) where it
    # has none, and every energy slack.  B is triangular in hop order,
    # and x_B = (0, E) >= 0.  T enters first and pushes each rate along
    # the tree, so a tree that spreads the load starts nearer the
    # optimum's balanced flows than the lowest-id one.
    layers = _min_hop_layers({n.id for n in nodes if n.is_sink}, links.direct_pairs)
    energy_of = dict(zip(ids.tolist(), energy.tolist()))
    tree, load = _balanced_tree(layers, links, dict(zip(ids.tolist(), rate.tolist())), energy_of)
    # The rows of sensors with no column out of their set add up to
    # -(their rates) T = 0, so a sensor with traffic and no route out of
    # the sensor set pins T to 0.  Only one off the tree can have none.
    stranded = {n.id for n in sensors if n.rate > 0 and n.id not in tree}
    if stranded:  # walk the columns back from their targets outside the sensor set
        routed = _min_hop_layers(set(pairs[1, dst < 0].tolist()), pairs)
        if not stranded <= {i for layer in routed for i in layer}:
            return FlowSolution({}, 0.0, dict.fromkeys((n.id for n in nodes), 0.0))
    column = (np.cumsum(direct_col) - 1).tolist()  # of each direct link out of a sensor
    basis = [column[tree[i]] if i in tree else len(c) + r for r, i in enumerate(ids.tolist())]
    sol = solve_lp(lp, basis + list(range(t_col + 1, t_col + 1 + ns)))
    # x = 0, T = 0 with every slack at its energy is feasible, and a
    # positive rate bounds T, so any other status is a solver fault
    if sol.status != "optimal":
        raise SimplexError(f"lifetime LP reported {sol.status} (internal bug)")
    # Each sensor's energy use: each column's transmitter, then its
    # helpers, added up in column order.
    x = sol.x[:t_col]
    by_col = np.argsort(np.concatenate([k, hk]), kind="stable")
    used = np.bincount(np.concatenate([src, hr])[by_col], np.concatenate([x, x[hk]])[by_col], ns)
    # solve_lp checked the plan row by row.  A wrong optimum whose plan
    # solves every row is caught here: the tree's flow, load_i T on
    # sensor i's edge, is feasible up to T = min E_i / load_i.  A sensor
    # with a load but no tree edge (it reaches the sinks only over coop
    # links) leaves no such bound.
    tree_life = min(energy_of[i] / q if i in tree else 0.0 for i, q in load.items() if q > 0)
    if sol.x[t_col] < tree_life * (1.0 - 1e-6):
        raise SimplexError(
            "lifetime LP optimum lies below the min-hop tree's (energies or rates may span too wide a range)"
        )

    flows = np.ldexp(x, e_exp)  # back in energy units
    on = np.flatnonzero(flows > 0.0).tolist()
    qhat = {(i, j, k >= n_direct): q for k, i, j, q in zip(on, *pairs[:, on].tolist(), flows[on].tolist())}
    energy_used = dict.fromkeys((n.id for n in nodes), 0.0)
    energy_used.update(zip(ids.tolist(), np.ldexp(used, e_exp).tolist()))
    return FlowSolution(qhat, math.ldexp(float(sol.x[t_col]), e_exp - r_exp), energy_used)


def dynamic_cost(initial: float, remaining: float, beta: float) -> float:
    """One node's inverse-barrier cost term (initial/remaining)**beta;
    infinite once less than one unit of energy remains.

    A link costs its transmitter's term at beta1 plus each helper's
    term at beta2, so it grows without bound as any of them runs out.
    """
    if remaining < 1.0:
        return math.inf
    return (initial / remaining) ** beta


def _least_cost_path(
    src: int,
    is_sink: list[bool],
    groups: list[list[tuple[tuple[int, ...], list[int], list[int]]]],
    tx: list[float],
    helper: list[float],
    floor: list[float],
    seed: list[tuple[int, tuple[int, ...]]] | None = None,
) -> list[tuple[int, tuple[int, ...]]] | None:
    """Deterministic Dijkstra on dense node indexes over direct and
    cooperative links.  groups[u] holds u's out-edges as (helpers,
    sink targets, relay targets), direct links under (); a group's
    links all cost tx[u] + helper[h] per helper.  floor[v] is 0.0 where
    v has a direct link to a sink, else 1.0.  Ties are broken toward the
    lower predecessor index, then the lower sink index.  Returns the
    path as (transmitter, helpers) edges.

    The search drops what cannot beat the best sink known.  Relaxing a
    sink at nd, or pricing seed (an earlier path from src; one that
    starts elsewhere is ignored) at nd at the current costs, lowers cut
    to nd*(1 + 1e-12) + 1e-12 if that is lower.  A popped u with
    d + tx[u] > cut relaxes nothing.  A group whose links reach past
    cut is skipped, and so are its relay targets once nd + 1 > cut, and
    a relay v once nd + tx[v] + floor[v] > cut.  An origin with a direct
    link to a sink and tx[src] < 2**52 gets [(src, ())] with no search.
    The path is still that of the unbounded search:

    - Every link costs at least 1 (each finite cost term is at least
      1), so pops come in nondecreasing order.  The search returns at
      the first sink popped, at some D no greater than any sink value
      relaxed before.  Nor is D above the seed's price by more than
      1e-15 and a rounding per hop: each node on the seed gets a value
      within that of its prefix, and it pops no later.  So cut exceeds
      D by about 1e-12*(1 + D): far more than the 1e-15 tie tolerance,
      and than any rounding.
    - A popped u's groups all cost at least tx[u], so each is skipped.
      A skipped group value is above cut.  A skipped relay v at nd
      leads only to values of at least nd + tx[v] + floor[v], up to
      rounding: v's next link costs at least tx[v], and one that does
      not end at a sink directly adds a helper term or a further link,
      each at least 1.  Whatever the unbounded search does with a
      skipped target thus leads only above cut, less roundings far
      below its margin.  Its heap entries pop after the sink, and it
      cannot be on the sink's path.
    - A skipped update can also change a later test on its target, but
      only for a candidate within 1e-15 of the skipped value, and such
      a candidate again leads only above cut less 1e-15.  Each further
      near-tie moves the difference down by at most 1e-15, and a node
      gets at most two candidates per predecessor.  So a difference
      cannot reach a value at or below D, where every test comes out
      alike, unless n is in the thousands.
    - Targets in one group are independent, so scanning its sinks
      first changes no node's state.
    - From src with a direct link to a sink, the unbounded search
      relaxes that sink at tx[src].  Every other way out of src costs at
      least fl(tx[src] + 1), which below 2**52 exceeds tx[src] + 1e-15,
      so nothing ties it.  The path names no sink, so which one pops
      does not matter.  From 2**52 on, adding 1 can round away.
    """
    if floor[src] == 0.0 and tx[src] < 2.0**52:
        return [(src, ())]
    n = len(tx)
    dist = [math.inf] * n
    pred = [0] * n
    via: list[tuple[int, ...]] = [()] * n
    done = [False] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    cut = math.inf
    if seed and seed[0][0] == src:
        price = 0.0
        for u, helpers in seed:
            w = tx[u]
            for h in helpers:
                w += helper[h]
            price += w
        cut = price * (1 + 1e-12) + 1e-12  # inf through a drained node
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
        if t == math.inf or d + t > cut:
            continue
        for helpers, sinks, relays in groups[u]:
            w = t
            for h in helpers:
                w += helper[h]
            if w == math.inf:
                continue
            nd = d + w
            if nd > cut:
                continue
            # A finalized sink would have ended the search.
            for v in sinks:
                dv = dist[v]
                if nd < dv - 1e-15 or (abs(nd - dv) <= 1e-15 and u < pred[v]):
                    dist[v] = nd
                    pred[v] = u
                    via[v] = helpers
                    push(heap, (nd, v))
                    cut = min(cut, nd * (1 + 1e-12) + 1e-12)
            if nd + 1.0 > cut:
                continue
            for v in relays:
                # A finalized node keeps its state; below 2**53 no edge
                # into it could pass the tests below, each term being >= 1.
                if done[v] or nd + tx[v] + floor[v] > cut:
                    continue
                dv = dist[v]
                if nd < dv - 1e-15 or (abs(nd - dv) <= 1e-15 and u < pred[v]):
                    dist[v] = nd
                    pred[v] = u
                    via[v] = helpers
                    push(heap, (nd, v))
    return None


def _weight_groups(
    links: LinkSet, i: int, index: dict[int, int], is_sink: list[bool]
) -> list[tuple[tuple[int, ...], list[int], list[int]]]:
    """Node i's out-edges on dense indexes, grouped by helper tuple:
    direct targets under (), then each helper tuple's coop targets,
    each group split into its sink and its relay targets, both in
    ascending target order."""
    groups = {(): [index[v] for v in links.direct_out(i)]}
    out = _leaving(links.coop_pairs, i)
    start = links.helper_start[out.start:out.stop + 1].tolist()
    flat = [index[h] for h in links.helpers[start[0]:start[-1]].tolist()]
    for m, a, b in zip(links.coop_pairs[1, out].tolist(), start, start[1:]):
        groups.setdefault(tuple(flat[a - start[0]:b - start[0]]), []).append(index[m])
    return [
        (helpers, [v for v in targets if is_sink[v]], [v for v in targets if not is_sink[v]])
        for helpers, targets in groups.items()
        if targets
    ]


def simulate_dynamic(
    nodes: list[SensorNode], links: LinkSet, params: CostParams = CostParams()
) -> float:
    """Round-based heuristic: every sensor emits round(rate) packets a
    round, each routed along the current least-cost path; energies are
    decremented one unit per transmission (helpers included).

    Raises ValueError if the network has no sink, if no sensor emits
    a packet (every rate rounds to 0), or if a node starts with 2**53
    units or more, where one unit is no longer counted exactly (from
    2**54 on, taking it off changes nothing).  Returns completed rounds plus the delivered fraction of
    the failing round.  The loop needs no round cap: each packet's
    first hop drains its origin by exactly one unit, and
    _least_cost_path returns None once the origin's cost term is
    infinite (below one unit).  Two nodes with one id raise
    ValueError, as in build_links.
    """
    _check_ids(nodes)
    if not any(n.is_sink for n in nodes):
        raise ValueError("network has no sink")
    if any(n.energy >= 2.0**53 for n in nodes):
        raise ValueError("initial energies must be below 2**53 units, where one unit is counted exactly")
    # Dense indexes in ascending id order: the map is monotone, so the
    # heap order and both tie rules are those of the ids.
    by_id = {n.id: n for n in nodes}
    ids = sorted(by_id)
    index = {i: k for k, i in enumerate(ids)}
    is_sink = [by_id[i].is_sink for i in ids]
    initial = [by_id[i].energy for i in ids]
    remaining = list(initial)
    packets = [(index[i], round(by_id[i].rate)) for i in ids if by_id[i].rate > 0]
    emitted = sum(count for _k, count in packets)
    if emitted == 0:
        raise ValueError("no sensor emits a packet per round (every rate rounds to 0)")
    groups = [_weight_groups(links, i, index, is_sink) for i in ids]
    floor = [0.0 if any(not h and s for h, s, _r in g) else 1.0 for g in groups]
    tx = [dynamic_cost(e, e, params.beta1) for e in initial]
    same = params.beta2 == params.beta1  # then one table serves both terms
    helper = tx if same else [dynamic_cost(e, e, params.beta2) for e in initial]
    last: list[list[tuple[int, tuple[int, ...]]] | None] = [None] * len(ids)

    for rnd in itertools.count():
        delivered = 0
        for origin, count in packets:
            for _ in range(count):
                path = _least_cost_path(origin, is_sink, groups, tx, helper, floor, last[origin])
                if path is None:
                    return rnd + delivered / emitted
                last[origin] = path
                for i, helpers in path:
                    for k in (i, *helpers):
                        remaining[k] -= 1.0
                        tx[k] = dynamic_cost(initial[k], remaining[k], params.beta1)
                        if not same:
                            helper[k] = dynamic_cost(initial[k], remaining[k], params.beta2)
                delivered += 1


def _min_hop_layers(sinks: set[int], pairs: np.ndarray) -> list[dict[int, list[int]]]:
    """The nodes that reach the sink set over the (src, dst) links in
    the columns of pairs, by hop count: layer h maps each non-sink node
    h + 1 hops from it, in ascending id order, to the columns of its
    links into layer h - 1 (the sinks, for h = 0), in ascending target
    order.  A BFS from the sinks over reversed links, one layer at a
    time in ascending id order."""
    by_dst = np.lexsort(pairs)  # by target, then source
    dst = pairs[1, by_dst]
    src, by_dst = pairs[0, by_dst].tolist(), by_dst.tolist()
    layers: list[dict[int, list[int]]] = []
    seen, frontier = set(sinks), sorted(sinks)
    while True:
        found: dict[int, list[int]] = {}
        runs = zip(dst.searchsorted(frontier).tolist(), dst.searchsorted(frontier, "right").tolist())
        for lo, hi in runs:  # the links into each frontier node
            for k in range(lo, hi):
                if src[k] in found:
                    found[src[k]].append(by_dst[k])
                elif src[k] not in seen:
                    found[src[k]] = [by_dst[k]]
        if not found:
            return layers
        seen.update(found)
        frontier = sorted(found)
        layers.append({i: found[i] for i in frontier})


def _min_hop_tree(sinks: set[int], links: LinkSet) -> dict[int, int]:
    """Tree edge of every non-sink node that reaches a sink over direct
    links, as its column in links.direct_pairs: the link to its
    lowest-id direct successor one hop closer to the sink set."""
    return {i: cols[0] for layer in _min_hop_layers(sinks, links.direct_pairs) for i, cols in layer.items()}


def _balanced_tree(
    layers: list[dict[int, list[int]]], links: LinkSet, rate: dict[int, float], energy: dict[int, float]
) -> tuple[dict[int, int], dict[int, float]]:
    """Tree edge of every sensor in the min-hop layers, as its column in
    links.direct_pairs, chosen to spread the load: from the farthest
    layer inward, each sensor in ascending id order sends its traffic,
    its rate plus what the tree already routes into it, to the
    successor one hop closer whose (traffic already through it + this
    traffic) / energy is least, the lowest id on ties.  rate and energy
    map each sensor's id to its own; any other node, a sink say, costs
    nothing to reach, as it has no energy row.  Returns the tree and
    each sensor's load, its traffic through the tree."""
    target = links.direct_pairs[1].tolist()
    load = dict(rate)
    tree: dict[int, int] = {}
    for layer in reversed(layers):
        for i, cols in layer.items():
            if i not in load:
                continue
            t = load[i]
            tree[i] = min(cols, key=lambda k: (load.get(target[k], 0.0) + t) / energy.get(target[k], math.inf))
            if target[tree[i]] in load:
                load[target[tree[i]]] += t
    return tree, load


def shortest_path_lifetime(nodes: list[SensorNode], links: LinkSet) -> float:
    """Static min-hop routing over direct links only: fixed paths,
    ties toward lower node ids, lifetime until the busiest node dies.
    Two nodes with one id raise ValueError, as in build_links."""
    _check_ids(nodes)
    sinks = {n.id for n in nodes if n.is_sink}
    if not sinks:
        raise ValueError("network has no sink")
    target = links.direct_pairs[1].tolist()
    tree = {i: target[k] for i, k in _min_hop_tree(sinks, links).items()}

    spend = {n.id: 0.0 for n in nodes}
    for node in nodes:
        if node.rate <= 0:
            continue
        if node.id not in tree:
            raise NoRouteError(f"origin {node.id} cannot reach any sink")
        v = node.id
        while v in tree:
            spend[v] += node.rate
            v = tree[v]
    lifetimes = [n.energy / spend[n.id] for n in nodes if spend[n.id] > 0]
    if not lifetimes:
        raise NoRouteError("no node transmits anything")
    return min(lifetimes)
