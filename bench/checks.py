"""Output checks whose references are computed apart from wsnlife.

Every function returns a list of failure messages; an empty list means
the output passed.  The references are re-derived here from the inputs
(coordinates, physical parameters, disk geometry) or are properties the
method must have; none is a stored copy of an earlier output.  scipy is
imported lazily and only by the LP check, so the program's own peak
memory is read before it is loaded.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Constant of the CB directivity lower bound N / (1 + MU * N * lambda / R)
# (Ochiai et al., IEEE TSP 2005).
CB_MU = 0.09332

# Lifetime saving of the ideal bypass over pure forwarding, per disk size
# b0/a0, as tabulated in the paper; the acceptance suite allows 3 points.
PAPER_IDEAL_SAVING = {2: 94.56, 4: 93.33, 6: 90.86, 8: 88.13, 10: 85.98}
SAVING_BAND = 3.0

LP_REL = 1e-7
FLOW_ABS = 1e-7


# ---------------------------------------------------------------- links

def hop_range(phy) -> float:
    return (phy.power * phy.c0 / (phy.noise * phy.snr_min)) ** (1.0 / phy.alpha)


def derive_links(nodes, phy):
    """Direct links within the hop range; a cooperative link from each
    sensor through its nearest sensor (lower id on a tie) to every
    target it cannot reach alone whose combined received power
    sum d^-alpha meets the SNR threshold.  Returns (direct, coop,
    borderline): borderline holds the pairs within 1e-9 of a
    threshold, whose classification is left open."""
    a0 = hop_range(phy)
    threshold = phy.snr_min * phy.noise / (phy.power * phy.c0)
    pos = {n.id: (n.x, n.y) for n in nodes}

    def dist(a, b):
        return math.hypot(pos[a][0] - pos[b][0], pos[a][1] - pos[b][1])

    ids = [n.id for n in nodes]
    direct, borderline = set(), set()
    for a in ids:
        for b in ids:
            if a == b:
                continue
            d = dist(a, b)
            if abs(d - a0) <= 1e-9 * a0:
                borderline.add((a, b))
            if d <= a0:
                direct.add((a, b))
    coop = {}
    sensors = [n.id for n in nodes if n.rate >= 0]
    for s in sensors:
        others = [(dist(s, o), o) for o in sensors if o != s]
        if not others:
            continue
        d_h, h = min(others)
        if d_h > a0:
            continue
        for t in ids:
            if t == s or (s, t) in direct:
                continue
            combined = dist(s, t) ** -phy.alpha + dist(h, t) ** -phy.alpha
            if abs(combined - threshold) <= 1e-9 * threshold:
                borderline.add((s, t))
            if combined >= threshold:
                coop[(s, t)] = (h,)
    return direct, coop, borderline


def check_links(links, derived) -> list[str]:
    """derived: the (direct, coop, borderline) of derive_links."""
    direct, coop, borderline = derived
    errors = []
    got_direct = set(links.direct)
    for pair in sorted((got_direct ^ direct) - borderline):
        errors.append(f"direct link {pair} {'missing' if pair in direct else 'spurious'}")
    for pair in sorted((set(links.coop) ^ set(coop)) - borderline):
        errors.append(f"coop link {pair} {'missing' if pair in coop else 'spurious'}")
    for pair in sorted(set(links.coop) & set(coop)):
        if tuple(links.coop[pair]) != coop[pair]:
            errors.append(f"coop link {pair} helpers {links.coop[pair]} != {coop[pair]}")
    return errors[:5]


# ----------------------------------------------------------- lifetime LP

def lp_optimum(nodes, derived, with_coop: bool) -> float:
    """Max-min lifetime (Chang & Tassiulas, IEEE/ACM ToN 2004, with
    helper duty on cooperative links) re-solved by HiGHS from the links
    of derive_links."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    direct, coop, _ = derived
    sinks = {n.id for n in nodes if n.rate < 0}
    sensors = [n for n in nodes if n.rate >= 0]
    row_of = {n.id: r for r, n in enumerate(sensors)}
    arcs = [(i, j, ()) for (i, j) in sorted(direct) if i not in sinks]
    if with_coop:
        arcs += [(i, m, h) for (i, m), h in sorted(coop.items()) if i not in sinks]
    t_col = len(arcs)
    eq_r, eq_c, eq_v, ub_r, ub_c, ub_v = [], [], [], [], [], []
    for k, (i, j, helpers) in enumerate(arcs):
        eq_r.append(row_of[i]); eq_c.append(k); eq_v.append(1.0)
        if j in row_of:
            eq_r.append(row_of[j]); eq_c.append(k); eq_v.append(-1.0)
        for node in (i, *helpers):
            ub_r.append(row_of[node]); ub_c.append(k); ub_v.append(1.0)
    for n in sensors:
        eq_r.append(row_of[n.id]); eq_c.append(t_col); eq_v.append(-n.rate)
    shape = (len(sensors), t_col + 1)
    cost = np.zeros(t_col + 1)
    cost[t_col] = -1.0
    res = linprog(
        cost,
        A_ub=coo_matrix((ub_v, (ub_r, ub_c)), shape=shape).tocsr(),
        b_ub=[n.energy for n in sensors],
        A_eq=coo_matrix((eq_v, (eq_r, eq_c)), shape=shape).tocsr(),
        b_eq=np.zeros(len(sensors)),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def check_lp(nodes, derived, sol, with_coop: bool, reference: float) -> list[str]:
    """Objective against the HiGHS reference, then flow conservation,
    energy caps (helper duty included) and the reported energy use, all
    from qhat."""
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    errors = []
    if abs(sol.lifetime - reference) > LP_REL * max(1.0, abs(reference)):
        errors.append(f"lifetime {sol.lifetime!r} != HiGHS {reference!r}")
    return errors + check_flows(nodes, derived, sol, with_coop)


def check_flows(nodes, derived, sol, with_coop: bool) -> list[str]:
    direct, coop, _ = derived
    net = {n.id: 0.0 for n in nodes}
    spent = {n.id: 0.0 for n in nodes}
    errors = []
    for (i, j, is_coop), q in sol.qhat.items():
        if q < 0.0:
            errors.append(f"negative flow {q} on {(i, j, is_coop)}")
        if is_coop and not with_coop:
            errors.append(f"coop flow {(i, j)} in an LP without coop links")
        if (i, j) not in (coop if is_coop else direct):
            errors.append(f"flow on unknown link {(i, j, is_coop)}")
            continue
        net[i] += q
        net[j] -= q
        spent[i] += q
        for h in coop[(i, j)] if is_coop else ():
            spent[h] += q
    for n in nodes:
        if n.rate < 0:
            continue
        scale = max(1.0, n.energy, abs(n.rate * sol.lifetime))
        if abs(net[n.id] - n.rate * sol.lifetime) > FLOW_ABS * scale:
            errors.append(f"conservation at {n.id}: out-in={net[n.id]!r}, rate*T={n.rate * sol.lifetime!r}")
        if spent[n.id] > n.energy + FLOW_ABS * scale:
            errors.append(f"energy cap at {n.id}: {spent[n.id]!r} > {n.energy!r}")
        if abs(sol.energy_used.get(n.id, 0.0) - spent[n.id]) > FLOW_ABS * scale:
            errors.append(f"energy_used[{n.id}]={sol.energy_used.get(n.id)!r} != {spent[n.id]!r}")
    return errors[:5]


def shortest_path_lifetime(nodes, derived) -> float:
    """Static min-hop lifetime over the direct links of derive_links:
    hop counts to the sink by breadth-first search, each origin's
    packets forwarded to the lowest-id neighbour one hop closer, one
    unit of energy per packet sent; the lifetime ends when the first
    node runs out."""
    direct = derived[0]
    sinks = {n.id for n in nodes if n.rate < 0}
    hops = dict.fromkeys(sinks, 0)
    level, depth = set(sinks), 0
    while level:
        depth += 1
        level = {i for (i, j) in direct if j in level and i not in hops}
        hops.update(dict.fromkeys(level, depth))
    spend = {n.id: 0.0 for n in nodes}
    for node in nodes:
        if node.rate <= 0:
            continue
        v = node.id
        while v not in sinks:
            spend[v] += node.rate
            v = min(j for (i, j) in direct if i == v and hops.get(j) == hops[v] - 1)
    return min(n.energy / spend[n.id] for n in nodes if spend[n.id] > 0)


def check_shortest_path(nodes, derived, sp: float) -> list[str]:
    ref = shortest_path_lifetime(nodes, derived)
    if not abs(sp - ref) <= 1e-9 * ref:
        return [f"shortest-path lifetime {sp!r} != min-hop reference {ref!r}"]
    return []


def check_dominance(sp: float, plain: float, coop: float) -> list[str]:
    tol = 1e-9 * max(1.0, coop)
    errors = []
    if not plain >= sp - tol:
        errors.append(f"LP without coop {plain!r} < shortest path {sp!r}")
    if not coop >= plain - tol:
        errors.append(f"LP with coop {coop!r} < LP without coop {plain!r}")
    return errors


def check_heuristic(rounds: float, coop_optimum: float) -> list[str]:
    """The heuristic's completed rounds cannot beat the coop LP optimum."""
    if not rounds > 0.0:
        return [f"heuristic lifetime {rounds!r} is not positive"]
    if math.floor(rounds) > coop_optimum * (1.0 + 1e-9):
        return [f"heuristic completed {math.floor(rounds)} rounds > LP optimum {coop_optimum!r}"]
    return []


# ------------------------------------------------------------- gains

def _pochhammer_series(a, L, c, z):
    """sum_k (a)_k (-L)_k / ((c)_k k!) z^k, in the number type of its
    arguments."""
    total = term = a * 0 + 1
    for k in range(L):
        term = term * (a + k) * (k - L) / ((c + k) * (k + 1)) * z
        total += term
    return total


def ct_gain_exact(n: int, r_disk: float, phy) -> float:
    """1 + (n-1) 2F1(2/alpha, -L; (alpha+2)/alpha; z), the terminating
    series summed in exact rational arithmetic."""
    z = Fraction(phy.noise * r_disk**phy.alpha / (4.0 * phy.power))
    alpha = Fraction(phy.alpha)
    value = _pochhammer_series(2 / alpha, phy.packet_len, (alpha + 2) / alpha, z)
    return float(1 + (n - 1) * value)


def ct_gain_pfaff(n: int, r_disk: float, phy) -> float:
    """Same quantity in floats through the Pfaff transformation
    2F1(a,-L;c;z) = (1-z)^L 2F1(c-a,-L;c;z/(z-1)) (DLMF 15.8.1), whose
    terms are all nonnegative for 0 <= z < 1."""
    z = phy.noise * r_disk**phy.alpha / (4.0 * phy.power)
    a, c, L = 2.0 / phy.alpha, (phy.alpha + 2.0) / phy.alpha, phy.packet_len
    series = _pochhammer_series(c - a, L, c, z / (z - 1.0))
    return 1.0 + (n - 1) * (1.0 - z) ** L * series


def check_ct_row(n, r_disk, phy, closed_form, mc_value):
    """(closed-form errors, Monte Carlo errors) for one sweep row."""
    exact = ct_gain_exact(n, r_disk, phy)
    cf = []
    if not abs(closed_form - exact) <= 1e-9 * exact:
        cf.append(f"closed form {closed_form!r} vs exact {exact!r} at R={r_disk}")
    mc = []
    if not abs(mc_value - exact) <= 0.03 * exact:
        mc.append(f"Monte Carlo {mc_value!r} not within 3% of exact {exact!r} at R={r_disk}")
    return cf, mc


def cb_bound(n: int, r_disk: float, wavelength: float) -> float:
    return n / (1.0 + CB_MU * n * wavelength / r_disk)


def check_cb_row(n, r_disk, phy, bound_value, mc_value) -> list[str]:
    bound = cb_bound(n, r_disk, phy.wavelength)
    errors = []
    if not abs(bound_value - bound) <= 1e-12 * bound:
        errors.append(f"CB bound {bound_value!r} != {bound!r}")
    if not mc_value >= 0.95 * bound:
        errors.append(f"CB Monte Carlo {mc_value!r} < 0.95 x bound {bound!r}")
    return errors


# -------------------------------------------------------------- disk

def _smallest_size(gain, target: float) -> int:
    """Smallest integer n >= 1 with gain(n) >= target, for increasing
    gain: doubling, then bisection."""
    if target <= 1.0:
        return 1
    lo, hi = 1, 2
    while gain(hi) < target:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gain(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def cluster_size(b: float, a0: float, mode: str, phy) -> tuple[int, float, object]:
    """(size, target, gain function) for a ring at radius b."""
    target = max(b / a0, 1.0) ** phy.alpha

    def radius(n):
        return math.sqrt(n / (phy.density * math.pi))

    if mode == "ideal":
        gain = float
    elif mode == "cb":
        def gain(n):
            return cb_bound(n, radius(n), phy.wavelength)
    else:
        def gain(n):
            return ct_gain_pfaff(n, radius(n), phy)
    return _smallest_size(gain, target), target, gain


def check_disk(ratio: float, a0: float, grid: int, mode: str, phy, curve_rows, summary_row, sizes_memo) -> list[str]:
    """curve_rows: [b0_over_a0, ring_radius, p_r, n_pf, n_joint, n_cluster]
    per ring; summary_row: [b0_over_a0, kappa, max_n_joint, max_n_pf,
    saving_percent]."""
    b0 = ratio * a0
    rings = [b0 * k / grid for k in range(1, grid + 1)]
    if len(curve_rows) != grid or any(
        abs(row[1] - b) > 1e-12 * b0 for row, b in zip(curve_rows, rings)
    ):
        return [f"ring radii differ from b0*k/grid for k = 1..{grid}"]
    errors = []
    p_r = [row[2] for row in curve_rows]
    b1 = b0 / grid
    h = int((b0 - b1) / a0)
    npf_inner = (h + 1) + (a0 / b1) * h * (h + 1) / 2.0
    if abs(curve_rows[0][3] - npf_inner) > 1e-9 * npf_inner:
        errors.append(f"innermost n_pf {curve_rows[0][3]!r} != {npf_inner!r}")

    def ring_of(radius):
        k = round(radius * grid / b0)
        return min(max(k, 1), grid) - 1

    n_joint = []
    for b, p, row in zip(rings, p_r, curve_rows):
        load, survive = 0.0, 1.0
        for k in range(int((b0 - b) / a0) + 1):
            if k:
                survive *= 1.0 - p_r[ring_of(b + k * a0)]
            load += (1.0 + k * a0 / b) * survive
        n_joint.append((1.0 - p + row[5] * p) * load)
    worst = max(abs(x - row[4]) / max(x, 1e-300) for x, row in zip(n_joint, curve_rows))
    if worst > 1e-9:
        errors.append(f"n_joint differs from the recomputed loads by {worst:.3g}")
    kappa = summary_row[1]
    if abs(max(n_joint) - kappa) > 1e-6 * kappa:
        errors.append(f"max n_joint {max(n_joint)!r} != kappa {kappa!r}")

    for b, row in zip(rings, curve_rows):
        key = (mode, b / a0)
        if key not in sizes_memo:
            sizes_memo[key] = cluster_size(b, a0, mode, phy)
        size, target, gain = sizes_memo[key]
        if row[5] != size and not _on_threshold(gain, row[5], size, target):
            errors.append(f"cluster size {row[5]} at b={b!r}, expected {size}")
            break

    saving = 100.0 * (1.0 - summary_row[2] / summary_row[3])
    if abs(saving - summary_row[4]) > 1e-9:
        errors.append(f"saving {summary_row[4]!r} != {saving!r}")
    if mode == "ideal" and int(ratio) in PAPER_IDEAL_SAVING:
        paper = PAPER_IDEAL_SAVING[int(ratio)]
        if abs(summary_row[4] - paper) > SAVING_BAND:
            errors.append(f"ideal saving {summary_row[4]:.2f}% outside the paper's band {paper} +- {SAVING_BAND}")
    return errors


def _on_threshold(gain, size: int, expected: int, target: float) -> bool:
    """Sizes one apart are both accepted when the gain at the smaller
    lies within 1e-9 of the target without equalling it, so that float
    rounding in either gain evaluation decides between them."""
    if abs(size - expected) != 1:
        return False
    edge = gain(min(size, expected))
    return edge != target and abs(edge - target) <= 1e-9 * target
