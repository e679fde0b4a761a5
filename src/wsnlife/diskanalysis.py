"""2D-disk lifetime analysis: per-ring forwarding load, CB/CT bypass
probabilities, and the min-max temperature bisection.

Nodes sit on a disk of radius b0 around a central sink, a packet
travels inward in hops of the single-hop range a0, and a node at
radius b may instead bypass the chain entirely by clustering with
enough neighbors to reach the sink in one shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# invert_cluster_size is unused here: bench/tracing.py wraps this name.
from .gainmodels import PhyParams, invert_cluster_size, invert_cluster_sizes

__all__ = [
    "DiskScenario",
    "BypassProfile",
    "npf",
    "njoint_profile",
    "optimize_bypass",
    "pure_bypass_profile",
    "saving_percent",
]

# Relative slack on the temperature when a ring's load is tested
# against it.
_FEASIBILITY_REL = 1e-9


@dataclass(frozen=True)
class DiskScenario:
    b0: float
    a0: float
    grid: int = 100
    mode: str = "ideal"  # cb | ct | ideal
    phy: PhyParams = PhyParams()

    def __post_init__(self):
        if not (0 < self.b0 < math.inf and 0 < self.a0 < math.inf):
            raise ValueError(f"disk radius {self.b0} and hop range {self.a0} must be positive and finite")
        if self.grid < 2:
            raise ValueError("need at least two rings")
        if self.mode not in ("cb", "ct", "ideal"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def rings(self) -> list[float]:
        # b0*k/grid can round one ulp above b0 at k = grid
        return [min(self.b0 * k / self.grid, self.b0) for k in range(1, self.grid + 1)]


@dataclass(frozen=True)
class BypassProfile:
    rings: tuple[float, ...]
    p_r: tuple[float, ...]
    n_pf: tuple[float, ...]
    n_joint: tuple[float, ...]
    n_cluster: tuple[int, ...]
    kappa: float

    def __post_init__(self):
        if not all(0.0 <= p <= 1.0 for p in self.p_r):
            raise ValueError("bypass probabilities must lie in [0, 1]")
        if any(n < 0 for n in self.n_cluster):
            raise ValueError("cluster sizes must be nonnegative (0: unreachable)")

    def max_n_joint(self) -> float:
        return max(self.n_joint)

    def max_n_pf(self) -> float:
        return max(self.n_pf)


def _check_radius(b: float, scenario: DiskScenario) -> None:
    if not 0 < b <= scenario.b0:
        raise ValueError("radius must lie in (0, b0]")


def _chain(b: float, scenario: DiskScenario) -> list[tuple[int, float]]:
    """Relay chain of a node at radius b: for each hop n = 1 .. hops
    outward, the index of the grid ring nearest to b + n*a0 and the
    weight 1 + n*a0/b of the traffic from there per node at b."""
    b0, a0, grid = scenario.b0, scenario.a0, scenario.grid
    return [
        (min(max(round((b + n * a0) * grid / b0), 1), grid) - 1, 1.0 + n * a0 / b)
        for n in range(1, int((b0 - b) / a0) + 1)
    ]


def _load(chain: list[tuple[int, float]], p_r: Sequence[float]) -> float:
    """Packets a node transmits: its own, plus the traffic of each hop
    of its chain that no ring on the way in has bypassed."""
    total = survive = 1.0
    for k, weight in chain:
        survive *= 1.0 - p_r[k]
        total += weight * survive
    return total


def npf(b: float, scenario: DiskScenario) -> float:
    """Transmissions per node at radius b under pure packet
    forwarding: the node's own packet plus its share of all traffic
    funneling inward through its ring."""
    _check_radius(b, scenario)
    return _load(_chain(b, scenario), [0.0] * scenario.grid)


def _required_gain(b: float, scenario: DiskScenario) -> float:
    """Gain a cluster at radius b needs to reach the sink in one shot."""
    return max(b / scenario.a0, 1.0) ** scenario.phy.alpha


def _tables(scenario: DiskScenario):
    """Rings, relay chains, cluster sizes (inverted in one batch, 0
    where unreachable) and pure-forwarding loads, built once per
    profile."""
    rings = scenario.rings()
    chains = [_chain(b, scenario) for b in rings]
    targets = [_required_gain(b, scenario) for b in rings]
    sizes = invert_cluster_sizes(targets, scenario.mode, scenario.phy)
    no_bypass = [0.0] * len(rings)
    return rings, chains, sizes, [_load(chain, no_bypass) for chain in chains]


def _sweep(p_r: list[float], chains, cluster_sizes, rule=None) -> tuple[list[float], list[float]]:
    """Outermost-to-innermost sweep: each ring's load from the bypass
    probabilities in p_r, then its own p_r[idx] = rule(load, cluster
    size) if a rule is given, then its n_joint. Returns (n_joint, loads)."""
    n_joint, loads = [0.0] * len(chains), [0.0] * len(chains)
    for idx in range(len(chains) - 1, -1, -1):
        load = loads[idx] = _load(chains[idx], p_r)
        nc = cluster_sizes[idx]
        if rule is not None:
            p_r[idx] = rule(load, nc)
        n_joint[idx] = (1.0 - p_r[idx] + nc * p_r[idx]) * load
    return n_joint, loads


def njoint_profile(p_r: Sequence[float], scenario: DiskScenario) -> list[float]:
    """Per-ring transmissions per node when each ring bypasses with
    its given probability."""
    if len(p_r) != scenario.grid:
        raise ValueError("one bypass probability per ring required")
    _, chains, sizes, _ = _tables(scenario)
    return _sweep(list(p_r), chains, sizes)[0]


def optimize_bypass(scenario: DiskScenario) -> BypassProfile:
    """Minimize the worst-ring transmission count over bypass
    probabilities, by bisection on the temperature."""
    rings, chains, sizes, n_pf = _tables(scenario)

    def greedy(kappa: float) -> tuple[bool, list[float]]:
        """Give every ring, outermost first, the largest bypass
        probability that keeps it at or below the temperature kappa:
        (feasible, p_r)."""
        def rule(load: float, nc: int) -> float:
            return min(max((kappa / load - 1.0) / (nc - 1.0), 0.0), 1.0) if nc > 1 else 0.0

        p_r = [0.0] * len(rings)
        loads = _sweep(p_r, chains, sizes, rule)[1]
        return max(loads) <= kappa * (1.0 + _FEASIBILITY_REL), p_r

    lo, hi = 1.0, max(n_pf)
    width_target = 1e-6 * hi
    best = greedy(hi)
    if not best[0]:
        raise RuntimeError("pure forwarding temperature infeasible (internal bug)")
    while hi - lo > width_target:
        mid = 0.5 * (lo + hi)
        trial = greedy(mid)
        if trial[0]:
            hi, best = mid, trial
        else:
            lo = mid
    # n_joint from one sweep at the final p_r: where a first hop rounds onto
    # its own ring (spacing above 2*a0), the greedy sweep read that p_r as 0.
    p_r = best[1]
    n_joint = _sweep(p_r, chains, sizes)[0]
    return BypassProfile(tuple(rings), tuple(p_r), tuple(n_pf), tuple(n_joint), tuple(sizes), hi)


def pure_bypass_profile(scenario: DiskScenario) -> BypassProfile:
    """Profile of the pure CB/CT scheme: every node clusters straight
    to the sink, except on unreachable rings (cluster size 0), which forward."""
    rings, chains, sizes, n_pf = _tables(scenario)
    p_r = [1.0 if nc else 0.0 for nc in sizes]
    n_joint = _sweep(p_r, chains, sizes)[0]
    return BypassProfile(tuple(rings), tuple(p_r), tuple(n_pf), tuple(n_joint), tuple(sizes), max(n_joint))


def saving_percent(profile: BypassProfile) -> float:
    """Lifetime saving of the profile over pure packet forwarding."""
    return 100.0 * (1.0 - profile.max_n_joint() / profile.max_n_pf())
