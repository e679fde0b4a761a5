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

from .gainmodels import PhyParams, UnreachableGainError, invert_cluster_size

__all__ = [
    "DiskScenario",
    "BypassProfile",
    "npf",
    "cluster_size_for_ring",
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
        return [self.b0 * k / self.grid for k in range(1, self.grid + 1)]

    def ring_index(self, radius: float) -> int:
        """Index of the grid ring nearest to the given radius."""
        k = round(radius * self.grid / self.b0)
        return min(max(k, 1), self.grid) - 1


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


def npf(b: float, scenario: DiskScenario) -> float:
    """Transmissions per node at radius b under pure packet
    forwarding: the node's own packet plus its share of all traffic
    funneling inward through its ring."""
    if b <= 0:
        raise ValueError("radius must be positive")
    hops = int((scenario.b0 - b) / scenario.a0)
    return sum(1.0 + n * scenario.a0 / b for n in range(hops + 1))


def cluster_size_for_ring(b: float, scenario: DiskScenario) -> int:
    """Cluster size needed at radius b to reach the sink in one shot,
    or 0 where the mode's gain model cannot reach it (the ring forwards)."""
    if b <= 0 or b > scenario.b0:
        raise ValueError("radius must lie in (0, b0]")
    target = max(b / scenario.a0, 1.0) ** scenario.phy.alpha
    try:
        return invert_cluster_size(target, scenario.mode, scenario.phy)
    except UnreachableGainError:
        return 0


def _load(b: float, p_r: Sequence[float], scenario: DiskScenario) -> float:
    """Number of packets a node at radius b must transmit, given the
    bypass probabilities of the rings outside it."""
    hops = int((scenario.b0 - b) / scenario.a0)
    total = 0.0
    survive = 1.0
    for n in range(hops + 1):
        if n:
            survive *= 1.0 - p_r[scenario.ring_index(b + n * scenario.a0)]
        total += (1.0 + n * scenario.a0 / b) * survive
    return total


def njoint_profile(
    p_r: Sequence[float],
    scenario: DiskScenario,
    cluster_sizes: Sequence[int] | None = None,
) -> list[float]:
    """Per-ring transmissions per node when each ring bypasses with
    its given probability.

    cluster_sizes can be supplied to skip the gain-model inversion
    (used by the optimizer and by tests).
    """
    rings = scenario.rings()
    if len(p_r) != len(rings):
        raise ValueError("one bypass probability per ring required")
    if cluster_sizes is None:
        cluster_sizes = [cluster_size_for_ring(b, scenario) for b in rings]
    out = []
    for b, p, nc in zip(rings, p_r, cluster_sizes):
        out.append((1.0 - p + nc * p) * _load(b, p_r, scenario))
    return out


def _feasibility_sweep(
    kappa: float,
    scenario: DiskScenario,
    cluster_sizes: Sequence[int],
) -> tuple[bool, list[float], list[float]]:
    """Outermost-to-innermost greedy sweep: give every ring the largest
    bypass probability that keeps it at or below the temperature."""
    rings = scenario.rings()
    g = len(rings)
    p_r = [0.0] * g
    n_joint = [0.0] * g
    feasible = True
    for idx in range(g - 1, -1, -1):
        b = rings[idx]
        load = _load(b, p_r, scenario)
        nc = cluster_sizes[idx]
        if nc > 1:
            p_r[idx] = min(max((kappa / load - 1.0) / (nc - 1.0), 0.0), 1.0)
        n_joint[idx] = (1.0 - p_r[idx] + nc * p_r[idx]) * load
        if load > kappa * (1.0 + _FEASIBILITY_REL):
            feasible = False
    return feasible, p_r, n_joint


def optimize_bypass(scenario: DiskScenario) -> BypassProfile:
    """Minimize the worst-ring transmission count over bypass
    probabilities, by bisection on the temperature."""
    rings = scenario.rings()
    cluster_sizes = [cluster_size_for_ring(b, scenario) for b in rings]
    n_pf = [npf(b, scenario) for b in rings]
    lo, hi = 1.0, max(n_pf)
    width_target = 1e-6 * hi
    if not _feasibility_sweep(hi, scenario, cluster_sizes)[0]:
        raise RuntimeError("pure forwarding temperature infeasible (internal bug)")
    while hi - lo > width_target:
        mid = 0.5 * (lo + hi)
        if _feasibility_sweep(mid, scenario, cluster_sizes)[0]:
            hi = mid
        else:
            lo = mid
    _, p_r, n_joint = _feasibility_sweep(hi, scenario, cluster_sizes)
    return BypassProfile(
        rings=tuple(rings),
        p_r=tuple(p_r),
        n_pf=tuple(n_pf),
        n_joint=tuple(n_joint),
        n_cluster=tuple(cluster_sizes),
        kappa=hi,
    )


def pure_bypass_profile(scenario: DiskScenario) -> BypassProfile:
    """Profile of the pure CB/CT scheme: every node clusters straight
    to the sink, except on unreachable rings (cluster size 0), which forward."""
    rings = scenario.rings()
    cluster_sizes = [cluster_size_for_ring(b, scenario) for b in rings]
    p_r = [1.0 if nc else 0.0 for nc in cluster_sizes]
    n_joint = njoint_profile(p_r, scenario, cluster_sizes)
    n_pf = [npf(b, scenario) for b in rings]
    return BypassProfile(
        rings=tuple(rings),
        p_r=tuple(p_r),
        n_pf=tuple(n_pf),
        n_joint=tuple(n_joint),
        n_cluster=tuple(cluster_sizes),
        kappa=max(n_joint),
    )


def saving_percent(profile: BypassProfile) -> float:
    """Lifetime saving of the profile over pure packet forwarding."""
    return 100.0 * (1.0 - profile.max_n_joint() / profile.max_n_pf())
