"""Gain models for collaborative beamforming (CB) and cooperative
transmission (CT): closed forms, Monte Carlo validators, and the
inversion from a required gain to a cluster size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Hyp2F1Args, hyp2f1_terminating

__all__ = [
    "MU",
    "dbm_to_watts",
    "db_to_linear",
    "PhyParams",
    "ClusterGeometry",
    "GainEstimate",
    "ApproximationDomainError",
    "UnreachableGainError",
    "cb_gain_bound",
    "cb_gain_monte_carlo",
    "ct_gain_closed_form",
    "ct_gain_monte_carlo",
    "invert_cluster_size",
]

# Constant in the CB directivity lower bound N / (1 + MU * N * lambda / R).
MU = 0.09332

# Trials per chunk in the CT Monte Carlo loop; fixed so that results are
# reproducible for a given seed independent of the total trial count's
# batching.
_CHUNK = 16384

# Azimuth grid of the CB Monte Carlo beampattern average.
_N_PHI = 2048

# Largest cluster size the CT search in invert_cluster_size tries.
_N_MAX = 10**6


class ApproximationDomainError(ValueError):
    """Inputs fall outside the validity region of a closed-form
    approximation."""


class UnreachableGainError(ValueError):
    """No admissible cluster size achieves the requested gain."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class PhyParams:
    """Physical-layer parameters shared by all gain formulas.

    power/noise are in watts (linear), snr_min is a linear ratio,
    wavelength in meters, density in nodes per square meter and
    packet_len in symbols.  The defaults are the simulation's: 10 dBm
    transmit power, -70 dBm noise, path-loss exponent 4 and a 10 dB
    minimum link SNR.
    """

    power: float = dbm_to_watts(10.0)
    noise: float = dbm_to_watts(-70.0)
    c0: float = 1.0
    alpha: float = 4.0
    wavelength: float = 0.1
    density: float = 1.0
    packet_len: int = 100
    snr_min: float = db_to_linear(10.0)

    def __post_init__(self):
        if self.power <= 0 or self.noise <= 0 or self.c0 <= 0:
            raise ValueError("power, noise and c0 must be positive")
        if self.alpha < 2:
            raise ValueError("path-loss exponent must be at least 2")
        if self.wavelength <= 0 or self.density <= 0:
            raise ValueError("wavelength and density must be positive")
        if self.packet_len < 1:
            raise ValueError("packet length must be at least 1 symbol")
        if self.snr_min <= 0:
            raise ValueError("minimum SNR must be positive")

    def hop_range(self) -> float:
        """Maximum single-hop distance at which the SNR threshold is
        still met (unit channel gain)."""
        return (self.power * self.c0 / (self.noise * self.snr_min)) ** (1.0 / self.alpha)


@dataclass(frozen=True)
class ClusterGeometry:
    """A cluster of n nodes on a disk of radius r_disk whose target
    receiver sits dist meters from the disk center."""

    n: int
    r_disk: float
    dist: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cluster must contain at least one node")
        if self.r_disk <= 0:
            raise ValueError("disk radius must be positive")
        if self.dist <= self.r_disk:
            raise ValueError("destination must lie outside the cluster disk")


@dataclass(frozen=True)
class GainEstimate:
    """Scalar energy gain with the model that produced it."""

    value: float
    mode: str  # cb-bound | ct-closed-form | monte-carlo
    stderr: float = 0.0

    def __post_init__(self):
        if self.value < 0 or self.stderr < 0:
            raise ValueError("gain and stderr must be nonnegative")


def cb_gain_bound(geom: ClusterGeometry, phy: PhyParams) -> GainEstimate:
    """Tight lower bound on the average CB directivity of a random
    n-node disk array: n / (1 + MU * n * wavelength / r_disk)."""
    value = geom.n / (1.0 + MU * geom.n * phy.wavelength / geom.r_disk)
    return GainEstimate(value=value, mode="cb-bound")


def cb_gain_monte_carlo(
    geom: ClusterGeometry, phy: PhyParams, trials: int, seed: int
) -> GainEstimate:
    """Average directivity of random disk arrays by direct beampattern
    integration.

    Each trial draws one placement, evaluates the squared array factor
    on a uniform azimuth grid, and takes boresight power (1 by
    construction) over the azimuth-averaged power.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n, r_disk, lam = geom.n, geom.r_disk, phy.wavelength
    if n == 1:
        return GainEstimate(value=1.0, mode="monte-carlo", stderr=0.0)
    rng = np.random.default_rng(seed)
    phi = np.linspace(0.0, 2.0 * np.pi, _N_PHI, endpoint=False)
    sin_half = np.sin(phi / 2.0)[:, None]
    half_phi = (phi / 2.0)[:, None]
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        r = r_disk * np.sqrt(rng.random(n))
        psi = rng.random(n) * 2.0 * np.pi
        # compensated phase at observation angle phi
        arg = -(4.0 * np.pi / lam) * sin_half * (r[None, :] * np.sin(psi[None, :] - half_phi))
        pattern = np.abs(np.exp(1j * arg).mean(axis=1)) ** 2
        d = 1.0 / pattern.mean()
        total += d
        total_sq += d * d
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return GainEstimate(value=mean, mode="monte-carlo", stderr=stderr)


def _good_channel_arg(geom: ClusterGeometry, phy: PhyParams) -> float:
    return phy.noise * geom.r_disk**phy.alpha / (4.0 * phy.power)


def ct_gain_closed_form(geom: ClusterGeometry, phy: PhyParams) -> GainEstimate:
    """Closed-form average CT energy gain
    1 + (n-1) * 2F1(2/alpha, -L; (alpha+2)/alpha; noise*R^alpha/(4P)).
    """
    z = _good_channel_arg(geom, phy)
    if z > 1.0:
        raise ApproximationDomainError(
            f"noise*R^alpha/(4P) = {z:.4g} > 1: good-channel approximation invalid"
        )
    args = Hyp2F1Args(
        a=2.0 / phy.alpha, L=phy.packet_len, c=(phy.alpha + 2.0) / phy.alpha, z=z
    )
    value = 1.0 + (geom.n - 1) * hyp2f1_terminating(args)
    return GainEstimate(value=value, mode="ct-closed-form")


def ct_gain_monte_carlo(
    geom: ClusterGeometry, phy: PhyParams, trials: int, seed: int
) -> GainEstimate:
    """Average CT energy gain with no far-field or good-channel
    approximation.

    The source sits at the disk center and contributes exactly 1.
    Relays are drawn with radial density 2r/R^2, relay-destination
    fading |h|^2 is exponential(1), and the packet-success probability
    uses the exact BPSK expression in the relay radius.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n, r_disk, dist = geom.n, geom.r_disk, geom.dist
    p, s2, alpha, lpkt = phy.power, phy.noise, phy.alpha, phy.packet_len
    if n == 1:
        return GainEstimate(value=1.0, mode="monte-carlo", stderr=0.0)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        u = rng.random((count, n - 1))
        r = r_disk * np.sqrt(u)
        psi = rng.random((count, n - 1)) * 2.0 * np.pi
        h2 = rng.exponential(1.0, (count, n - 1))
        d = np.sqrt(dist**2 + r**2 - 2.0 * r * dist * np.cos(psi))
        p_suc = (0.5 + 0.5 * np.sqrt(p / (p + s2 * r**alpha))) ** lpkt
        gains = 1.0 + (dist**alpha * d ** (-alpha) * h2 * p_suc).sum(axis=1)
        total += gains.sum()
        total_sq += (gains * gains).sum()
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return GainEstimate(value=mean, mode="monte-carlo", stderr=stderr)


def invert_cluster_size(required_gain: float, mode: str, phy: PhyParams) -> int:
    """Smallest cluster size whose gain model reaches required_gain.

    ideal: ceil of the gain (density-limit D_av/N -> 1).
    cb: closed-form inversion of the directivity lower bound.
    ct: integer bracketed search on the closed-form CT gain with the
    disk radius tied to the size through the node density.
    """
    if required_gain < 1.0:
        raise ValueError("required gain must be at least 1")
    if required_gain <= 1.0:
        return 1
    if mode == "ideal":
        return math.ceil(required_gain)
    if mode == "cb":
        c0 = required_gain
        c1 = MU * phy.wavelength * math.sqrt(phy.density * math.pi)
        n = 0.5 * (c0 * (2.0 + c0 * c1**2) + c0**1.5 * c1 * math.sqrt(4.0 + c0 * c1**2))
        return max(1, math.ceil(n))
    if mode == "ct":
        def gain(n: int) -> float:
            r = math.sqrt(n / (phy.density * math.pi))
            geom = ClusterGeometry(n=n, r_disk=r, dist=2.0 * r + 1.0)
            try:
                return ct_gain_closed_form(geom, phy).value
            except ValueError as exc:  # z > 1, or (1-z)^L underflows just below
                raise UnreachableGainError(
                    f"gain {required_gain} drives the CT closed form out of its "
                    f"approximation domain at n={n}"
                ) from exc

        lo, hi = 1, 2
        while gain(hi) < required_gain:
            lo = hi
            hi *= 2
            if hi > _N_MAX:
                raise UnreachableGainError(
                    f"no cluster of size <= {_N_MAX} reaches gain {required_gain}"
                )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if gain(mid) >= required_gain:
                hi = mid
            else:
                lo = mid
        return hi
    raise ValueError(f"unknown gain mode {mode!r}")
