"""Gain models for collaborative beamforming (CB) and cooperative
transmission (CT): closed forms, Monte Carlo validators, and the
inversion from a required gain to a cluster size.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import ConvergenceError, Hyp2F1Args, bessel_j0, hyp2f1_terminating, integrate_1d

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
    "ct_azimuth_average",
    "ct_gain_closed_form",
    "ct_gain_exact",
    "ct_gain_monte_carlo",
    "invert_cluster_size",
]

# Constant in the CB directivity lower bound N / (1 + MU * N * lambda / R).
MU = 0.09332

# Radius draws per chunk of the CT Monte Carlo (trials x relays).  Its
# 64 KiB working arrays stay cache-resident and are reused from the
# heap; at 4,096 trials x 9 relays (295 KB arrays) every temporary was
# a fresh mapping that page-faulted, and the 12-radius analytic sweep
# took 1.6x as long (2-vCPU x86-64 Linux).  The radii are one stream of
# uniforms in trial order, so the chunk size changes only the summation
# order of the result.
_CT_DRAWS_PER_CHUNK = 2**13

# Most terms the series of the CT azimuth average may take; it raises
# ConvergenceError rather than return a truncated sum.
_AZIMUTH_MAX_TERMS = 4096
# Bound on the series' truncation error (its sum is at least 1).
_AZIMUTH_TAIL_TOL = 2.0**-53

# Node pairs per batch of the CB Monte Carlo (trials x N(N-1)/2),
# which bounds its working memory.
_CB_PAIRS_PER_BATCH = 2**16

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
        # written so that NaN fails every check
        inf = math.inf
        if not (0 < self.power < inf and 0 < self.noise < inf and 0 < self.c0 < inf):
            raise ValueError("power, noise and c0 must be positive and finite")
        if not 2 <= self.alpha < inf:
            raise ValueError("path-loss exponent must be at least 2 and finite")
        if not (0 < self.wavelength < inf and 0 < self.density < inf):
            raise ValueError("wavelength and density must be positive and finite")
        if not 1 <= self.packet_len < inf:
            raise ValueError("packet length must be at least 1 symbol and finite")
        if not 0 < self.snr_min < inf:
            raise ValueError("minimum SNR must be positive and finite")

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
        if not 0 < self.r_disk < math.inf:
            raise ValueError(f"disk radius must be positive and finite, got {self.r_disk}")
        if not self.dist > self.r_disk:
            raise ValueError(f"destination must lie outside the cluster disk, got dist {self.dist}")


@dataclass(frozen=True)
class GainEstimate:
    """Scalar energy gain and, for a Monte Carlo estimate, its standard
    error."""

    value: float
    stderr: float = 0.0

    def __post_init__(self):
        if self.value < 0 or self.stderr < 0:
            raise ValueError("gain and stderr must be nonnegative")


def _monte_carlo_estimate(total: float, total_sq: float, trials: int) -> GainEstimate:
    """Mean and its standard error from a sample's sum and sum of
    squares."""
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return GainEstimate(value=mean, stderr=stderr)


def cb_gain_bound(geom: ClusterGeometry, phy: PhyParams) -> GainEstimate:
    """Tight lower bound on the average CB directivity of a random
    n-node disk array: n / (1 + MU * n * wavelength / r_disk)."""
    value = geom.n / (1.0 + MU * geom.n * phy.wavelength / geom.r_disk)
    return GainEstimate(value=value)


def cb_gain_monte_carlo(
    geom: ClusterGeometry, phy: PhyParams, trials: int, seed: int
) -> GainEstimate:
    """Average directivity of random disk arrays from the exact
    azimuth average of the beampattern.

    Each trial draws one placement (radius r_k with density 2r/R^2,
    angle psi_k uniform) and takes boresight power (1 by construction)
    over the azimuth-averaged compensated power
    1/N + (2/N^2) sum_{k<l} cos(k0 (x_k - x_l)) J0(k0 |p_k - p_l|),
    with k0 = 2 pi / wavelength and x_k = r_k cos psi_k (DLMF 10.9.1;
    Ochiai et al., IEEE TSP 2005).  The average is exact, so no
    azimuth grid can alias at large k0 R.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n, r_disk, lam = geom.n, geom.r_disk, phy.wavelength
    if n == 1:
        return GainEstimate(value=1.0, stderr=0.0)
    rng = np.random.default_rng(seed)
    k0 = 2.0 * np.pi / lam
    first, second = np.triu_indices(n, 1)
    batch = max(1, _CB_PAIRS_PER_BATCH // first.size)
    total = 0.0
    total_sq = 0.0
    for start in range(0, trials, batch):
        count = min(batch, trials - start)
        # one row per trial: n radii then n angles, the per-trial order
        u = rng.random((count, 2 * n))
        r = r_disk * np.sqrt(u[:, :n])
        psi = u[:, n:] * 2.0 * np.pi
        x, y = r * np.cos(psi), r * np.sin(psi)
        dx = x[:, first] - x[:, second]
        dist = np.hypot(dx, y[:, first] - y[:, second])
        cross = (np.cos(k0 * dx) * bessel_j0(k0 * dist)).sum(axis=1)
        for power in 1.0 / n + (2.0 / n**2) * cross:
            d = 1.0 / power
            total += d
            total_sq += d * d
    return _monte_carlo_estimate(total, total_sq, trials)


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
    return GainEstimate(value=value)


def ct_azimuth_average(a2, alpha: float) -> np.ndarray:
    """A = (1/2pi) * integral over psi of (1 + a^2 - 2a cos psi)^(-alpha/2),
    the mean of (D/d)^alpha over the azimuth psi of a relay at distance
    r = a*D from the disk center, elementwise in a2 = a^2 in [0, 1).

    A = 2F1(alpha/2, alpha/2; 1; a^2), summed in the Euler form
    (1-a^2)^(1-alpha) * 2F1(1-alpha/2, 1-alpha/2; 1; a^2) (DLMF 15.8.1),
    whose terms are all nonnegative and whose series terminates for
    even alpha: (1+a^2)/(1-a^2)^3 at alpha = 4.  Other alpha sum until
    a tail bound taken at the largest a2 drops below 2^-53, and raise
    ConvergenceError after _AZIMUTH_MAX_TERMS terms.
    """
    a2 = np.asarray(a2, dtype=float)
    b = 1.0 - 0.5 * alpha
    top = float(a2.max())
    # a term at the largest a2 bounds that term at every a2
    top_term = 1.0
    total = np.ones_like(a2)
    term = np.ones_like(a2)
    for k in range(_AZIMUTH_MAX_TERMS):
        ratio = ((b + k) / (k + 1)) ** 2
        if ratio == 0.0:  # b = -k
            break
        term *= ratio * a2
        total += term
        top_term *= ratio * top
        # once k + 2 >= alpha/4, every later term is at most a2 times the
        # one before it, so the tail is at most term * a2 / (1 - a2)
        if 4 * (k + 2) >= alpha and top_term * top / (1.0 - top) <= _AZIMUTH_TAIL_TOL:
            break
    else:
        raise ConvergenceError(
            f"azimuth average at a^2={top:.6g}, alpha={alpha:g} needs more than "
            f"{_AZIMUTH_MAX_TERMS} series terms"
        )
    # exp/log: numpy's power is several times slower at negative exponents
    return np.exp((1.0 - alpha) * np.log(1.0 - a2)) * total


def _ct_relay_gain(u, geom: ClusterGeometry, phy: PhyParams) -> np.ndarray:
    """A(r/D) * p(r) for a relay at radius r = R sqrt(u): its gain over
    the direct link, averaged exactly over azimuth and over fading
    (E|h|^2 = 1), where p(r) is the exact BPSK packet-success
    probability of the source-relay hop."""
    u = np.asarray(u, dtype=float)
    noise_ratio = phy.noise * geom.r_disk**phy.alpha / phy.power
    bit_ok = 0.5 + 0.5 / np.sqrt(1.0 + noise_ratio * u ** (0.5 * phy.alpha))
    p_suc = np.exp(phy.packet_len * np.log(bit_ok))  # bit_ok**L, faster than power
    return ct_azimuth_average((geom.r_disk / geom.dist) ** 2 * u, phy.alpha) * p_suc


def ct_gain_exact(geom: ClusterGeometry, phy: PhyParams) -> GainEstimate:
    """Average CT energy gain with no far-field or good-channel
    approximation: 1 + (n-1) * integral_0^R (2r/R^2) A(r/D) p(r) dr,
    taken over u = r^2/R^2 by adaptive quadrature (the estimand of
    ct_gain_monte_carlo)."""
    mean = integrate_1d(lambda u: float(_ct_relay_gain(u, geom, phy)), 0.0, 1.0)
    return GainEstimate(value=1.0 + (geom.n - 1) * mean)


def ct_gain_monte_carlo(
    geom: ClusterGeometry, phy: PhyParams, trials: int, seed: int
) -> GainEstimate:
    """Average CT energy gain with no far-field or good-channel
    approximation.

    The source sits at the disk center and contributes exactly 1.  Each
    trial draws the n-1 relay radii (r^2 = R^2 u, u uniform, density
    2r/R^2) and adds each relay's gain averaged exactly over azimuth and
    over exponential(1) relay-destination fading, A(r/D) p(r) (see
    _ct_relay_gain): a conditional expectation of the per-trial gain of
    a full draw, with the same mean and a smaller spread.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = geom.n
    if n == 1:
        return GainEstimate(value=1.0, stderr=0.0)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    chunk = max(1, _CT_DRAWS_PER_CHUNK // (n - 1))
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        # one row per relay, so the sum over relays adds whole rows
        u = np.ascontiguousarray(rng.random((count, n - 1)).T)
        gains = 1.0 + _ct_relay_gain(u, geom, phy).sum(axis=0)
        total += gains.sum()
        total_sq += (gains * gains).sum()
    return _monte_carlo_estimate(total, total_sq, trials)


def invert_cluster_size(required_gain: float, mode: str, phy: PhyParams) -> int:
    """Smallest cluster size whose gain model reaches required_gain.

    ideal: ceil of the gain (density-limit D_av/N -> 1).
    cb: closed-form inversion of the directivity lower bound.
    ct: bisection on the closed-form CT gain with the disk radius tied
    to the size through the node density.  With a = 2/alpha and
    z(n) = c * n^(1/a), the gain 1 + (n-1) * 2F1(a, -L; a+1; z(n)) equals
    1 + ((n-1)/n) * a * c^-a * integral_0^z(n) s^(a-1) (1-s)^L ds, so it
    rises strictly with n up to the end of the closed form's domain
    (z <= 1 and (1-z)^L above the float range's floor).  A size past
    that end or above _N_MAX counts as unreachable.
    """
    if mode not in ("ideal", "cb", "ct"):
        raise ValueError(f"unknown gain mode {mode!r}")
    if not required_gain >= 1.0:
        raise ValueError("required gain must be at least 1")
    if required_gain == 1.0:
        return 1
    if mode == "ideal":
        return math.ceil(required_gain)
    if mode == "cb":
        c0 = required_gain
        c1 = MU * phy.wavelength * math.sqrt(phy.density * math.pi)
        n = 0.5 * (c0 * (2.0 + c0 * c1**2) + c0**1.5 * c1 * math.sqrt(4.0 + c0 * c1**2))
        return max(1, math.ceil(n))

    @functools.cache
    def gain(n: int) -> float:
        # nondecreasing in n: inf past the domain and above _N_MAX
        if n > _N_MAX:
            return math.inf
        # the closed form is the far-field limit and ignores dist
        geom = ClusterGeometry(n=n, r_disk=math.sqrt(n / (phy.density * math.pi)), dist=math.inf)
        try:
            return ct_gain_closed_form(geom, phy).value
        except ValueError:  # z > 1, or (1-z)^L underflows
            return math.inf

    lo, hi = 1, 2
    while gain(hi) < required_gain:
        lo, hi = hi, 2 * hi
    n = lo + 1 + bisect.bisect_left(range(lo + 1, hi + 1), required_gain, key=gain)
    if gain(n) == math.inf:
        raise UnreachableGainError(
            f"no cluster of size <= {_N_MAX} inside the CT closed form's domain "
            f"reaches gain {required_gain}"
        )
    return n
