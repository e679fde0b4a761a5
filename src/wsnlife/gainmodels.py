"""Gain models for collaborative beamforming (CB) and cooperative
transmission (CT): closed forms, Monte Carlo validators, and the
inversion from a required gain to a cluster size.
"""

from __future__ import annotations

import math
import sys
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
    "cb_gain_bound",
    "cb_gain_monte_carlo",
    "ct_azimuth_average",
    "ct_gain_closed_form",
    "ct_gain_exact",
    "ct_gain_monte_carlo",
    "invert_cluster_size",
    "invert_cluster_sizes",
]

# Constant in the CB directivity lower bound N / (1 + MU * N * lambda / R).
MU = 0.09332

# Radius draws per chunk of the CT Monte Carlo (trials x relays).  The
# draws and the kernel's five work arrays, 128 KiB each at 2^14 draws,
# are allocated once per call and stay in a 2 MiB L2 cache.  Medians of
# 10 interleaved runs of the analytic bench's 12-radius sweep (n = 10,
# 10^5 trials a radius) took 0.224 s at 2^13, 0.202 s at 2^14 and
# 0.228 s at 2^15 (2-vCPU x86-64 Xeon, Linux, numpy 2.4).  The radii are
# one stream of uniforms in trial order, so the chunk size changes only
# the summation order of the result.
_CT_DRAWS_PER_CHUNK = 2**14

# Most terms the series of the CT azimuth average may take; it raises
# ConvergenceError rather than return a truncated sum.
_AZIMUTH_MAX_TERMS = 4096
# Bound on the series' truncation error (its sum is at least 1).
_AZIMUTH_TAIL_TOL = 2.0**-53

# Node pairs per batch of the CB Monte Carlo (trials x N(N-1)/2),
# which bounds its working memory.
_CB_PAIRS_PER_BATCH = 2**16

# Largest cluster size the CT search in invert_cluster_sizes tries.
_N_MAX = 10**6


class ApproximationDomainError(ValueError):
    """Inputs fall outside the validity region of a closed-form
    approximation."""


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
        # Measured exponents lie between 2 and about 6 (Rappaport,
        # Wireless Communications, 2nd ed., Table 4.2).  At most 8, a
        # distance ratio below 2^128 raised to alpha stays a float.
        if not self.alpha <= 8:
            raise ValueError(f"path-loss exponent must be at most 8, got {self.alpha:g}")
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


class _Moments:
    """Count, mean and centred sum of squares of a sample that arrives
    in chunks, merged chunk by chunk with the pairwise update of Chan,
    Golub & LeVeque (1983).  Values are held relative to the first one,
    so a sample whose spread is tiny next to its mean keeps its
    digits."""

    def __init__(self):
        self.count, self.shift, self.mean, self.m2 = 0, 0.0, 0.0, 0.0

    def add(self, values: np.ndarray) -> None:
        """Merge one chunk; overwrites values."""
        if not self.count:
            self.shift = float(values[0])
        values -= self.shift
        count = values.size
        mean = float(values.sum()) / count
        values -= mean
        values *= values
        total = self.count + count
        delta = mean - self.mean
        self.mean += delta * count / total
        self.m2 += float(values.sum()) + delta * delta * (self.count * count / total)
        self.count = total

    def estimate(self) -> GainEstimate:
        """The mean and its standard error."""
        stderr = 0.0
        if self.count > 1:
            stderr = math.sqrt(self.m2 / (self.count - 1) / self.count)
        return GainEstimate(value=self.shift + self.mean, stderr=stderr)


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
    moments = _Moments()
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
        moments.add(1.0 / (1.0 / n + (2.0 / n**2) * cross))
    return moments.estimate()


def _good_channel_arg(r_disk: float, phy: PhyParams) -> float:
    """noise*R^alpha/(4P), inf where R^alpha overflows: far past the
    approximation's domain, z <= 1."""
    try:
        return phy.noise * r_disk**phy.alpha / (4.0 * phy.power)
    except OverflowError:
        return math.inf


def _ct_closed_form(n, z, phy: PhyParams):
    """1 + (n-1) * 2F1(2/alpha, -L; (alpha+2)/alpha; z), elementwise
    over arrays n and z with z <= 1 (floats for an int and a float)."""
    args = Hyp2F1Args(a=2.0 / phy.alpha, L=phy.packet_len, c=(phy.alpha + 2.0) / phy.alpha, z=z)
    return 1.0 + (n - 1) * hyp2f1_terminating(args)


def ct_gain_closed_form(geom: ClusterGeometry, phy: PhyParams) -> GainEstimate:
    """Closed-form average CT energy gain
    1 + (n-1) * 2F1(2/alpha, -L; (alpha+2)/alpha; noise*R^alpha/(4P)).
    """
    z = _good_channel_arg(geom.r_disk, phy)
    if z > 1.0:
        raise ApproximationDomainError(
            f"noise*R^alpha/(4P) = {z:.4g} > 1: good-channel approximation invalid"
        )
    return GainEstimate(value=_ct_closed_form(geom.n, z, phy))


def _azimuth_series(a2: np.ndarray, alpha: float, total: np.ndarray, term: np.ndarray,
                    step: np.ndarray) -> np.ndarray:
    """2F1(1-alpha/2, 1-alpha/2; 1; a2) summed into total, with term
    and step as scratch of a2's shape (see ct_azimuth_average)."""
    b = 1.0 - 0.5 * alpha
    top = float(a2.max())
    # a term at the largest a2 bounds that term at every a2
    top_term = 1.0
    total.fill(1.0)
    for k in range(_AZIMUTH_MAX_TERMS):
        ratio = ((b + k) / (k + 1)) ** 2
        if ratio == 0.0:  # b = -k
            break
        # term_k = term_{k-1} * (ratio * a2), with term_{-1} = 1
        if k:
            np.multiply(a2, ratio, out=step)
            term *= step
        else:
            np.multiply(a2, ratio, out=term)
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
    return total


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
    series = _azimuth_series(a2, alpha, *(np.empty_like(a2) for _ in range(3)))
    # exp/log: numpy's power is several times slower at negative exponents
    return np.exp((1.0 - alpha) * np.log(1.0 - a2)) * series


def _ct_relay_gain(u, geom: ClusterGeometry, phy: PhyParams, work=None) -> np.ndarray:
    """A(r/D) * p(r) for a relay at radius r = R sqrt(u): its gain over
    the direct link, averaged exactly over azimuth and over fading
    (E|h|^2 = 1), where p(r) = b(r)^L is the exact BPSK packet-success
    probability of the source-relay hop with bit success b(r).

    With one exponential per relay: exp(L log b(r) + (1-alpha) log(1-a^2))
    times the series of ct_azimuth_average at a^2 = (r/D)^2.  work, if
    given, is four arrays of u's shape that hold every intermediate, so
    the call allocates nothing; the result is the first of them.
    """
    u = np.asarray(u, dtype=float)
    out, a2, series, log_far = work or [np.empty_like(u) for _ in range(4)]
    alpha = phy.alpha
    np.multiply(u, (geom.r_disk / geom.dist) ** 2, out=a2)
    _azimuth_series(a2, alpha, series, log_far, out)
    np.subtract(1.0, a2, out=log_far)
    np.log(log_far, out=log_far)
    log_far *= 1.0 - alpha
    # log b(r), b(r) = 1/2 + 1/2 / sqrt(1 + (noise R^alpha / P) u^(alpha/2))
    np.power(u, 0.5 * alpha, out=out)
    out *= phy.noise * geom.r_disk**alpha / phy.power
    out += 1.0
    np.sqrt(out, out=out)
    np.divide(0.5, out, out=out)
    out += 0.5
    np.log(out, out=out)
    out *= phy.packet_len
    out += log_far
    np.exp(out, out=out)
    out *= series
    return out


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
    relays = n - 1
    chunk = min(trials, max(1, _CT_DRAWS_PER_CHUNK // relays))
    # draws fill one row per trial, in stream order; the kernel runs on
    # one row per relay, so each trial's relays add up in order
    draws = np.empty((chunk, relays))
    work = [np.empty((relays, chunk)) for _ in range(5)]
    gains = np.empty(chunk)
    moments = _Moments()
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        rng.random(out=draws[:count])
        u, *rest = (w[:, :count] for w in work)
        np.copyto(u, draws[:count].T)
        relay = _ct_relay_gain(u, geom, phy, rest)
        g = gains[:count]
        np.add.reduce(relay, axis=0, out=g)
        g += 1.0
        moments.add(g)
    return moments.estimate()


def _ct_size_gains(sizes: np.ndarray, phy: PhyParams) -> np.ndarray:
    """Closed-form CT gain of each cluster size, with the disk radius
    tied to the size through the node density: inf past the closed
    form's domain (z > 1, or (1-z)^L below the float range's floor) and
    above _N_MAX, so the gain is nondecreasing in the size."""
    gains = np.full(sizes.shape, math.inf)
    z = np.full(sizes.shape, math.nan)
    for i, n in enumerate(sizes.tolist()):
        r_disk = math.sqrt(n / (phy.density * math.pi))
        if n > _N_MAX or not 0.0 < r_disk < math.inf:
            continue
        zi = _good_channel_arg(r_disk, phy)
        if zi <= 1.0 and (1.0 - zi) ** phy.packet_len >= sys.float_info.min:
            z[i] = zi
    inside = ~np.isnan(z)
    # the closed form is the far-field limit and ignores dist
    gains[inside] = _ct_closed_form(sizes[inside], z[inside], phy)
    return gains


def _ct_cluster_sizes(targets: np.ndarray, phy: PhyParams) -> np.ndarray:
    """For each target above 1, the smallest cluster size whose
    closed-form CT gain reaches it, or 0 if no size does.

    All targets bisect the sizes 2 .. _N_MAX + 1 in lockstep, and each
    step evaluates the closed form once for the distinct sizes it asks
    for.  The gain is nondecreasing in the size and inf at _N_MAX + 1,
    so each bisection ends on the first size that reaches its target,
    and a size whose gain is inf stands for no size at all.
    """

    def gain(sizes: np.ndarray) -> np.ndarray:
        distinct, where = np.unique(sizes, return_inverse=True)
        return _ct_size_gains(distinct, phy)[where]

    lo = np.full(targets.shape, 2, np.int64)
    hi = np.full(targets.shape, _N_MAX + 1, np.int64)
    active = np.arange(targets.size)
    while active.size:
        mid = (lo[active] + hi[active]) // 2
        below = gain(mid) < targets[active]
        lo[active[below]] = mid[below] + 1
        hi[active[~below]] = mid[~below]
        active = active[lo[active] < hi[active]]
    return np.where(gain(lo) == math.inf, 0, lo)


def _closed_form_size(required_gain: float, mode: str, phy: PhyParams) -> int:
    """The ideal or cb size for one required gain."""
    if required_gain == 1.0:
        return 1
    if mode == "ideal":
        return math.ceil(required_gain)
    c0 = required_gain
    c1 = MU * phy.wavelength * math.sqrt(phy.density * math.pi)
    n = 0.5 * (c0 * (2.0 + c0 * c1**2) + c0**1.5 * c1 * math.sqrt(4.0 + c0 * c1**2))
    return max(1, math.ceil(n))


def invert_cluster_sizes(required_gains, mode: str, phy: PhyParams) -> list[int]:
    """Smallest cluster size whose gain model reaches each required
    gain, or 0 where no admissible size does.

    ideal: ceil of the gain (density-limit D_av/N -> 1).
    cb: closed-form inversion of the directivity lower bound.
    ct: search on the closed-form CT gain with the disk radius tied
    to the size through the node density, every target in one
    lockstep batch.  With a = 2/alpha and z(n) = c * n^(1/a), the gain
    1 + (n-1) * 2F1(a, -L; a+1; z(n)) equals
    1 + ((n-1)/n) * a * c^-a * integral_0^z(n) s^(a-1) (1-s)^L ds, so it
    rises strictly with n up to the end of the closed form's domain
    (z <= 1 and (1-z)^L above the float range's floor).  A size past
    that end or above _N_MAX counts as unreachable.
    """
    if mode not in ("ideal", "cb", "ct"):
        raise ValueError(f"unknown gain mode {mode!r}")
    required = [float(g) for g in required_gains]
    if not all(g >= 1.0 for g in required):
        raise ValueError("required gain must be at least 1")
    if mode != "ct":
        return [_closed_form_size(g, mode, phy) for g in required]
    targets = np.array(required)
    sizes = np.ones(targets.shape, np.int64)
    above = targets > 1.0
    if above.any():
        sizes[above] = _ct_cluster_sizes(targets[above], phy)
    return sizes.tolist()


def invert_cluster_size(required_gain: float, mode: str, phy: PhyParams) -> int:
    """Smallest cluster size whose gain model reaches required_gain, or
    0 where no admissible size does (see invert_cluster_sizes)."""
    return invert_cluster_sizes([required_gain], mode, phy)[0]
