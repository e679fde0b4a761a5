import bisect
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import gainmodels
from wsnlife.gainmodels import (
    MU,
    ApproximationDomainError,
    ClusterGeometry,
    PhyParams,
    cb_gain_bound,
    cb_gain_monte_carlo,
    ct_azimuth_average,
    ct_gain_closed_form,
    ct_gain_exact,
    ct_gain_monte_carlo,
    invert_cluster_size,
    invert_cluster_sizes,
)
from wsnlife.harness import run_gain
from wsnlife.numerics import ConvergenceError

from test_numerics import hyp2f1_direct


class TestPhyParams:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "field", ["power", "noise", "c0", "alpha", "wavelength", "density", "packet_len", "snr_min"]
    )
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            PhyParams(**{field: value})


class TestCbBound:
    def test_zero_wavelength_limit(self):
        phy = PhyParams(wavelength=1e-12)
        geom = ClusterGeometry(n=10, r_disk=1.0, dist=10.0)
        assert cb_gain_bound(geom, phy).value == pytest.approx(10.0, rel=1e-9)

    def test_half_gain_point(self):
        # N * lambda / R = 1/MU makes the denominator exactly 2
        n = 10
        lam = 1.0
        r = MU * n * lam
        phy = PhyParams(wavelength=lam)
        geom = ClusterGeometry(n=n, r_disk=r, dist=10.0 * r)
        assert cb_gain_bound(geom, phy).value == pytest.approx(5.0, rel=1e-12)

    def test_single_node(self):
        phy = PhyParams(wavelength=0.1)
        geom = ClusterGeometry(n=1, r_disk=1.0, dist=10.0)
        assert cb_gain_bound(geom, phy).value == pytest.approx(
            1.0 / (1.0 + 0.09332 * 0.1), rel=1e-12
        )

    def test_monotone_in_n_and_r(self):
        phy = PhyParams(wavelength=0.2)
        vals_n = [
            cb_gain_bound(ClusterGeometry(n=n, r_disk=2.0, dist=50.0), phy).value
            for n in range(1, 40)
        ]
        assert all(b > a for a, b in zip(vals_n, vals_n[1:]))
        vals_r = [
            cb_gain_bound(ClusterGeometry(n=20, r_disk=r, dist=500.0), phy).value
            for r in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b > a for a, b in zip(vals_r, vals_r[1:]))
        assert all(0.0 < v / 20.0 <= 1.0 for v in vals_r)


def cb_grid_reference(geom, phy, trials, seed, n_phi):
    """The former estimator's per-trial directivities: boresight power
    over the compensated |AF|^2 averaged on an n_phi-point azimuth
    grid, from the same draws (n radii, then n angles)."""
    n, r_disk, lam = geom.n, geom.r_disk, phy.wavelength
    rng = np.random.default_rng(seed)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    sin_half = np.sin(phi / 2.0)[:, None]
    half_phi = (phi / 2.0)[:, None]
    values = []
    for _ in range(trials):
        r = r_disk * np.sqrt(rng.random(n))
        psi = rng.random(n) * 2.0 * np.pi
        arg = -(4.0 * np.pi / lam) * sin_half * (r[None, :] * np.sin(psi[None, :] - half_phi))
        pattern = np.abs(np.exp(1j * arg).mean(axis=1)) ** 2
        values.append(1.0 / pattern.mean())
    return np.array(values)


class TestCbMonteCarlo:
    def test_single_antenna(self):
        phy = PhyParams(wavelength=1.0)
        est = cb_gain_monte_carlo(ClusterGeometry(n=1, r_disk=1.0, dist=10.0), phy, 10, seed=1)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_seed_determinism(self):
        phy = PhyParams(wavelength=1.0)
        geom = ClusterGeometry(n=16, r_disk=2.0, dist=100.0)
        a = cb_gain_monte_carlo(geom, phy, 50, seed=42)
        b = cb_gain_monte_carlo(geom, phy, 50, seed=42)
        assert a.value == b.value and a.stderr == b.stderr

    def test_bound_is_tight_from_below(self):
        # moderate size here; the full-size check lives in the acceptance suite
        phy = PhyParams(wavelength=1.0)
        geom = ClusterGeometry(n=40, r_disk=10.0, dist=1000.0)
        est = cb_gain_monte_carlo(geom, phy, 50, seed=3)
        bound = cb_gain_bound(geom, phy).value
        assert est.value >= 0.95 * bound

    def test_matches_grid_where_grid_resolves(self):
        # k0 * 2R = 126, far below the 2,048-point grid
        phy = PhyParams(wavelength=1.0)
        geom = ClusterGeometry(n=100, r_disk=10.0, dist=1000.0)
        est = cb_gain_monte_carlo(geom, phy, 30, seed=11)
        ref = cb_grid_reference(geom, phy, 30, seed=11, n_phi=2048)
        assert est.value == pytest.approx(ref.mean(), rel=1e-12)

    def test_fine_grid_agrees_and_coarse_grid_aliases(self):
        # k0 * 2R = 6,283: a 2,048-point grid aliases, 16,384 points do not
        phy = PhyParams(wavelength=0.1)
        geom = ClusterGeometry(n=10, r_disk=50.0, dist=1000.0)
        est = cb_gain_monte_carlo(geom, phy, 20, seed=13)
        fine = cb_grid_reference(geom, phy, 20, seed=13, n_phi=16384)
        coarse = cb_grid_reference(geom, phy, 20, seed=13, n_phi=2048)
        assert est.value == pytest.approx(fine.mean(), rel=1e-12)
        # the aliasing error of single placements; over 20 trials it
        # partly averages out
        assert np.abs(coarse / fine - 1.0).max() > 1e-3

    def test_batches_keep_the_trial_order(self):
        # 1,500 trials at n = 10 span two batches; the draws and the
        # sum stay in trial order (k0 * 2R = 75, so 512 azimuths resolve)
        phy = PhyParams(wavelength=0.5)
        geom = ClusterGeometry(n=10, r_disk=3.0, dist=100.0)
        est = cb_gain_monte_carlo(geom, phy, 1500, seed=17)
        ref = cb_grid_reference(geom, phy, 1500, seed=17, n_phi=512)
        assert est.value == pytest.approx(ref.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(ref.std(ddof=1) / math.sqrt(1500), rel=1e-9)


class TestCtClosedForm:
    def test_single_node(self):
        phy = PhyParams()
        geom = ClusterGeometry(n=1, r_disk=10.0, dist=1000.0)
        assert ct_gain_closed_form(geom, phy).value == 1.0

    def test_noiseless_limit(self):
        phy = PhyParams(noise=1e-300)
        geom = ClusterGeometry(n=10, r_disk=10.0, dist=1000.0)
        assert ct_gain_closed_form(geom, phy).value == pytest.approx(10.0, rel=1e-12)

    def test_domain_guard(self):
        phy = PhyParams(power=1e-9)
        geom = ClusterGeometry(n=5, r_disk=50.0, dist=1000.0)
        with pytest.raises(ApproximationDomainError):
            ct_gain_closed_form(geom, phy)

    def test_bounds_and_monotonicity(self):
        phy = PhyParams()
        radii = (10, 30, 50, 70, 90, 100, 110, 120)
        vals = [
            ct_gain_closed_form(ClusterGeometry(n=10, r_disk=r, dist=1000.0), phy).value
            for r in radii
        ]
        assert all(1.0 <= v <= 10.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # exact rational sum of the series at the same float argument
        for r, v in zip(radii, vals):
            z = phy.noise * float(r) ** phy.alpha / (4.0 * phy.power)
            exact = 1.0 + 9.0 * hyp2f1_direct(0.5, phy.packet_len, 1.5, z)
            assert v == pytest.approx(exact, rel=1e-12), r
        assert vals[-2] == pytest.approx(2.3134358906745, rel=1e-12)
        assert vals[-1] == pytest.approx(2.1036509914696, rel=1e-12)
        powers = [
            ct_gain_closed_form(
                ClusterGeometry(n=10, r_disk=60.0, dist=1000.0), PhyParams(power=p)
            ).value
            for p in (0.005, 0.01, 0.02, 0.04)
        ]
        assert all(b > a for a, b in zip(powers, powers[1:]))


def ct_full_reference(geom, phy, trials, seed):
    """The former estimator: each trial draws every relay's radius,
    azimuth and exponential(1) fading and sums (D/d)^alpha |h|^2 p(r).
    Returns (mean, stderr)."""
    n, r_disk, dist = geom.n, geom.r_disk, geom.dist
    p, s2, alpha = phy.power, phy.noise, phy.alpha
    rng = np.random.default_rng(seed)
    values = []
    for start in range(0, trials, 16384):
        count = min(16384, trials - start)
        r = r_disk * np.sqrt(rng.random((count, n - 1)))
        psi = rng.random((count, n - 1)) * 2.0 * np.pi
        h2 = rng.exponential(1.0, (count, n - 1))
        d = np.sqrt(dist**2 + r**2 - 2.0 * r * dist * np.cos(psi))
        p_suc = (0.5 + 0.5 * np.sqrt(p / (p + s2 * r**alpha))) ** phy.packet_len
        values.append(1.0 + (dist**alpha * d ** (-alpha) * h2 * p_suc).sum(axis=1))
    values = np.concatenate(values)
    return values.mean(), values.std(ddof=1) / math.sqrt(trials)


def azimuth_trapezoid(a, alpha, points=8192):
    # the periodic trapezoid rule converges like a^points here
    psi = np.arange(points) * (2.0 * np.pi / points)
    return np.mean((1.0 + a * a - 2.0 * a * np.cos(psi)) ** (-alpha / 2.0))


class TestCtAzimuthAverage:
    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0, 5.5])
    @pytest.mark.parametrize("a", [0.04, 0.5, 0.99])
    def test_matches_trapezoid(self, alpha, a):
        value = ct_azimuth_average(np.array([a * a]), alpha)[0]
        assert value == pytest.approx(azimuth_trapezoid(a, alpha), rel=1e-11)

    def test_alpha_four_closed_form(self):
        a2 = np.linspace(0.0, 0.98, 50)
        expected = (1.0 + a2) / (1.0 - a2) ** 3
        np.testing.assert_allclose(ct_azimuth_average(a2, 4.0), expected, rtol=1e-14)

    def test_elementwise_under_the_largest_argument(self):
        # the stopping rule is taken at the largest a^2 of the array
        a2 = np.array([0.0, 0.01, 0.3, 0.9])
        joint = ct_azimuth_average(a2, 3.0)
        alone = [ct_azimuth_average(np.array([x]), 3.0)[0] for x in a2]
        np.testing.assert_allclose(joint, alone, rtol=1e-15)

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError):
            ct_azimuth_average(np.array([0.1, 0.9999]), 3.0)

    def test_even_alpha_terminates_at_any_argument(self):
        value = ct_azimuth_average(np.array([0.9999]), 6.0)[0]
        assert value == pytest.approx((1.0 + 4 * 0.9999 + 0.9999**2) / 1e-4**5, rel=1e-9)


def ct_simpson_alpha4(geom, phy, points=20001):
    """Composite Simpson in r of (2r/R^2) A(r/D) p(r) with the alpha = 4
    azimuth average (1+a^2)/(1-a^2)^3 and the BPSK success written out."""
    r = np.linspace(0.0, geom.r_disk, points)
    a2 = (r / geom.dist) ** 2
    p_suc = (0.5 + 0.5 * np.sqrt(phy.power / (phy.power + phy.noise * r**4))) ** phy.packet_len
    f = 2.0 * r / geom.r_disk**2 * (1.0 + a2) / (1.0 - a2) ** 3 * p_suc
    weights = np.ones(points)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    mean = (r[1] - r[0]) / 3.0 * (weights * f).sum()
    return 1.0 + (geom.n - 1) * mean


class TestCtExact:
    def test_single_node(self):
        geom = ClusterGeometry(n=1, r_disk=10.0, dist=1000.0)
        assert ct_gain_exact(geom, PhyParams()).value == 1.0

    @pytest.mark.parametrize("r, expected", [(40.0, 8.431829), (70.0, 4.329299), (120.0, 2.134633)])
    def test_matches_simpson(self, r, expected):
        phy = PhyParams()
        geom = ClusterGeometry(n=10, r_disk=r, dist=1000.0)
        value = ct_gain_exact(geom, phy).value
        assert value == pytest.approx(ct_simpson_alpha4(geom, phy), rel=1e-8)
        assert value == pytest.approx(expected, abs=5e-7)

    def test_closed_form_bias_is_pinned(self):
        # far field and good channel together; the largest is 2.02% at 70 m
        phy = PhyParams()
        for r in range(10, 121, 10):
            geom = ClusterGeometry(n=10, r_disk=float(r), dist=1000.0)
            exact = ct_gain_exact(geom, phy).value
            cf = ct_gain_closed_form(geom, phy).value
            assert abs(cf - exact) / exact <= 0.021, r


class TestCtMonteCarlo:
    def test_single_node(self):
        phy = PhyParams()
        est = ct_gain_monte_carlo(ClusterGeometry(n=1, r_disk=10.0, dist=1000.0), phy, 10, seed=1)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_colocated_relays_perfect_decoding(self):
        phy = PhyParams()
        geom = ClusterGeometry(n=10, r_disk=1e-6, dist=1000.0)
        est = ct_gain_monte_carlo(geom, phy, 20000, seed=5)
        # relays at the source: gain N, with no fading noise left
        assert est.value == 10.0 and est.stderr == 0.0

    def test_seed_determinism(self):
        phy = PhyParams()
        geom = ClusterGeometry(n=10, r_disk=50.0, dist=1000.0)
        a = ct_gain_monte_carlo(geom, phy, 2000, seed=9)
        b = ct_gain_monte_carlo(geom, phy, 2000, seed=9)
        assert a.value == b.value and a.stderr == b.stderr

    def test_chunks_keep_the_trial_order(self, monkeypatch):
        phy = PhyParams(alpha=3.0)
        geom = ClusterGeometry(n=7, r_disk=60.0, dist=400.0)
        whole = ct_gain_monte_carlo(geom, phy, 3000, seed=21)
        monkeypatch.setattr(gainmodels, "_CT_DRAWS_PER_CHUNK", 6 * 7)
        chunked = ct_gain_monte_carlo(geom, phy, 3000, seed=21)
        assert chunked.value == pytest.approx(whole.value, rel=1e-13)
        assert chunked.stderr == pytest.approx(whole.stderr, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r, seed", [(0.05, 0), (0.1, 0), (0.5, 3), (10.0, 3)])
    def test_stderr_matches_two_pass(self, r, seed):
        # Spreads down to 1e-9 of the mean, where a sum of squares less
        # T * mean^2 cancels.  The reference takes each trial's gain from
        # the same draws and kernel (at alpha = 4 the azimuth series
        # terminates, so no chunk's largest draw changes a value), then
        # math.fsum over two passes.
        phy = PhyParams()
        geom = ClusterGeometry(n=10, r_disk=r, dist=1000.0)
        trials = 10**5
        est = ct_gain_monte_carlo(geom, phy, trials, seed)
        u = np.random.default_rng(seed).random((trials, geom.n - 1))
        relay = gainmodels._ct_relay_gain(np.ascontiguousarray(u.T), geom, phy)
        gains = (1.0 + relay.sum(axis=0)).tolist()
        mean = math.fsum(gains) / trials
        var = math.fsum((g - mean) ** 2 for g in gains) / (trials - 1)
        assert est.value == pytest.approx(mean, rel=4e-16, abs=0.0)
        assert est.stderr == pytest.approx(math.sqrt(var / trials), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("packet_len", [1, 100, 200])
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("r, dist", [(10.0, 1000.0), (60.0, 400.0), (120.0, 1000.0), (5.0, 6.0)])
    def test_relay_gain_takes_one_exponential(self, packet_len, alpha, r, dist):
        # exp(x1 + x2) * S against A * p = exp(x2) * S * exp(x1): they
        # differ by the rounding of x1 + x2, a relative |x1 + x2| * 2^-53,
        # and a few roundings of the products and exponentials.
        phy = PhyParams(alpha=alpha, packet_len=packet_len)
        geom = ClusterGeometry(n=5, r_disk=r, dist=dist)
        u = np.linspace(0.0, 1.0, 2001)
        a2 = (r / dist) ** 2 * u
        bit_ok = 0.5 + 0.5 / np.sqrt(1.0 + phy.noise * r**alpha / phy.power * u ** (alpha / 2))
        log_p = packet_len * np.log(bit_ok)
        ref = ct_azimuth_average(a2, alpha) * np.exp(log_p)
        exponent = np.abs(log_p + (1.0 - alpha) * np.log(1.0 - a2))
        got = gainmodels._ct_relay_gain(u, geom, phy)
        assert np.all(np.abs(got - ref) <= 4.0 * (1.0 + exponent) * np.spacing(ref))

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_agrees_with_exact(self, n):
        phy = PhyParams()
        for i, r in enumerate((20.0, 35.0, 50.0, 65.0, 80.0, 95.0, 100.0)):
            geom = ClusterGeometry(n=n, r_disk=r, dist=max(1000.0, 10.0 * r))
            exact = ct_gain_exact(geom, phy).value
            mc = ct_gain_monte_carlo(geom, phy, 2000, seed=100 + i)
            assert abs(exact - mc.value) <= 3.0 * mc.stderr, (n, r)

    def test_sweep_agrees_with_exact(self):
        # the 12 radii of the bench's CT sweep, at the CLI's default seed
        phy = PhyParams()
        radii = tuple(float(r) for r in range(10, 121, 10))
        table = run_gain(phy, "ct", n=10, dist=1000.0, radii=radii, trials=10**5, seed=0)
        for row in table.rows:
            exact = ct_gain_exact(ClusterGeometry(n=10, r_disk=row[2], dist=1000.0), phy).value
            assert abs(row[5] - exact) <= 3.0 * row[6], row[2]

    @pytest.mark.parametrize("r", [40.0, 100.0])
    def test_matches_full_simulation(self, r):
        # the same mean as drawing azimuth and fading too, within the
        # two estimates' joint 3 sigma, and both at the exact average
        phy = PhyParams()
        geom = ClusterGeometry(n=10, r_disk=r, dist=1000.0)
        ref, ref_err = ct_full_reference(geom, phy, 10**6, seed=31)
        est = ct_gain_monte_carlo(geom, phy, 10**6, seed=32)
        assert abs(ref - est.value) <= 3.0 * math.hypot(ref_err, est.stderr)
        assert abs(ref - ct_gain_exact(geom, phy).value) <= 3.0 * ref_err
        assert est.stderr < ref_err


class TestInvertClusterSize:
    def test_unit_gain(self):
        phy = PhyParams()
        for mode in ("ideal", "cb", "ct"):
            assert invert_cluster_size(1.0, mode, phy) == 1

    def test_ideal_ceil(self):
        phy = PhyParams()
        assert invert_cluster_size(5.0625, "ideal", phy) == 6
        assert invert_cluster_size(16.0, "ideal", phy) == 16

    def test_cb_degenerates_without_wavelength(self):
        phy = PhyParams(wavelength=1e-15)
        assert invert_cluster_size(7.3, "cb", phy) == 8

    def test_cb_matches_brute_force(self):
        phy = PhyParams(wavelength=0.1, density=1.0)
        required = 16.0
        # brute-force oracle: smallest N whose bound with R tied to the
        # density reaches the required gain
        oracle = None
        for n in range(1, 10**4):
            r = math.sqrt(n / (phy.density * math.pi))
            bound = n / (1.0 + MU * n * phy.wavelength / r)
            if bound >= required:
                oracle = n
                break
        got = invert_cluster_size(required, "cb", phy)
        assert got == oracle

    def test_ideal_round_trip(self):
        phy = PhyParams()
        for c0 in (1.5, 2.0, 3.7, 9.01):
            n = invert_cluster_size(c0, "ideal", phy)
            assert n >= c0
            if c0 != int(c0):
                assert n - 1 < c0

    def test_ct_underflow_band_is_unreachable(self):
        # density chosen so n = 1024 sits at z = 0.9995, where (1-z)^L
        # underflows, and every smaller size falls short of the target
        base = PhyParams()
        density = 1024 / (math.pi * math.sqrt(0.9995 * 4.0 * base.power / base.noise))
        assert invert_cluster_size(1e4, "ct", PhyParams(density=density)) == 0

    @pytest.mark.parametrize(
        "required, mode, message",
        [
            (0.5, "ct", "at least 1"),
            (math.nan, "ideal", "at least 1"),
            (1.0, "bogus", "unknown gain mode"),
            (4.0, "bogus", "unknown gain mode"),
        ],
    )
    def test_rejects_bad_input(self, required, mode, message):
        with pytest.raises(ValueError, match=message):
            invert_cluster_size(required, mode, PhyParams())

    def test_ct_is_minimal(self):
        short = PhyParams(packet_len=1)
        last = 62831  # the largest size with z <= 1 at density 1
        with pytest.raises(ApproximationDomainError):
            ct_size_gain(last + 1, short)
        # a target between the gains at 2^15 and at the domain's end,
        # which lies below 2^16 = 65,536
        midway = 0.5 * (ct_size_gain(2**15, short) + ct_size_gain(last, short))
        for phy, required in ((PhyParams(density=0.05), 4.0), (short, midway)):
            n = invert_cluster_size(required, "ct", phy)
            assert ct_size_gain(n, phy) >= required
            assert n == 1 or ct_size_gain(n - 1, phy) < required
        assert invert_cluster_size(math.nextafter(ct_size_gain(last, short), math.inf), "ct", short) == 0

    def test_ct_above_n_max_is_unreachable(self):
        # at density 20 the domain runs to n = 1,256,637, past _N_MAX
        phy = PhyParams(density=20.0)
        top = ct_size_gain(gainmodels._N_MAX, phy)
        assert invert_cluster_size(top, "ct", phy) == gainmodels._N_MAX
        assert invert_cluster_size(math.nextafter(top, math.inf), "ct", phy) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        packet_len=st.integers(1, 200),
        alpha=st.floats(2.0, 6.0),
        density=st.sampled_from([0.01, 0.05, 1.0, 20.0]),
        position=st.floats(0.0, 1.0),
    )
    def test_ct_gain_rises_with_n(self, packet_len, alpha, density, position):
        # The CT search bisects on this.  Up to the domain's end the gain
        # rises strictly; past it (z > 1, or (1-z)^L underflows) every
        # larger size is out too.  Sizes are those the search tries, up
        # to _N_MAX: from ~1e8 on, rounding hides the O(1/n^2) rise near
        # the domain's end.
        phy = PhyParams(alpha=alpha, density=density, packet_len=packet_len)
        z_one = density * math.pi * (4.0 * phy.power / phy.noise) ** (2.0 / alpha)
        last = min(gainmodels._N_MAX, math.floor(z_one))
        start = max(1, round(last**position))
        sizes = sorted({start, start + 1, start + 2, max(1, last - 2), max(1, last - 1), last})
        gains = []
        for n in sizes:
            try:
                gains.append(ct_size_gain(n, phy))
            except ValueError:
                gains.append(math.inf)
        assert all(a < b or a == b == math.inf for a, b in zip(gains, gains[1:])), (sizes, gains)


def scalar_search_gain(phy):
    """The scalar search's gain(n), memoised for one PhyParams."""

    @functools.cache
    def gain(n):
        # nondecreasing in n: inf past the domain and above _N_MAX
        if n > gainmodels._N_MAX:
            return math.inf
        geom = ClusterGeometry(n=n, r_disk=math.sqrt(n / (phy.density * math.pi)), dist=math.inf)
        try:
            return ct_gain_closed_form(geom, phy).value
        except ValueError:  # z > 1, or (1-z)^L underflows
            return math.inf

    return gain


def ct_size_scalar_search(required_gain, gain):
    """Reference: the scalar CT search the lockstep one replaced, one
    closed-form call per size, a doubling bracket and then bisection
    over it.  Returns 0 where no size is reachable."""
    if required_gain == 1.0:
        return 1
    lo, hi = 1, 2
    while gain(hi) < required_gain:
        lo, hi = hi, 2 * hi
    n = lo + 1 + bisect.bisect_left(range(lo + 1, hi + 1), required_gain, key=gain)
    return 0 if gain(n) == math.inf else n


class TestCtSizesLockstep:
    @pytest.mark.parametrize("density", [0.05, 1.0, 20.0])
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("packet_len", [1, 2, 10, 100, 200])
    def test_matches_scalar_search(self, packet_len, alpha, density):
        phy = PhyParams(alpha=alpha, density=density, packet_len=packet_len)
        # the rings' targets on disks of b0/a0 = 2, 6, 10, 14 at 100 rings
        targets = [max(b0 * k / 100, 1.0) ** alpha for b0 in (2, 6, 10, 14) for k in range(1, 101)]
        rng = np.random.default_rng([packet_len, int(alpha), int(20 * density)])
        targets += (1.0 + (1e6 - 1.0) * rng.random(20)).tolist()
        gain = scalar_search_gain(phy)
        top = gain(gainmodels._N_MAX)
        if top < math.inf:
            targets += [top, math.nextafter(top, math.inf), top * (1.0 + 1e-9)]
        # exactly on the gain of a power of two, and one float on either
        # side of it
        for step in (gain(2), gain(2**5), gain(2**11)):
            if step < math.inf:
                targets += [math.nextafter(step, 0.0), step, math.nextafter(step, math.inf)]
        targets.append(1.0)
        expected = [ct_size_scalar_search(t, gain) for t in targets]
        assert invert_cluster_sizes(targets, "ct", phy) == expected

    def test_every_outcome_is_exercised(self):
        # the sweep above meets size 1, _N_MAX itself and unreachable
        # targets
        phy = PhyParams(density=20.0)
        top = scalar_search_gain(phy)(gainmodels._N_MAX)
        sizes = invert_cluster_sizes([1.0, 14.0**4, top, math.nextafter(top, math.inf)], "ct", phy)
        assert sizes[0] == 1 and sizes[1] > 1 and sizes[2] == gainmodels._N_MAX and sizes[3] == 0
        assert invert_cluster_sizes([2.0**4, 14.0**4], "ct", PhyParams())[1] == 0

    def test_one_target_form_agrees(self):
        phy = PhyParams(packet_len=200, alpha=3.0)
        targets = [1.0, 2.5, 40.0, 3e3, 1e6]
        sizes = invert_cluster_sizes(targets, "ct", phy)
        assert 0 in sizes
        assert [invert_cluster_size(t, "ct", phy) for t in targets] == sizes

    @pytest.mark.parametrize("mode", ["ideal", "cb"])
    def test_closed_form_modes_match_one_target_form(self, mode):
        phy = PhyParams()
        targets = [1.0, 1.5, 16.0, 5.0625, 1e4]
        assert invert_cluster_sizes(targets, mode, phy) == [
            invert_cluster_size(t, mode, phy) for t in targets
        ]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least 1"):
            invert_cluster_sizes([2.0, math.nan], "ct", PhyParams())
        with pytest.raises(ValueError, match="unknown gain mode"):
            invert_cluster_sizes([2.0], "bogus", PhyParams())
        assert invert_cluster_sizes([], "ct", PhyParams()) == []


def ct_size_gain(n, phy):
    """Closed-form CT gain of an n-node cluster at the node density."""
    r = math.sqrt(n / (phy.density * math.pi))
    return ct_gain_closed_form(ClusterGeometry(n=n, r_disk=r, dist=2 * r + 1), phy).value
