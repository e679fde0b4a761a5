import math

import numpy as np
import pytest

from wsnlife.gainmodels import (
    MU,
    ApproximationDomainError,
    ClusterGeometry,
    UnreachableGainError,
    PhyParams,
    cb_gain_bound,
    cb_gain_monte_carlo,
    ct_gain_closed_form,
    ct_gain_monte_carlo,
    invert_cluster_size,
)

from test_numerics import hyp2f1_direct


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


class TestCtMonteCarlo:
    def test_single_node(self):
        phy = PhyParams()
        est = ct_gain_monte_carlo(ClusterGeometry(n=1, r_disk=10.0, dist=1000.0), phy, 10, seed=1)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_colocated_relays_perfect_decoding(self):
        phy = PhyParams()
        geom = ClusterGeometry(n=10, r_disk=1e-6, dist=1000.0)
        est = ct_gain_monte_carlo(geom, phy, 20000, seed=5)
        # relays essentially at the source: gain -> N up to fading noise
        assert est.value == pytest.approx(10.0, abs=5.0 * est.stderr)

    def test_seed_determinism(self):
        phy = PhyParams()
        geom = ClusterGeometry(n=10, r_disk=50.0, dist=1000.0)
        a = ct_gain_monte_carlo(geom, phy, 2000, seed=9)
        b = ct_gain_monte_carlo(geom, phy, 2000, seed=9)
        assert a.value == b.value and a.stderr == b.stderr

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_agrees_with_closed_form(self, n):
        # far-field / good-channel regime, > 20 points over the grid
        phy = PhyParams()
        for i, r in enumerate((20.0, 35.0, 50.0, 65.0, 80.0, 95.0, 100.0)):
            geom = ClusterGeometry(n=n, r_disk=r, dist=max(1000.0, 10.0 * r))
            cf = ct_gain_closed_form(geom, phy).value
            mc = ct_gain_monte_carlo(geom, phy, 2000, seed=100 + i)
            assert abs(cf - mc.value) <= 3.0 * mc.stderr, (n, r)


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
        # density chosen so the doubling search lands on n = 1024 at
        # z = 0.9995, where (1-z)^L underflows
        base = PhyParams()
        density = 1024 / (math.pi * math.sqrt(0.9995 * 4.0 * base.power / base.noise))
        with pytest.raises(UnreachableGainError):
            invert_cluster_size(1e4, "ct", PhyParams(density=density))

    def test_ct_is_minimal(self):
        phy = PhyParams(density=0.05)
        required = 4.0
        n = invert_cluster_size(required, "ct", phy)

        def gain(k):
            r = math.sqrt(k / (phy.density * math.pi))
            return ct_gain_closed_form(ClusterGeometry(n=k, r_disk=r, dist=2 * r + 1), phy).value

        assert gain(n) >= required
        assert n == 1 or gain(n - 1) < required
