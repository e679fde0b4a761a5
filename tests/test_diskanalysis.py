import pytest

from wsnlife.diskanalysis import (
    BypassProfile,
    DiskScenario,
    cluster_size_for_ring,
    njoint_profile,
    npf,
    optimize_bypass,
    pure_bypass_profile,
    saving_percent,
)


class TestNpf:
    def test_boundary_band(self):
        sc = DiskScenario(b0=2.0, a0=1.0)
        assert npf(1.5, sc) == 1.0
        assert npf(2.0, sc) == 1.0

    def test_two_hop_midpoint(self):
        sc = DiskScenario(b0=2.0, a0=1.0)
        assert npf(1.0, sc) == pytest.approx(3.0, abs=1e-12)

    def test_deep_inner_ring(self):
        sc = DiskScenario(b0=10.0, a0=1.0)
        assert npf(0.1, sc) == pytest.approx(10.0 + 45.0 / 0.1, abs=1e-9)

    def test_rejects_nonpositive_radius(self):
        sc = DiskScenario(b0=2.0, a0=1.0)
        with pytest.raises(ValueError):
            npf(0.0, sc)


class TestClusterSizeForRing:
    def test_inside_hop_range(self):
        sc = DiskScenario(b0=4.0, a0=1.0, mode="ideal")
        assert cluster_size_for_ring(0.5, sc) == 1
        assert cluster_size_for_ring(1.0, sc) == 1

    def test_ideal_alpha4(self):
        sc = DiskScenario(b0=4.0, a0=1.0, mode="ideal")
        assert cluster_size_for_ring(2.0, sc) == 16
        assert cluster_size_for_ring(1.5, sc) == 6  # ceil(1.5^4) = ceil(5.0625)


class TestNjointProfile:
    def test_zero_bypass_recovers_forwarding(self):
        sc = DiskScenario(b0=3.0, a0=1.0)
        rings = sc.rings()
        nj = njoint_profile([0.0] * sc.grid, sc)
        for b, v in zip(rings, nj):
            assert v == pytest.approx(npf(b, sc), abs=1e-12)

    def test_full_bypass_is_cluster_cost(self):
        sc = DiskScenario(b0=3.0, a0=1.0, mode="ideal")
        nj = njoint_profile([1.0] * sc.grid, sc)
        for b, v in zip(sc.rings(), nj):
            assert v == pytest.approx(cluster_size_for_ring(b, sc), abs=1e-12)

    def test_outer_bypass_shields_inner_ring(self):
        # 4-ring reduction of a 2-hop disk: outer band fully bypasses,
        # so the inner rings' n=1 forwarding term vanishes.
        sc = DiskScenario(b0=2.0, a0=1.0, grid=4, mode="ideal")
        p_r = [0.0, 0.0, 1.0, 1.0]
        nj = njoint_profile(p_r, sc)
        # inner rings at 0.5 and 1.0 keep only their own packet
        assert nj[0] == pytest.approx(1.0, abs=1e-12)
        assert nj[1] == pytest.approx(1.0, abs=1e-12)

    def test_wrong_length_rejected(self):
        sc = DiskScenario(b0=2.0, a0=1.0)
        with pytest.raises(ValueError):
            njoint_profile([0.0], sc)


class TestOptimizeBypass:
    def test_single_hop_disk(self):
        sc = DiskScenario(b0=0.8, a0=1.0)
        profile = optimize_bypass(sc)
        assert profile.kappa == pytest.approx(1.0, abs=1e-9)
        assert all(p == 0.0 for p in profile.p_r)
        assert all(v == pytest.approx(1.0) for v in profile.n_joint)

    def test_never_worse_than_forwarding(self):
        # outer rings may individually pay more than forwarding (bypass
        # shields the inner disk), but the peak cost never gets worse
        sc = DiskScenario(b0=4.0, a0=1.0)
        profile = optimize_bypass(sc)
        assert profile.max_n_joint() <= profile.max_n_pf() + 1e-9

    def test_worst_ring_hits_kappa(self):
        sc = DiskScenario(b0=6.0, a0=1.0)
        profile = optimize_bypass(sc)
        assert profile.max_n_joint() <= profile.kappa * (1.0 + 1e-9)
        assert profile.max_n_joint() == pytest.approx(profile.kappa, rel=1e-5)

    def test_monotone_in_disk_size(self):
        maxima = [
            optimize_bypass(DiskScenario(b0=r, a0=1.0)).max_n_joint()
            for r in (2.0, 4.0, 6.0, 8.0, 10.0)
        ]
        assert all(b >= a for a, b in zip(maxima, maxima[1:]))

    def test_no_range_gain_means_no_bypass(self):
        # force trivial clusters: bypassing cannot help, optimizer
        # falls back to pure forwarding
        sc = DiskScenario(b0=3.0, a0=1.0)
        nj = njoint_profile([0.0] * sc.grid, sc, cluster_sizes=[1] * sc.grid)
        profile = optimize_bypass(sc)
        trivial = BypassProfile(
            rings=tuple(sc.rings()),
            p_r=(0.0,) * sc.grid,
            n_pf=tuple(npf(b, sc) for b in sc.rings()),
            n_joint=tuple(nj),
            n_cluster=(1,) * sc.grid,
            kappa=max(nj),
        )
        assert saving_percent(trivial) == pytest.approx(0.0, abs=1e-12)
        # and the real optimizer saves something on a multi-hop disk
        assert saving_percent(profile) > 0.0


class TestPureProfile:
    def test_matches_full_bypass(self):
        sc = DiskScenario(b0=4.0, a0=1.0)
        pure = pure_bypass_profile(sc)
        assert all(p == 1.0 for p in pure.p_r)
        nj = njoint_profile([1.0] * sc.grid, sc)
        assert list(pure.n_joint) == pytest.approx(nj)


class TestSaving:
    def test_zero_for_forwarding(self):
        sc = DiskScenario(b0=2.0, a0=1.0)
        n_pf = tuple(npf(b, sc) for b in sc.rings())
        profile = BypassProfile(
            rings=tuple(sc.rings()),
            p_r=(0.0,) * sc.grid,
            n_pf=n_pf,
            n_joint=n_pf,
            n_cluster=(1,) * sc.grid,
            kappa=max(n_pf),
        )
        assert saving_percent(profile) == 0.0

    def test_hand_arithmetic(self):
        sc = DiskScenario(b0=2.0, a0=1.0)
        profile = BypassProfile(
            rings=tuple(sc.rings()),
            p_r=(0.0,) * sc.grid,
            n_pf=(52.0,) + (1.0,) * (sc.grid - 1),
            n_joint=(2.82,) + (1.0,) * (sc.grid - 1),
            n_cluster=(1,) * sc.grid,
            kappa=2.82,
        )
        assert saving_percent(profile) == pytest.approx(94.577, abs=1e-2)
