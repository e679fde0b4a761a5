import math
import random

import pytest

from wsnlife.diskanalysis import (
    BypassProfile,
    DiskScenario,
    _chain,
    _sweep,
    njoint_profile,
    npf,
    optimize_bypass,
    pure_bypass_profile,
    saving_percent,
)
from wsnlife.gainmodels import invert_cluster_size


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

    @pytest.mark.parametrize("b", [2.5, 3.5, math.nan, -1.0])
    def test_rejects_radius_outside_disk(self, b):
        sc = DiskScenario(b0=2.0, a0=1.0)
        with pytest.raises(ValueError, match=r"radius must lie in \(0, b0\]"):
            npf(b, sc)

    @pytest.mark.parametrize(
        "b0, a0, grid", [(5.5, 1.0, 37), (4.3, 1.0, 13), (7.25, 2.5, 21), (10.0, 1.0, 100)]
    )
    def test_every_ring_matches_closed_form(self, b0, a0, grid):
        # h relays lie outward of b, at b + n*a0 for n = 1 .. h:
        # sum_{n=0..h} (1 + n*a0/b) = (h+1) + (a0/b) * h(h+1)/2
        sc = DiskScenario(b0=b0, a0=a0, grid=grid)
        for b in sc.rings():
            h = _relays_inside(b, b0, a0)
            assert npf(b, sc) == pytest.approx((h + 1) + (a0 / b) * h * (h + 1) / 2.0, rel=1e-12)


def _relays_inside(b, b0, a0):
    """Number of relay positions b + n*a0 (n >= 1) on the disk."""
    h = 0
    while b + (h + 1) * a0 <= b0:
        h += 1
    return h


class TestRings:
    @pytest.mark.parametrize("b0, grid", [(1.6, 3), (1.8, 37)])
    def test_outermost_ring_lies_on_the_disk(self, b0, grid):
        # b0*grid/grid rounds one ulp above b0 for these pairs
        assert b0 * grid / grid > b0
        sc = DiskScenario(b0=b0, a0=1.0, grid=grid)
        assert sc.rings()[-1] == b0
        assert optimize_bypass(sc).rings[-1] == b0
        assert pure_bypass_profile(sc).rings[-1] == b0

    def test_every_ring_inside_disk(self):
        for hundredths in range(100, 401):
            b0 = hundredths / 100
            for grid in range(2, 60):
                rings = DiskScenario(b0=b0, a0=1.0, grid=grid).rings()
                assert 0 < rings[0] and rings[-1] <= b0 and rings == sorted(rings)


def cluster_size_for_ring(b, sc):
    """The cluster size a ring at radius b needs to reach the sink in
    one shot: the gain max(b/a0, 1)^alpha inverted, 0 if unreachable."""
    return invert_cluster_size(max(b / sc.a0, 1.0) ** sc.phy.alpha, sc.mode, sc.phy)


class TestClusterSizeForRing:
    def test_inside_hop_range(self):
        sc = DiskScenario(b0=4.0, a0=1.0, mode="ideal")
        assert cluster_size_for_ring(0.5, sc) == 1
        assert cluster_size_for_ring(1.0, sc) == 1

    def test_ideal_alpha4(self):
        sc = DiskScenario(b0=4.0, a0=1.0, mode="ideal")
        assert cluster_size_for_ring(2.0, sc) == 16
        assert cluster_size_for_ring(1.5, sc) == 6  # ceil(1.5^4) = ceil(5.0625)

    def test_unreachable_ct_ring_is_zero(self):
        sc = DiskScenario(b0=10.0, a0=1.0, mode="ct")
        assert cluster_size_for_ring(10.0, sc) == 0
        assert cluster_size_for_ring(8.0, sc) > 1

    @pytest.mark.parametrize("mode", ["ideal", "cb", "ct"])
    def test_profile_sizes_match_each_ring(self, mode):
        # the profile inverts every ring in one batch; 68 of these 200
        # CT rings are unreachable
        for b0 in (12.0, 14.0):
            sc = DiskScenario(b0=b0, a0=1.0, mode=mode)
            profile = pure_bypass_profile(sc)
            assert list(profile.n_cluster) == [cluster_size_for_ring(b, sc) for b in sc.rings()]


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

    @pytest.mark.parametrize(
        "b0, a0, grid, mode",
        [(5.5, 1.0, 37, None), (4.3, 1.0, 13, None), (7.25, 2.5, 21, None), (3.7, 1.0, 9, "ideal")],
    )
    def test_random_bypass_matches_reference_loop(self, b0, a0, grid, mode):
        rng = random.Random(grid)
        sc = DiskScenario(b0=b0, a0=a0, grid=grid, mode=mode or "ideal")
        rings = [b0 * k / grid for k in range(1, grid + 1)]
        rings[-1] = b0
        p_r = [rng.random() for _ in rings]
        if mode is None:
            # random sizes, swept over the scenario's own relay chains
            sizes = [rng.randrange(0, 20) for _ in rings]
            got = _sweep(list(p_r), [_chain(b, sc) for b in sc.rings()], sizes)[0]
        else:
            sizes = [math.ceil(max(b / a0, 1.0) ** 4 - 1e-9) for b in rings]
            got = njoint_profile(p_r, sc)

        def nearest(r):
            gaps = sorted((abs(ring - r), k) for k, ring in enumerate(rings))
            assert gaps[1][0] - gaps[0][0] > 1e-9  # no tie between two rings
            return gaps[0][1]

        for b, p, nc, value in zip(rings, p_r, sizes, got):
            load, survive = 1.0, 1.0
            for n in range(1, _relays_inside(b, b0, a0) + 1):
                survive *= 1.0 - p_r[nearest(b + n * a0)]
                load += (b + n * a0) / b * survive
            assert value == pytest.approx((1.0 - p + nc * p) * load, rel=1e-12)

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

    @pytest.mark.parametrize("mode", ["ideal", "cb", "ct"])
    @pytest.mark.parametrize("b0, grid", [(10.0, 3), (13.3, 5)])
    def test_n_joint_is_that_of_the_final_bypass(self, b0, grid, mode):
        # ring spacing above 2*a0: a ring's first hops round onto itself
        sc = DiskScenario(b0=b0, a0=1.0, grid=grid, mode=mode)
        profile = optimize_bypass(sc)
        assert list(profile.n_joint) == njoint_profile(profile.p_r, sc)
        assert profile.max_n_joint() <= profile.kappa * (1.0 + 1e-9)

    def test_no_range_gain_means_no_bypass(self):
        # trivial clusters: bypassing cannot help, optimizer falls back
        # to pure forwarding (at p_r = 0 the cluster sizes do not count)
        sc = DiskScenario(b0=3.0, a0=1.0)
        nj = njoint_profile([0.0] * sc.grid, sc)
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

    def test_unreachable_rings_forward(self):
        sc = DiskScenario(b0=10.0, a0=1.0, grid=50, mode="ct")
        pure = pure_bypass_profile(sc)
        marked = [k for k, nc in enumerate(pure.n_cluster) if nc == 0]
        assert marked and marked[-1] == sc.grid - 1
        for k, nc in enumerate(pure.n_cluster):
            assert pure.p_r[k] == (0.0 if nc == 0 else 1.0)
        assert all(pure.n_joint[k] == pure.n_pf[k] for k in marked)
        joint = optimize_bypass(sc)
        assert joint.n_cluster == pure.n_cluster
        assert all(joint.p_r[k] == 0.0 and joint.n_joint[k] == joint.n_pf[k] for k in marked)

    def test_profile_rejects_negative_cluster_size(self):
        sc = DiskScenario(b0=2.0, a0=1.0, grid=2)
        fields = dict(rings=(1.0, 2.0), p_r=(0.0, 0.0), n_pf=(3.0, 1.0), n_joint=(3.0, 1.0),
                      kappa=3.0)
        assert BypassProfile(n_cluster=(0, 1), **fields).n_cluster == (0, 1)
        with pytest.raises(ValueError):
            BypassProfile(n_cluster=(-1, 1), **fields)


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
