"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured numbers before asserting.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools

import numpy as np

from wsnlife.diskanalysis import DiskScenario, optimize_bypass, saving_percent
from wsnlife.gainmodels import (
    ClusterGeometry,
    cb_gain_bound,
    cb_gain_monte_carlo,
    ct_gain_closed_form,
    ct_gain_monte_carlo,
)
from wsnlife.harness import default_phy, generate_topology, run_compare, run_gain
from wsnlife.lpsolver import solve_lp
from wsnlife.numerics import (
    Hyp2F1Args,
    Tolerance,
    hyp2f1_terminating,
    integrate_1d,
)
from wsnlife.routing import (
    NoRouteError,
    build_links,
    shortest_path_lifetime,
    solve_lifetime_lp,
)

from test_lpsolver import enumerate_vertices, random_feasible_lp


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_hypergeometric_vs_quadrature():
    rng = np.random.default_rng(101)
    tuples = []
    for alpha, L in itertools.product((2.0, 3.0, 4.0), (1, 10, 100)):
        for z in rng.uniform(0.0, 0.5, 6):
            tuples.append((alpha, L, float(z)))
    tuples = tuples[:50]
    worst = 0.0
    checked = 0
    for alpha, L, z in tuples:
        series = hyp2f1_terminating(
            Hyp2F1Args(a=2.0 / alpha, L=L, c=(alpha + 2.0) / alpha, z=z)
        )
        quad = 2.0 * integrate_1d(
            lambda r: r * (1.0 - z * r**alpha) ** L, 0.0, 1.0, Tolerance(rel=1e-11)
        )
        worst = max(worst, abs(series - quad) / abs(quad))
        checked += 1
    ok = worst <= 1e-8 and checked >= 40
    report(1, ok, f"{checked}/50 tuples checked, worst relative error {worst:.3e}")


def test_criterion_2_ct_closed_form_vs_monte_carlo():
    phy = default_phy()
    failures = []
    worst_sigma = 0.0
    worst_rel = 0.0
    for idx, r in enumerate(range(10, 101, 10)):
        z = phy.noise * float(r) ** phy.alpha / (4.0 * phy.power)
        if z > 0.25:
            continue
        geom = ClusterGeometry(n=10, r_disk=float(r), dist=1000.0)
        cf = ct_gain_closed_form(geom, phy).value
        mc = ct_gain_monte_carlo(geom, phy, trials=10**5, seed=2000 + idx)
        diff = abs(cf - mc.value)
        sigma = diff / (3.0 * mc.stderr)
        rel = diff / mc.value
        worst_sigma = max(worst_sigma, sigma)
        worst_rel = max(worst_rel, rel)
        if diff > 3.0 * mc.stderr or rel > 0.03:
            failures.append((r, sigma, rel))
    ok = not failures
    report(
        2,
        ok,
        f"worst |diff|/(3*stderr)={worst_sigma:.2f}, worst relative={worst_rel:.4f}, "
        f"violations at R={[f[0] for f in failures]}",
    )


def test_criterion_3_cb_bound_statistical():
    phy = default_phy(wavelength=1.0)
    geom = ClusterGeometry(n=100, r_disk=10.0, dist=1000.0)
    est = cb_gain_monte_carlo(geom, phy, trials=200, seed=77)
    bound = cb_gain_bound(geom, phy).value
    ratio = est.value / bound
    ok = ratio >= 0.95
    report(3, ok, f"mean directivity {est.value:.2f} vs bound {bound:.2f} (ratio {ratio:.3f})")


def test_criterion_4_disk_table():
    expected_nj = {2: 2.82, 4: 10.25, 6: 23.4, 8: 42.5, 10: 64.5}
    expected_saving = {2: 94.56, 4: 93.33, 6: 90.86, 8: 88.13, 10: 85.98}
    # direct evaluation of the innermost-ring forwarding sum
    expected_npf = {2: 52.0, 4: 154.0, 6: 256.0, 8: 358.0, 10: 460.0}
    details = []
    ok = True
    for ratio in (2, 4, 6, 8, 10):
        sc = DiskScenario(b0=float(ratio), a0=1.0, grid=100, mode="ideal")
        profile = optimize_bypass(sc)
        nj = profile.max_n_joint()
        sav = saving_percent(profile)
        base = profile.max_n_pf()
        nj_ok = abs(nj - expected_nj[ratio]) <= 0.15 * expected_nj[ratio]
        sav_ok = abs(sav - expected_saving[ratio]) <= 3.0
        base_ok = abs(base - expected_npf[ratio]) <= 1e-9
        ok = ok and nj_ok and sav_ok and base_ok
        details.append(f"R0={ratio}: njoint={nj:.2f} saving={sav:.2f}% npf={base:.1f}")
    report(4, ok, "; ".join(details))


def test_criterion_5_snapshot_lp(phy, snapshot_nodes):
    links = build_links(snapshot_nodes, phy)
    plain = solve_lifetime_lp(snapshot_nodes, links, with_coop=False)
    coop = solve_lifetime_lp(snapshot_nodes, links, with_coop=True)
    cap_ok = all(
        coop.energy_used[n.id] <= n.energy + 1e-6 for n in snapshot_nodes
    ) and all(plain.energy_used[n.id] <= n.energy + 1e-6 for n in snapshot_nodes)
    ok = (
        abs(plain.lifetime - 0.2) <= 1e-6
        and abs(coop.lifetime - 1.0 / 3.0) <= 1e-6
        and cap_ok
    )
    report(
        5,
        ok,
        f"T(no coop)={plain.lifetime:.6f}, T(coop)={coop.lifetime:.6f}, caps ok={cap_ok}",
    )


def test_criterion_6_lp_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 10))
        lp = random_feasible_lp(rng, m, n)
        sol = solve_lp(lp)
        oracle = enumerate_vertices(lp)
        worst = max(worst, abs(sol.objective - oracle))
    ok = worst <= 1e-7
    report(6, ok, f"20 instances, worst objective gap {worst:.2e}")


def test_criterion_7_dominance_properties(phy):
    rng = np.random.default_rng(707)
    violations = 0
    checked = 0
    draws = 0
    while checked < 200 and draws < 1000:
        draws += 1
        n = int(rng.integers(5, 26))
        nodes = generate_topology(n, 100.0, seed=int(rng.integers(0, 2**31)))
        links = build_links(nodes, phy)
        try:
            sp = shortest_path_lifetime(nodes, links)
        except NoRouteError:
            continue
        plain = solve_lifetime_lp(nodes, links, with_coop=False).lifetime
        coop = solve_lifetime_lp(nodes, links, with_coop=True).lifetime
        if not (coop >= plain - 1e-9 and plain >= sp - 1e-9):
            violations += 1
        checked += 1
    ok = checked == 200 and violations == 0
    report(7, ok, f"{checked} instances, {violations} dominance violations")


def test_criterion_8_comparison_band(phy):
    table = run_compare(
        counts=(10, 15, 20, 25, 30), instances=100, field_size=100.0, phy=phy,
        seed=0, workers=4,
    )
    by_n = {}
    for (n, _i, sp, plain, coop) in table.rows:
        by_n.setdefault(n, []).append((sp, plain, coop))
    sp_means = []
    improvements = []
    for n in sorted(by_n):
        block = by_n[n]
        sp_means.append(sum(b[0] for b in block) / len(block))
        mean_plain = sum(b[1] for b in block) / len(block)
        mean_coop = sum(b[2] for b in block) / len(block)
        improvements.append(100.0 * (mean_coop / mean_plain - 1.0))
    band_ok = all(3.0 <= imp <= 25.0 for imp in improvements)
    mono_ok = all(b <= a + 1e-12 for a, b in zip(sp_means, sp_means[1:]))
    ok = band_ok and mono_ok
    report(
        8,
        ok,
        f"improvement % by count {[round(i, 2) for i in improvements]}, "
        f"shortest-path means {[round(s, 3) for s in sp_means]}",
    )


def test_criterion_9_determinism(phy):
    gain_a = run_gain(phy, radii=(20.0, 60.0), trials=2000, seed=9).to_csv()
    gain_b = run_gain(phy, radii=(20.0, 60.0), trials=2000, seed=9).to_csv()
    kwargs = dict(counts=(8, 12), instances=6, field_size=100.0, phy=phy, seed=9)
    cmp_serial = run_compare(workers=1, **kwargs).to_csv()
    cmp_parallel = run_compare(workers=3, **kwargs).to_csv()
    ok = gain_a == gain_b and cmp_serial == cmp_parallel
    report(
        9,
        ok,
        f"gain rerun identical={gain_a == gain_b}, "
        f"compare 1-vs-3 workers identical={cmp_serial == cmp_parallel}",
    )
