"""Self-test of the output checks: each accepts the program's output on
a small input and rejects the same output perturbed.

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.  Takes a few seconds.
"""

import sys
import warnings
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import wsnlife.harness as harness  # noqa: E402
import wsnlife.routing as routing  # noqa: E402
from workloads import PHY, _connected_topology  # noqa: E402

FAILURES = []


def expect(name, errors, reject, keyword=""):
    ok = bool(errors) == reject and (not reject or any(keyword in e for e in errors))
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {errors[:1] if errors else 'accepted'}")
    if not ok:
        FAILURES.append(name)


def network_checks():
    nodes = _connected_topology(14, 100.0, 5, 0)
    links = routing.build_links(nodes, PHY)
    derived = checks.derive_links(nodes, PHY)
    expect("links", checks.check_links(links, derived), False)
    dropped = replace(links, direct=links.direct - {min(links.direct)})
    expect("links: direct link dropped", checks.check_links(dropped, derived), True, "missing")
    extra = replace(links, coop={**links.coop, min(links.direct): (0,)})
    expect("links: spurious coop link", checks.check_links(extra, derived), True, "spurious")

    sp = routing.shortest_path_lifetime(nodes, links)
    plain = routing.solve_lifetime_lp(nodes, links, with_coop=False)
    coop = routing.solve_lifetime_lp(nodes, links, with_coop=True)
    ref = checks.lp_optimum(nodes, derived, True)
    expect("lp", checks.check_lp(nodes, derived, coop, True, ref), False)
    expect("lp: objective off by 1e-4",
           checks.check_lp(nodes, derived, replace(coop, lifetime=coop.lifetime * (1 + 1e-4)), True, ref),
           True, "HiGHS")
    key = max(coop.qhat, key=coop.qhat.get)
    bent = {**coop.qhat, key: coop.qhat[key] + 0.01}
    expect("flows: conservation broken",
           checks.check_flows(nodes, derived, replace(coop, qhat=bent), True), True, "conservation")
    scaled = replace(coop, qhat={k: 1.5 * q for k, q in coop.qhat.items()}, lifetime=1.5 * coop.lifetime,
                     energy_used={k: 1.5 * e for k, e in coop.energy_used.items()})
    expect("flows: energy cap exceeded", checks.check_flows(nodes, derived, scaled, True), True, "energy cap")
    coop_keys = [k for k in coop.qhat if k[2]]
    if coop_keys:
        i, j, _ = coop_keys[0]
        helper = links.coop[(i, j)][0]
        unhelped = dict(coop.energy_used)
        unhelped[helper] -= coop.qhat[coop_keys[0]]
        expect("flows: helper duty left out",
               checks.check_flows(nodes, derived, replace(coop, energy_used=unhelped), True), True, "energy_used")
    else:
        expect("flows: instance has a coop flow to test helper duty", ["no coop flow"], False)
    expect("shortest path", checks.check_shortest_path(nodes, derived, sp), False)
    expect("shortest path: underestimate",
           checks.check_shortest_path(nodes, derived, sp * (1 - 1e-6)), True, "min-hop")
    expect("dominance", checks.check_dominance(sp, plain.lifetime, coop.lifetime), False)
    expect("dominance: coop below plain",
           checks.check_dominance(sp, plain.lifetime, plain.lifetime * 0.99), True, "with coop")
    expect("dominance: plain below shortest path",
           checks.check_dominance(plain.lifetime * 1.01, plain.lifetime, coop.lifetime), True, "shortest path")
    expect("heuristic", checks.check_heuristic(ref - 0.5, ref), False)
    expect("heuristic: beats the LP", checks.check_heuristic(ref + 2.0, ref), True, "rounds")


def gain_checks():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = harness.run_gain(PHY, "ct", radii=(50.0,), trials=20000, seed=3)
    _, n, r, _, cf, mc, _ = table.rows[0]
    expect("ct", sum(checks.check_ct_row(n, r, PHY, cf, mc), []), False)
    expect("ct: closed form off by 1e-8", checks.check_ct_row(n, r, PHY, cf * (1 + 1e-8), mc)[0], True, "exact")
    expect("ct: Monte Carlo off by 4%", checks.check_ct_row(n, r, PHY, cf, mc * 1.04)[1], True, "3%")
    cb_phy = harness.default_phy(wavelength=1.0)
    table = harness.run_gain(cb_phy, "cb", n=100, radii=(10.0,), trials=10, seed=3)
    _, n, r, _, bound, mc, _ = table.rows[0]
    expect("cb", checks.check_cb_row(n, r, cb_phy, bound, mc), False)
    expect("cb: Monte Carlo below 0.95 x bound", checks.check_cb_row(n, r, cb_phy, bound, 0.9 * bound), True, "0.95")
    expect("cb: wrong bound", checks.check_cb_row(n, r, cb_phy, bound * 1.01, mc), True, "bound")


def disk_checks():
    for mode, grid in (("ideal", 100), ("ct", 40)):
        curves, summary = harness.run_disk((4.0,), grid=grid, mode=mode, phy=PHY)
        rows, summ = curves.rows, summary.rows[0]

        def run(rows=rows, summ=summ):
            return checks.check_disk(4.0, 1.0, grid, mode, PHY, rows, summ, {})

        expect(f"disk {mode}", run(), False)
        bad = [list(x) for x in rows]
        bad[0][3] += 1.0
        expect(f"disk {mode}: innermost n_pf", run(rows=bad), True, "innermost")
        bad = [list(x) for x in rows]
        k = max(range(len(bad)), key=lambda i: 0.0 < bad[i][2] < 1.0)
        bad[k][2] *= 0.9
        expect(f"disk {mode}: p_r perturbed", run(rows=bad), True, "n_joint")
        expect(f"disk {mode}: kappa perturbed", run(summ=[summ[0], summ[1] * 1.01, *summ[2:]]), True, "kappa")
        bad = [list(x) for x in rows]
        bad[-1][5] += 1
        expect(f"disk {mode}: cluster size", run(rows=bad), True, "cluster size")
    curves, summary = harness.run_disk((4.0,), grid=100, mode="ideal", phy=PHY)
    summ = list(summary.rows[0])
    summ[2], summ[4] = 0.5 * summ[3], 50.0
    expect("disk ideal: saving outside the paper's band",
           checks.check_disk(4.0, 1.0, 100, "ideal", PHY, curves.rows, summ, {}), True, "band")


def main() -> int:
    network_checks()
    gain_checks()
    disk_checks()
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
