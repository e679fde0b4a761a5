"""The benchmark's workloads: inputs made from the seed, the timed body
of one round, and the checks of that round's outputs.

Each workload builds a pool of rounds at set-up.  Round i runs pool
entry i % len(pool), so a run that outlasts the pool repeats inputs it
has already checked, and the repeat must reproduce the first output.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

import checks
import wsnlife.harness as harness
import wsnlife.routing as routing

PHY = harness.default_phy()


def _subseed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _connected_topology(n: int, field: float, seed: int, index: int):
    """harness.generate_topology (sensors and sink uniform on the
    field), redrawn until every sensor reaches the sink over direct
    links: the condition shortest_path_lifetime needs, as run_compare
    skips instances without it."""
    a0 = PHY.hop_range()
    for attempt in range(1000):
        nodes = harness.generate_topology(n, field, _subseed(seed, index, attempt))
        xy = np.array([(v.x, v.y) for v in nodes])
        near = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1)) <= a0
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = near[frontier].any(axis=0) & ~reached
            reached |= frontier
        if reached.all():
            return nodes
    raise RuntimeError(f"no connected topology with n={n} on a {field} m field")


class Network:
    """The paper's general-network comparison plus the routing
    heuristic: per instance build_links, shortest_path_lifetime, the
    lifetime LP without and with cooperative links, and
    simulate_dynamic with the energy raised until the coop LP optimum
    is ROUNDS packet rounds."""

    COUNTS = (20, 22, 24, 26, 28, 30)
    FIELD = 100.0
    ROUNDS = 20.0
    POOL = 15
    OPS = ("build_links", "shortest_path_lifetime", "lp_no_coop", "lp_coop", "simulate_dynamic")
    ops_per_round = len(COUNTS) * len(OPS)

    def __init__(self, seed: int):
        self.pool = [
            [_connected_topology(n, self.FIELD, seed, r * len(self.COUNTS) + k)
             for k, n in enumerate(self.COUNTS)]
            for r in range(self.POOL)
        ]
        self._instance(harness.generate_topology(8, 30.0, seed))  # warm-up

    def _instance(self, nodes):
        links = routing.build_links(nodes, PHY)
        sp = routing.shortest_path_lifetime(nodes, links)
        plain = routing.solve_lifetime_lp(nodes, links, with_coop=False)
        coop = routing.solve_lifetime_lp(nodes, links, with_coop=True)
        energy = self.ROUNDS / coop.lifetime
        charged = [replace(v, energy=energy) for v in nodes]
        return links, sp, plain, coop, energy, routing.simulate_dynamic(charged, links)

    def run(self, index: int, span=None):
        outputs = []
        for nodes in self.pool[index]:
            try:
                outputs.append(self._instance(nodes))
            except Exception as exc:  # a raising operation is a failed one
                outputs.append(exc)
        return outputs

    def check(self, index: int, outputs) -> dict[str, list[str]]:
        failed = {}
        for k, (nodes, out) in enumerate(zip(self.pool[index], outputs)):
            tag = f"n{len(nodes)}.{k}."
            if isinstance(out, Exception):
                for op in self.OPS:
                    failed[tag + op] = [f"raised {out!r}"]
                continue
            links, sp, plain, coop, energy, rounds = out
            derived = checks.derive_links(nodes, PHY)
            ref_coop = checks.lp_optimum(nodes, derived, True)
            errors = {
                "build_links": checks.check_links(links, derived),
                "shortest_path_lifetime": checks.check_shortest_path(nodes, derived, sp)
                + checks.check_dominance(sp, plain.lifetime, coop.lifetime),
                "lp_no_coop": checks.check_lp(
                    nodes, derived, plain, False, checks.lp_optimum(nodes, derived, False)),
                "lp_coop": checks.check_lp(nodes, derived, coop, True, ref_coop),
                "simulate_dynamic": checks.check_heuristic(rounds, energy * ref_coop),
            }
            failed.update({tag + op: e for op, e in errors.items() if e})
        return failed


class LpScaling:
    """The lifetime-LP ladder: the with-coop LP at n = 30, 60 and 100
    at constant node density, unit energy, no heuristic.  The ROADMAP
    ladder's n = 150 rung is left out: lpsolver.solve_lp returns a wrong
    optimum on some of its instances, so whether a run fails would
    depend on the seed."""

    SIZES = (30, 60, 100)
    POOL = 10
    ops_per_round = len(SIZES)

    def __init__(self, seed: int):
        self.pool = []
        for r in range(self.POOL):
            ladder = []
            for k, n in enumerate(self.SIZES):
                field = 100.0 * math.sqrt(n / 30.0)
                nodes = _connected_topology(n, field, seed, r * 10 + k)
                ladder.append((nodes, routing.build_links(nodes, PHY)))
            self.pool.append(ladder)
        small = harness.generate_topology(8, 30.0, seed)  # warm-up
        routing.solve_lifetime_lp(small, routing.build_links(small, PHY))

    def run(self, index: int, span=None):
        span = span or (lambda name: nullcontext())
        outputs = []
        for nodes, links in self.pool[index]:
            with span(f"lp_scaling.n{len(nodes)}"):
                try:
                    outputs.append(routing.solve_lifetime_lp(nodes, links, with_coop=True))
                except Exception as exc:
                    outputs.append(exc)
        return outputs

    def check(self, index: int, outputs) -> dict[str, list[str]]:
        failed = {}
        for (nodes, links), sol in zip(self.pool[index], outputs):
            op = f"lp_coop.n{len(nodes)}"
            if isinstance(sol, Exception):
                failed[op] = [f"raised {sol!r}"]
                continue
            derived = checks.derive_links(nodes, PHY)
            ref = checks.lp_optimum(nodes, derived, True)
            errors = checks.check_links(links, derived) + checks.check_lp(nodes, derived, sol, True, ref)
            if errors:
                failed[op] = errors
        return failed


class Analytic:
    """Gain sweeps and disk bypass curves: the CT sweep (closed form and
    Monte Carlo) over R = 10..120 m, the CB Monte Carlo at N = 100,
    lambda = 1 m, R = 10 m, and run_disk in ideal and CB modes for
    b0/a0 = 2..10 and in CT mode for b0/a0 = 2..8."""

    CT_RADII = tuple(float(r) for r in range(10, 121, 10))
    CT_N, CT_DIST, CT_TRIALS = 10, 1000.0, 10**5
    CB_N, CB_RADIUS, CB_TRIALS = 100, 10.0, 40
    CB_PHY = harness.default_phy(wavelength=1.0)
    DISKS = (("ideal", (2, 4, 6, 8, 10)), ("cb", (2, 4, 6, 8, 10)), ("ct", (2, 4, 6, 8)))
    GRID = 100
    POOL = 1
    ops_per_round = 2 * len(CT_RADII) + 1 + sum(len(r) for _, r in DISKS)

    def __init__(self, seed: int):
        self.ct_seed = _subseed(seed, 1)
        self.cb_seed = _subseed(seed, 2)
        self.pool = [None]
        harness.run_gain(PHY, "ct", radii=(10.0,), trials=100, seed=seed)  # warm-up
        harness.run_gain(self.CB_PHY, "cb", n=10, radii=(10.0,), trials=1, seed=seed)
        for mode, _ in self.DISKS:
            harness.run_disk((2.0,), grid=10, mode=mode, phy=PHY)

    def run(self, index: int, span=None):
        out = {}
        steps = [
            ("gain_ct", lambda: harness.run_gain(
                PHY, "ct", n=self.CT_N, dist=self.CT_DIST, radii=self.CT_RADII,
                trials=self.CT_TRIALS, seed=self.ct_seed)),
            ("gain_cb", lambda: harness.run_gain(
                self.CB_PHY, "cb", n=self.CB_N, dist=self.CT_DIST, radii=(self.CB_RADIUS,),
                trials=self.CB_TRIALS, seed=self.cb_seed)),
        ]
        steps += [
            (mode, lambda mode=mode, ratios=ratios: harness.run_disk(
                tuple(float(x) for x in ratios), grid=self.GRID, mode=mode, phy=PHY))
            for mode, ratios in self.DISKS
        ]
        for key, step in steps:
            try:
                out[key] = step()
            except Exception as exc:
                out[key] = exc
        return out

    def check(self, index: int, out) -> dict[str, list[str]]:
        failed = {}
        ct = out["gain_ct"]
        for r in self.CT_RADII:
            cf_op, mc_op = f"ct.closed_form.R{r:g}", f"ct.monte_carlo.R{r:g}"
            if isinstance(ct, Exception):
                failed[cf_op] = failed[mc_op] = [f"raised {ct!r}"]
                continue
            row = [x for x in ct.rows if x[2] == r]
            if len(row) != 1:
                failed[cf_op] = failed[mc_op] = [f"{len(row)} rows for R={r}"]
                continue
            cf, mc = checks.check_ct_row(self.CT_N, r, PHY, row[0][4], row[0][5])
            if cf:
                failed[cf_op] = cf
            if mc:
                failed[mc_op] = mc
        cb = out["gain_cb"]
        if isinstance(cb, Exception) or len(cb.rows) != 1:
            failed["cb.monte_carlo"] = [f"bad CB table {cb!r}"]
        else:
            errors = checks.check_cb_row(self.CB_N, self.CB_RADIUS, self.CB_PHY, cb.rows[0][4], cb.rows[0][5])
            if errors:
                failed["cb.monte_carlo"] = errors
        sizes_memo = {}
        for mode, ratios in self.DISKS:
            result = out[mode]
            for ratio in ratios:
                op = f"disk.{mode}.b{ratio}"
                if isinstance(result, Exception):
                    failed[op] = [f"raised {result!r}"]
                    continue
                curves, summary = result
                rows = [x for x in curves.rows if x[0] == ratio]
                summ = [x for x in summary.rows if x[0] == ratio]
                if len(summ) != 1:
                    failed[op] = [f"{len(summ)} summary rows"]
                    continue
                errors = checks.check_disk(ratio, 1.0, self.GRID, mode, PHY, rows, summ[0], sizes_memo)
                if errors:
                    failed[op] = errors
        return failed


WORKLOADS = {"network": Network, "lp_scaling": LpScaling, "analytic": Analytic}
