"""Experiment drivers: random topologies, gain sweeps, disk curves,
the three-algorithm lifetime comparison, and CSV/JSON output.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .diskanalysis import DiskScenario, optimize_bypass, pure_bypass_profile, saving_percent
from .gainmodels import (
    ClusterGeometry,
    PhyParams,
    cb_gain_bound,
    cb_gain_monte_carlo,
    ct_gain_closed_form,
    ct_gain_monte_carlo,
)
from .routing import (
    NoRouteError,
    SensorNode,
    build_links,
    shortest_path_lifetime,
    solve_lifetime_lp,
)

log = logging.getLogger(__name__)

__all__ = [
    "ResultTable",
    "default_phy",
    "generate_topology",
    "load_topology",
    "save_topology",
    "flow_solution_to_json",
    "run_gain",
    "run_disk",
    "run_compare",
]


def default_phy(**overrides) -> PhyParams:
    """The PhyParams defaults with the given fields overridden."""
    return PhyParams(**overrides)


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match columns")
        self.rows.append(list(values))

    def to_csv(self) -> str:
        buf = StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key}={self.metadata[key]}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # numpy scalars would print as np.float64(...)
    return str(v)


def generate_topology(n: int, field_size: float, seed: int) -> list[SensorNode]:
    """n-1 sensors plus one sink, uniform on the square; unit energies
    and rates, the sink absorbing everything."""
    if n < 2:
        raise ValueError("need at least a sensor and a sink")
    if not 0 < field_size < math.inf:
        raise ValueError(f"field size must be positive and finite, got {field_size}")
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2)) * field_size
    nodes = [SensorNode(id=0, x=float(xy[0, 0]), y=float(xy[0, 1]), rate=-(n - 1.0))]
    for k in range(1, n):
        nodes.append(SensorNode(id=k, x=float(xy[k, 0]), y=float(xy[k, 1]), rate=1.0))
    return nodes


def save_topology(nodes: list[SensorNode], path: str) -> None:
    data = {
        "nodes": [
            {"id": n.id, "x": n.x, "y": n.y, "energy": n.energy, "rate": n.rate}
            for n in nodes
        ]
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_topology(path: str) -> list[SensorNode]:
    """Read a topology file.  A malformed one (no node list, a node
    without id/x/y, an id that is not a JSON integer, a position,
    energy or rate that is not a finite JSON number, a duplicate id, no
    sink, no sensor with a positive rate) raises a one-line ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    entries = data.get("nodes") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected an object with a 'nodes' list")
    nodes = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: node {k} is not an object")
        missing = [key for key in ("id", "x", "y") if key not in entry]
        if missing:
            raise ValueError(f"{path}: node {k} lacks {', '.join(missing)}")
        values = {key: entry[key] for key in ("id", "x", "y", "energy", "rate") if key in entry}
        for key, v in values.items():  # bool is an int subclass, but true is no JSON number
            if isinstance(v, bool) or not isinstance(v, int if key == "id" else (int, float)):
                kind = "an integer" if key == "id" else "a number"
                raise ValueError(f"{path}: node {k}: {key} must be {kind}, got {json.dumps(v)}")
        try:
            nodes.append(SensorNode(**{key: v if key == "id" else float(v) for key, v in values.items()}))
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"{path}: node {k}: {exc}") from None
    ids = [n.id for n in nodes]
    if len(set(ids)) < len(ids):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"{path}: duplicate node ids {duplicates}")
    if not any(n.is_sink for n in nodes):
        raise ValueError(f"{path}: no sink (a node with a negative rate)")
    if not any(n.rate > 0 for n in nodes):
        raise ValueError(f"{path}: no sensor with a positive rate")
    return nodes


def flow_solution_to_json(solution) -> str:
    data = {
        "lifetime": solution.lifetime,
        "status": solution.status,
        "qhat": [
            {"src": i, "dst": j, "coop": coop, "value": q}
            for (i, j, coop), q in sorted(solution.qhat.items())
        ],
        "energy_used": {str(k): v for k, v in sorted(solution.energy_used.items())},
    }
    return json.dumps(data, indent=2) + "\n"


def run_gain(
    phy: PhyParams,
    kind: str = "ct",
    n: int = 10,
    dist: float = 1000.0,
    radii=tuple(range(10, 101, 10)),
    trials: int = 10**5,
    seed: int = 0,
) -> ResultTable:
    """Sweep the cluster radius, reporting the closed-form gain next to
    its Monte Carlo estimate."""
    if kind not in ("ct", "cb"):
        raise ValueError(f"unknown gain kind {kind!r}")
    table = ResultTable(
        columns=["mode", "n", "radius", "dist", "closed_form", "mc_value", "mc_stderr"],
        metadata={
            "kind": kind,
            "n": n,
            "dist": dist,
            "trials": trials,
            "seed": seed,
            "alpha": phy.alpha,
            "power_w": phy.power,
            "noise_w": phy.noise,
        },
    )
    for idx, r in enumerate(radii):
        geom = ClusterGeometry(n=n, r_disk=float(r), dist=dist)
        if kind == "ct":
            cf = ct_gain_closed_form(geom, phy).value
            mc = ct_gain_monte_carlo(geom, phy, trials, seed=_spawn_seed(seed, idx))
        else:
            cf = cb_gain_bound(geom, phy).value
            mc = cb_gain_monte_carlo(geom, phy, trials, seed=_spawn_seed(seed, idx))
        table.add(kind, n, float(r), dist, cf, mc.value, mc.stderr)
    return table


def _spawn_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_disk(
    b0_over_a0=(2.0, 4.0, 6.0, 8.0, 10.0),
    a0: float = 1.0,
    grid: int = DiskScenario.grid,
    mode: str = DiskScenario.mode,
    phy: PhyParams = PhyParams(),
    pure: bool = False,
) -> tuple[ResultTable, ResultTable]:
    """Per-ring curves plus the summary table over disk sizes.

    With pure=True the curve columns describe the everything-bypasses
    scheme instead of the joint optimum.
    """
    curves = ResultTable(
        columns=["b0_over_a0", "ring_radius", "p_r", "n_pf", "n_joint", "n_cluster"],
        metadata={"grid": grid, "mode": mode, "alpha": phy.alpha, "pure": pure},
    )
    summary = ResultTable(
        columns=["b0_over_a0", "kappa", "max_n_joint", "max_n_pf", "saving_percent"],
        metadata={"grid": grid, "mode": mode, "alpha": phy.alpha, "pure": pure},
    )
    for ratio in b0_over_a0:
        scenario = DiskScenario(b0=ratio * a0, a0=a0, grid=grid, mode=mode, phy=phy)
        profile = pure_bypass_profile(scenario) if pure else optimize_bypass(scenario)
        for b, p, npf_b, nj, nc in zip(
            profile.rings, profile.p_r, profile.n_pf, profile.n_joint, profile.n_cluster
        ):
            curves.add(ratio, b, p, npf_b, nj, nc)
        summary.add(
            ratio,
            profile.kappa,
            profile.max_n_joint(),
            profile.max_n_pf(),
            saving_percent(profile),
        )
    return curves, summary


def _compare_instance(args) -> tuple | None:
    n, field_size, phy, seed, index = args
    nodes = generate_topology(n, field_size, _spawn_seed(seed, index))
    links = build_links(nodes, phy)
    try:
        sp = shortest_path_lifetime(nodes, links)
    except NoRouteError:
        return None
    lp_plain = solve_lifetime_lp(nodes, links, with_coop=False).lifetime
    lp_coop = solve_lifetime_lp(nodes, links, with_coop=True).lifetime
    return (n, index, sp, lp_plain, lp_coop)


def run_compare(
    counts=(10, 15, 20, 25, 30),
    instances: int = 50,
    field_size: float = 100.0,
    phy: PhyParams = PhyParams(),
    seed: int = 0,
    workers: int = 1,
) -> ResultTable:
    """Three-algorithm lifetime comparison over random topologies:
    static shortest path, the max-min LP without cooperative links, and
    the max-min LP with them.

    Disconnected instances are skipped and logged.  Aggregation order
    is fixed by instance index, so the table is identical for any
    worker count.
    """
    if instances < 1:
        raise ValueError(f"need at least one instance per node count, got {instances}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    table = ResultTable(
        columns=["n", "instance", "shortest_path", "lp_no_coop", "lp_coop"],
        metadata={
            "field_size": field_size,
            "instances": instances,
            "seed": seed,
            "counts": ";".join(str(c) for c in counts),
            "alpha": phy.alpha,
            "snr_min": phy.snr_min,
        },
    )
    jobs = []
    for ci, n in enumerate(counts):
        for k in range(instances):
            jobs.append((n, field_size, phy, seed, ci * instances + k))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compare_instance, jobs, chunksize=8))
    else:
        results = [_compare_instance(job) for job in jobs]
    # per n: n, instances kept, and each algorithm's mean lifetime
    means = []
    for ci, n in enumerate(counts):
        block = [r for r in results[ci * instances : (ci + 1) * instances] if r is not None]
        skipped = instances - len(block)
        if skipped:
            log.info("n=%d: skipped %d disconnected instances", n, skipped)
        for (_n, index, sp, lp_plain, lp_coop) in block:
            table.add(n, index, sp, lp_plain, lp_coop)
        if block:
            means.append([n, len(block), *(sum(r[c] for r in block) / len(block) for c in (2, 3, 4))])
    table.metadata["mean_rows"] = ";".join(",".join(_fmt(v) for v in row) for row in means)
    return table
