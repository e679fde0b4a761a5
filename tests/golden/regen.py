"""Rewrite every golden file in this directory:

- topo12.json and topo14.json, the two smoke topologies;
- disk.json, the SHA-256 of `wsnlife disk`'s stdout for each argv in
  DISK;
- topo12c.json, a topology where four sensors reach the sink only
  through cooperative links;
- topo12r.json, topo12 with fractional and integer sensor rates;
- network.json, the same for `wsnlife simulate` and `wsnlife lp` on the
  four topologies and for one small `wsnlife compare`, each argv in
  NETWORK.

Run from anywhere as `python tests/golden/regen.py`; it imports the
package from the src/ directory next to this tests/ directory, so a
copy of this script inside another checkout hashes that checkout's
outputs.  Every argv runs with this directory as the working
directory, so topology paths are relative to it.  Regenerate only when
a change to these outputs is meant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
from dataclasses import replace

HERE = pathlib.Path(__file__).resolve().parent

DISK = (
    "disk --mode ideal",
    "disk --mode ideal --pure",
    "disk --mode cb",
    "disk --mode cb --pure",
    "disk --mode ct",
    "disk --mode ct --pure",
    "disk --b0 10 --grid 3",
    "disk --mode ct --b0 13.3 --grid 5",
    "disk --mode ct --packet-len 1 --b0 13.3 14",
    # 68 of the 200 rings are out of the CT closed form's reach
    "disk --mode ct --b0 12 14",
    # cluster sizes up to 39,699
    "disk --mode ct --density 20 --b0 14",
    # the longest series, at an odd path-loss exponent
    "disk --mode ct --packet-len 200 --alpha 3 --b0 20",
)

NETWORK = tuple(
    f"{command} --topology {topo}{flags}"
    for topo in ("topo12.json", "topo14.json")
    for command, flags in (
        ("simulate", ""),
        ("simulate", " --beta1 0.5 --beta2 3"),
        ("lp", ""),
        ("lp", " --no-coop"),
    )
) + (
    # sensors 2, 5, 6 and 10 have no direct route to the sink
    "simulate --topology topo12c.json",
    "lp --topology topo12c.json",
    "lp --topology topo12c.json --no-coop",
    # random topologies; its means go into the # mean_rows= line
    "compare --counts 10 15 --instances 4",
    # round(rate) packets a round, half to even: 0.5 -> 0, 2.5 -> 2
    "simulate --topology topo12r.json",
    "simulate --topology topo12r.json --beta1 0.5 --beta2 3",
    "lp --topology topo12r.json",
    # the heuristic draws nothing at random: the unseeded entry's hash
    "--seed 5 simulate --topology topo12.json",
)

RATES = (0.5, 1.5, 2.5, 3.0, 0.4, 1.0, 2.0, 1.6)


def topologies() -> dict[str, list]:
    """The CI smoke topologies, with every battery at 40 units so a
    simulation routes hundreds of packets at unequal costs.  topo14 has
    unsorted, non-contiguous ids and a second sink; in topo12c four
    sensors have no direct route to the sink, and all of them reach it
    once cooperative links count; topo12r gives topo12's sensors the
    rates RATES in turn."""
    from wsnlife.harness import generate_topology

    small = [replace(n, energy=40.0) for n in generate_topology(12, 80.0, 4)]
    mixed = [
        replace(n, id=7 * n.id + 3, energy=40.0, rate=-1.0 if n.id == 13 else n.rate)
        for n in reversed(generate_topology(14, 80.0, 5))
    ]
    coop = [replace(n, energy=40.0) for n in generate_topology(12, 110.0, 13)]
    rated = [n if n.is_sink else replace(n, rate=RATES[(n.id - 1) % len(RATES)]) for n in small]
    return {"topo12.json": small, "topo14.json": mixed, "topo12c.json": coop, "topo12r.json": rated}


def stdout_sha256(argv: list[str]) -> str:
    """Run the CLI in process and hash what it writes to stdout."""
    from wsnlife import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"wsnlife {shlex.join(argv)} exited with {rc}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    os.chdir(HERE)
    from wsnlife.harness import save_topology

    for name, nodes in topologies().items():
        save_topology(nodes, name)
    for name, argvs in (("disk.json", DISK), ("network.json", NETWORK)):
        hashes = {args: stdout_sha256(shlex.split(args)) for args in argvs}
        pathlib.Path(name).write_text(json.dumps(hashes, indent=2) + "\n")
        print(f"wrote {len(hashes)} hashes to {HERE / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
