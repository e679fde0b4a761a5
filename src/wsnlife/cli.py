"""Command-line front end.

Subcommands: gain, disk, lp, simulate, compare.  dB/dBm values are
accepted on the command line and converted to linear internally.
A JSON --config file may override any flag defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .lpsolver import SimplexError
from .numerics import ConvergenceError
from .routing import CostParams, NoRouteError, build_links, simulate_dynamic, solve_lifetime_lp


def _phy_from_args(args) -> "harness.PhyParams":
    """The PhyParams defaults, overridden by each physical-layer flag
    that was given."""
    given = {
        "power": (args.power_dbm, harness.dbm_to_watts),
        "noise": (args.noise_dbm, harness.dbm_to_watts),
        "alpha": (args.alpha, float),
        "snr_min": (args.snr_db, harness.db_to_linear),
        "wavelength": (args.wavelength, float),
        "density": (args.density, float),
        "packet_len": (args.packet_len, int),
    }
    return harness.default_phy(
        **{name: convert(value) for name, (value, convert) in given.items() if value is not None}
    )


def _add_phy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--power-dbm", type=float)
    p.add_argument("--noise-dbm", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--snr-db", type=float)
    p.add_argument("--wavelength", type=float)
    p.add_argument("--density", type=float)
    p.add_argument("--packet-len", type=int)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsnlife")
    parser.add_argument("--config", help="JSON file overriding flag defaults")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output path (stdout if omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gain", help="CB/CT gain sweep (closed form vs Monte Carlo)")
    p.add_argument("kind", choices=["cb", "ct"])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--radius", type=float, nargs="+", default=list(range(10, 101, 10)))
    p.add_argument("--dist", type=float, default=1000.0)
    p.add_argument("--trials", type=int, default=10**5)
    _add_phy_flags(p)

    p = sub.add_parser("disk", help="2D-disk bypass analysis and summary table")
    p.add_argument("--b0", type=float, nargs="+", default=[2.0, 4.0, 6.0, 8.0, 10.0])
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--mode", choices=["cb", "ct", "ideal"], default="ideal")
    p.add_argument("--pure", action="store_true", help="emit the pure CB/CT curve")
    p.add_argument("--summary-only", action="store_true")
    _add_phy_flags(p)

    p = sub.add_parser("lp", help="max-min lifetime LP on a topology file")
    p.add_argument("--topology", required=True)
    p.add_argument("--no-coop", action="store_true")
    _add_phy_flags(p)

    p = sub.add_parser("simulate", help="dynamic-cost heuristic on a topology file")
    p.add_argument("--topology", required=True)
    p.add_argument("--beta1", type=float, default=2.0)
    p.add_argument("--beta2", type=float, default=2.0)
    _add_phy_flags(p)

    p = sub.add_parser("compare", help="three-algorithm lifetime comparison")
    p.add_argument("--counts", type=int, nargs="+", default=[10, 15, 20, 25, 30])
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--field", type=float, default=100.0)
    p.add_argument("--workers", type=int, default=1)
    _add_phy_flags(p)

    return parser


def _config_value(parser: argparse.ArgumentParser, key: str, action: argparse.Action, value):
    """Convert one --config override as argparse would convert the same
    value given on the command line, or stop with a one-line error."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            parser.error(f"config key {key!r} expects true or false, got {value!r}")
        return value
    listed = action.nargs in ("+", "*")
    if listed != isinstance(value, list) or (action.nargs == "+" and not value):
        parser.error(f"config key {key!r} expects {'a list' if listed else 'one value'}, got {value!r}")
    items = []
    for item in value if listed else [value]:
        try:
            item = action.type(str(item)) if action.type else str(item)
        except (TypeError, ValueError):
            parser.error(f"config key {key!r}: invalid value {item!r}")
        if action.choices is not None and item not in action.choices:
            parser.error(f"config key {key!r}: {item!r} is not one of {sorted(action.choices)}")
        items.append(item)
    return items if listed else items[0]


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        if not isinstance(overrides, dict):
            parser.error("--config: expected a JSON object")
        actions = {}  # dest -> action, global flags and the chosen subcommand's
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                actions.update((a.dest, a) for a in action.choices[args.command]._actions)
            else:
                actions[action.dest] = action
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr not in actions or not hasattr(args, attr):
                parser.error(f"unknown config key {key!r}")
            setattr(args, attr, _config_value(parser, key, actions[attr], value))
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = _apply_config(parser, sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "gain":
            table = harness.run_gain(
                _phy_from_args(args),
                kind=args.kind,
                n=args.n,
                dist=args.dist,
                radii=args.radius,
                trials=args.trials,
                seed=args.seed,
            )
            _emit(table.to_csv(), args.out)
        elif args.command == "disk":
            curves, summary = harness.run_disk(
                b0_over_a0=args.b0,
                a0=args.a0,
                grid=args.grid,
                mode=args.mode,
                phy=_phy_from_args(args),
                pure=args.pure,
            )
            text = summary.to_csv() if args.summary_only else curves.to_csv() + summary.to_csv()
            _emit(text, args.out)
        elif args.command == "lp":
            nodes = harness.load_topology(args.topology)
            links = build_links(nodes, _phy_from_args(args))
            solution = solve_lifetime_lp(nodes, links, with_coop=not args.no_coop)
            _emit(harness.flow_solution_to_json(solution), args.out)
        elif args.command == "simulate":
            nodes = harness.load_topology(args.topology)
            links = build_links(nodes, _phy_from_args(args))
            lifetime = simulate_dynamic(
                nodes,
                links,
                CostParams(beta1=args.beta1, beta2=args.beta2),
                seed=args.seed,
            )
            _emit(json.dumps({"lifetime_rounds": lifetime}) + "\n", args.out)
        elif args.command == "compare":
            table = harness.run_compare(
                counts=args.counts,
                instances=args.instances,
                field_size=args.field,
                phy=_phy_from_args(args),
                seed=args.seed,
                workers=args.workers,
            )
            _emit(table.to_csv(), args.out)
    except (NoRouteError, SimplexError, ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
