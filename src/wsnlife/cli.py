"""Command-line front end.

Subcommands: gain, disk, lp, simulate, compare.  dB/dBm values are
accepted on the command line and converted to linear internally.
Only the flags that were given reach the library: a flag left unset
keeps the default of the function it feeds.  A JSON --config file may
set any flag, and beats the same flag on the command line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .gainmodels import PhyParams, db_to_linear, dbm_to_watts
from .lpsolver import SimplexError
from .numerics import ConvergenceError
from .routing import CostParams, NoRouteError, build_links, simulate_dynamic, solve_lifetime_lp

# physical-layer flag dest -> (flag type, PhyParams field, conversion
# to the field's unit)
_PHY_FLAGS = {
    "power_dbm": (float, "power", dbm_to_watts),
    "noise_dbm": (float, "noise", dbm_to_watts),
    "alpha": (float, "alpha", float),
    "snr_db": (float, "snr_min", db_to_linear),
    "wavelength": (float, "wavelength", float),
    "density": (float, "density", float),
    "packet_len": (int, "packet_len", int),
}


def _phy_from_args(given: dict) -> PhyParams:
    """The PhyParams defaults, overridden by each physical-layer flag
    that was given; those flags are taken out of given."""
    return harness.default_phy(
        **{field: conv(given.pop(dest)) for dest, (_t, field, conv) in _PHY_FLAGS.items() if dest in given}
    )


def _add_phy_flags(p: argparse.ArgumentParser) -> None:
    for dest, (kind, _field, _conv) in _PHY_FLAGS.items():
        p.add_argument("--" + dest.replace("_", "-"), type=kind)


def build_parser() -> argparse.ArgumentParser:
    """Every flag's dest is the name of the library parameter it sets,
    and an unset flag leaves no attribute (argparse.SUPPRESS)."""
    parser = argparse.ArgumentParser(prog="wsnlife", argument_default=argparse.SUPPRESS)
    parser.add_argument("--config", help="JSON file of flag values; they beat the command line")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output path (stdout if omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = command("gain", "CB/CT gain sweep (closed form vs Monte Carlo)")
    p.add_argument("kind", choices=["cb", "ct"])
    p.add_argument("--n", type=int)
    p.add_argument("--radius", dest="radii", type=float, nargs="+")
    p.add_argument("--dist", type=float)
    p.add_argument("--trials", type=int)
    _add_phy_flags(p)

    p = command("disk", "2D-disk bypass analysis and summary table")
    p.add_argument("--b0", dest="b0_over_a0", type=float, nargs="+")
    p.add_argument("--a0", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--mode", choices=["cb", "ct", "ideal"])
    p.add_argument("--pure", action="store_true", help="emit the pure CB/CT curve")
    p.add_argument("--summary-only", action="store_true")
    _add_phy_flags(p)

    p = command("lp", "max-min lifetime LP on a topology file")
    p.add_argument("--topology", required=True)
    p.add_argument("--no-coop", dest="with_coop", action="store_false")
    _add_phy_flags(p)

    p = command("simulate", "dynamic-cost heuristic on a topology file")
    p.add_argument("--topology", required=True)
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    _add_phy_flags(p)

    p = command("compare", "three-algorithm lifetime comparison")
    p.add_argument("--counts", type=int, nargs="+")
    p.add_argument("--instances", type=int)
    p.add_argument("--field", dest="field_size", type=float)
    p.add_argument("--workers", type=int)
    _add_phy_flags(p)

    return parser


def _config_value(parser: argparse.ArgumentParser, key: str, action: argparse.Action, value):
    """Convert one --config value as argparse would convert the same
    value given on the command line, or stop with a one-line error."""
    if action.nargs == 0:  # store_true / store_false
        if not isinstance(value, bool):
            parser.error(f"config key {key!r} expects true or false, got {value!r}")
        return action.const if value else not action.const
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
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        if not isinstance(values, dict):
            parser.error("--config: expected a JSON object")
        # Config keys are flag names without the dashes (a positional's
        # dest), for the global flags and the chosen subcommand's.
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = {}
        for action in parser._actions + sub.choices[args.command]._actions:
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
                names = action.option_strings or [action.dest]
                actions.update((name.lstrip("-"), action) for name in names)
        for key, value in values.items():
            action = actions.get(key.replace("_", "-"))
            if action is None:
                parser.error(f"unknown config key {key!r}")
            setattr(args, action.dest, _config_value(parser, key, action, value))
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    given = vars(_apply_config(parser, sys.argv[1:] if argv is None else argv))
    command = given.pop("command")
    out = given.pop("out", None)
    given.pop("config", None)
    try:
        phy = _phy_from_args(given)
        if command == "gain":
            text = harness.run_gain(phy=phy, **given).to_csv()
        elif command == "compare":
            text = harness.run_compare(phy=phy, **given).to_csv()
        elif command == "disk":
            given.pop("seed", None)  # the disk analysis draws nothing at random
            summary_only = given.pop("summary_only", False)
            small = [b for b in given.get("b0_over_a0", ()) if not b >= 1.0]
            if small:
                raise ValueError(f"--b0 is b0/a0 and must be at least 1, got {small}")
            curves, summary = harness.run_disk(phy=phy, **given)
            text = summary.to_csv() if summary_only else curves.to_csv() + summary.to_csv()
        else:
            nodes = harness.load_topology(given.pop("topology"))
            links = build_links(nodes, phy)
            given.pop("seed", None)  # neither the LP nor the heuristic draws at random
            if command == "lp":
                text = harness.flow_solution_to_json(solve_lifetime_lp(nodes, links, **given))
            else:
                betas = {name: given.pop(name) for name in ("beta1", "beta2") if name in given}
                lifetime = simulate_dynamic(nodes, links, CostParams(**betas), **given)
                text = json.dumps({"lifetime_rounds": lifetime}) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (NoRouteError, SimplexError, ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
