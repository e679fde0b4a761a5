"""Rewrite disk.json: the SHA-256 of the stdout of `wsnlife disk` for
each argv it lists.

Run from anywhere as `python tests/golden/regen_disk.py`; it imports
the package from the src/ directory next to this tests/ directory, so
a copy of this script inside another checkout hashes that checkout's
outputs.  Regenerate only when a change to the disk output is meant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import shlex
import sys

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "disk.json"

ARGVS = (
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
    hashes = {args: stdout_sha256(shlex.split(args)) for args in ARGVS}
    GOLDEN.write_text(json.dumps(hashes, indent=2) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
