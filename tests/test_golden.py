"""Golden outputs: the SHA-256 of `wsnlife disk`'s stdout for each argv
in golden/disk.json (regenerate with golden/regen_disk.py)."""

import hashlib
import json
import pathlib
import shlex

import pytest

from wsnlife import cli

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "disk.json").read_text())


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_disk_output_is_golden(args, capsys):
    assert cli.main(shlex.split(args)) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN[args], f"wsnlife {args}: expected sha256 {GOLDEN[args]}, got {got}"
