"""Golden outputs: the SHA-256 of `wsnlife`'s stdout for each argv in
golden/disk.json and golden/network.json, run from the golden/
directory so topology paths resolve there (regenerate with
golden/regen.py)."""

import hashlib
import json
import pathlib
import shlex

import pytest

from wsnlife import cli

HERE = pathlib.Path(__file__).parent / "golden"
DISK = json.loads((HERE / "disk.json").read_text())
NETWORK = json.loads((HERE / "network.json").read_text())


def assert_golden(args, expected, capsys, monkeypatch):
    monkeypatch.chdir(HERE)
    assert cli.main(shlex.split(args)) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == expected, f"wsnlife {args}: expected sha256 {expected}, got {got}"


@pytest.mark.parametrize("args", sorted(DISK))
def test_disk_output_is_golden(args, capsys, monkeypatch):
    assert_golden(args, DISK[args], capsys, monkeypatch)


@pytest.mark.parametrize("args", sorted(NETWORK))
def test_network_output_is_golden(args, capsys, monkeypatch):
    assert_golden(args, NETWORK[args], capsys, monkeypatch)
