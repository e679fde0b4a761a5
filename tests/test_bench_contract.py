"""The benchmark under bench/ drives the program through its public
names; these tests fail when a program change breaks it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wsnlife import routing
from wsnlife.harness import generate_topology

pytest.importorskip("scipy")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_installs_and_reports(phy):
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    direct_out = routing.LinkSet.direct_out
    tracer = tracing.Tracer()
    with tracer.installed():
        nodes = generate_topology(12, 80.0, 4)
        links = routing.build_links(nodes, phy)
        routing.solve_lifetime_lp(nodes, links, with_coop=True)
        routing.simulate_dynamic(nodes, links)
    assert routing.LinkSet.direct_out is direct_out
    assert tracer.counts["routing.direct_out"] > 0
    assert tracer.counts["routing.dynamic_cost"] > 0
    assert tracer.counts["lpsolver.solve_lp"] == 1
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    reported = tracer.per_layer(1)
    assert {m["name"] for m in declared} - set(reported) == {"trace.overhead_s"}
