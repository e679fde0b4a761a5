import importlib
import sys
from pathlib import Path

import pytest

from wsnlife.harness import default_phy
from wsnlife.routing import SensorNode

# Six-node snapshot topology: node 1 is the sink, node 2 the only node
# in direct reach of it, nodes 3/5/6 reach node 2, node 4 reaches 5 and
# 6, and node 6 can reach the sink cooperatively with helper 5.
# Coordinates are in units of the single-hop range.
SNAPSHOT_COORDS = {
    1: (0.00, 0.00),
    2: (0.95, 0.00),
    3: (0.70, 0.90),
    4: (1.95, -0.55),
    5: (1.05, -0.25),
    6: (1.22, -0.62),
}


@pytest.fixture(scope="session")
def phy():
    return default_phy()


@pytest.fixture(scope="session")
def snapshot_nodes(phy):
    a0 = phy.hop_range()
    return [
        SensorNode(id=i, x=x * a0, y=y * a0, rate=(-5.0 if i == 1 else 1.0))
        for i, (x, y) in SNAPSHOT_COORDS.items()
    ]


@pytest.fixture(scope="session")
def workloads():
    """The bench's workloads module, bench/workloads.py, imported with
    bench/ on sys.path for the import only."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
