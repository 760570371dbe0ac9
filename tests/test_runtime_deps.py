"""The runtime needs numpy and nothing else outside the standard library.

``networkx`` is a test dependency only: the route oracle of
``tests/netsim/test_route_table.py``.  A fresh interpreter, so that this
suite's own imports cannot hide a regression, imports the package and
its experiments, builds an access network, routes on it and runs F1A,
then checks that ``networkx`` was never imported.
"""

import os
import pathlib
import subprocess
import sys

from tests.test_experiments import FAST_PARAMS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = f"""
import sys

import repro
import repro.experiments
from repro.netsim.topology import attach_device, build_access_network

topo = build_access_network()
attach_device(topo, "phone", ap="ap0")
assert topo.shortest_path("phone", "gw") == ["phone", "ap0", "agg", "core", "gw"]
result = repro.experiments.ALL_EXPERIMENTS["F1A"](
    seed=1, **{FAST_PARAMS["F1A"]!r})
assert result.metric("correct_fraction") == 1.0
assert "networkx" not in sys.modules, "networkx was imported"
"""


def test_runtime_imports_no_networkx():
    path = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr[-2000:]
