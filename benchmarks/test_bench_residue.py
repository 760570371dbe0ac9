"""Residue gate: GC-tracked objects a forwarded packet leaves behind.

Every container object that outlives a packet's trip through the
datapath — a proof list, a ``(waypoint, mac)`` tuple, a metadata dict
the collector must then track — is work for the cyclic collector
later: at about four per packet, a default-scale ``churn_reconfig``
traffic phase paid for 148 young, 13 middle and one full collection
(0.21 s of pauses on a 2-CPU host under Python 3.11); at under one, 80,
7 and none (0.02 s).  This gate runs one smoke traffic phase of
``steady_mix`` and ``churn_reconfig`` with the collector off and bounds
the growth of ``gc.get_objects()`` per packet the world emits.  The
count is a pure function of the code and the seed (Python 3.11, seed
0, scale 0.05, after one warm-up run), so it holds on any machine.

Measured: with path proofs stored as a list of ``(waypoint, mac)``
tuples (which also made the collector track each packet's metadata
dict), ``steady_mix`` read 4.28 objects per packet and
``churn_reconfig`` 2.78; with the proof as one ``bytes`` plus one
shared hop string, 0.73 and 0.16.  What remains is mostly the closures
of pipelines compiled during the phase (a smoke run spreads them over
few packets: 0.20 on ``steady_mix`` at scale 0.25) and, on
``churn_reconfig``, the microflow keys of never-repeating five-tuples,
which the caches keep by design.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_residue.py
"""

from __future__ import annotations

import contextlib
import gc

import pytest

from bench.harness import Probe
from bench.workloads import churn_reconfig, steady_mix

SEED = 0
SCALE = 0.05

#: Upper bounds, tracked objects left per packet by the traffic phase.
RESIDUE_BUDGET = {
    steady_mix: 1.0,
    churn_reconfig: 0.5,
}


def traffic_residue(workload) -> float:
    """Tracked-object growth per packet over one traffic phase run
    with the collector off, on a fresh world after a warm-up run."""
    workload.run(workload.build(SEED, SCALE), Probe())   # warm-up
    world = workload.build(SEED, SCALE)
    growth: dict[str, int] = {}

    class ResidueProbe(Probe):
        @contextlib.contextmanager
        def phase(self, name: str):
            was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            before = len(gc.get_objects())
            try:
                with super().phase(name):
                    yield
            finally:
                growth[name] = len(gc.get_objects()) - before
                if was_enabled:
                    gc.enable()

    workload.run(world, ResidueProbe())
    return growth["traffic"] / len(getattr(world, "net", world).packets)


@pytest.mark.parametrize("workload", list(RESIDUE_BUDGET),
                         ids=lambda workload: workload.NAME)
def test_tracked_objects_per_packet_within_budget(workload):
    measured = traffic_residue(workload)
    assert measured <= RESIDUE_BUDGET[workload], (
        f"{workload.NAME}: {measured:.2f} tracked objects/packet, "
        f"budget {RESIDUE_BUDGET[workload]}")
