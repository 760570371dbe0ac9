"""Residue gate: GC-tracked objects a forwarded packet leaves behind.

Every container object that outlives a packet's trip through the
datapath — a proof list, a ``(waypoint, mac)`` tuple, a metadata dict
the collector must then track — is work for the cyclic collector
later: at about four per packet, a default-scale ``churn_reconfig``
traffic phase paid for 148 young, 13 middle and one full collection
(0.21 s of pauses on a 2-CPU host under Python 3.11); at under one, 80,
7 and none (0.02 s).  This gate runs one smoke traffic phase of
``steady_mix`` and ``churn_reconfig`` with the collector off and counts
the tracked objects the phase creates and leaves alive, per packet the
world emits: ``gc.get_objects()`` after the phase, less every object
alive before it (pinned by the snapshot, so no new object can reuse
one's id).  The count is a pure function of the code and the seed
(Python 3.11, seed 0, scale 0.05, after one warm-up run; the same
with PYTHONHASHSEED unset, 1 and 12345), so it holds on any machine.

Measured: this gate used to bound the net growth of
``len(gc.get_objects())`` over the phase, which objects built before
the phase and freed during it (on ``churn_reconfig``, about 1 400
pending container boot events) offset.  Under that count, path proofs
stored as a list of ``(waypoint, mac)`` tuples read 4.28 objects per
packet on ``steady_mix`` and 2.78 on ``churn_reconfig``; the proof as
one ``bytes`` plus one shared hop string, 0.73 and 0.16.  Counted by
identity instead, the code with a ``Packet.trail`` list per packet,
test-only counters and unset options left 1.49 (``steady_mix``) and
2.21 (``churn_reconfig``) per packet; with them deleted, 1.43 and
2.21.  What remains is mostly, on
``churn_reconfig``, the microflow keys of never-repeating five-tuples
(about 1.2 per packet), which the caches keep by design, and the
closures of pipelines compiled during the phase.

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

#: Upper bounds, tracked objects created and left per packet by the
#: traffic phase.
RESIDUE_BUDGET = {
    steady_mix: 1.43,
    churn_reconfig: 2.21,
}


def traffic_residue(workload) -> float:
    """Tracked objects created during one traffic phase and still alive
    after it, per packet, with the collector off, on a fresh world
    after a warm-up run.  The objects alive before the phase stay
    pinned by the snapshot, so no new object can reuse one's id."""
    workload.run(workload.build(SEED, SCALE), Probe())   # warm-up
    world = workload.build(SEED, SCALE)
    left: dict[str, int] = {}

    class ResidueProbe(Probe):
        @contextlib.contextmanager
        def phase(self, name: str):
            was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            before = gc.get_objects()
            pinned = {id(obj) for obj in before}
            pinned.update((id(before), id(pinned)))
            try:
                with super().phase(name):
                    yield
            finally:
                left[name] = sum(1 for obj in gc.get_objects()
                                 if id(obj) not in pinned)
                del before, pinned
                if was_enabled:
                    gc.enable()

    workload.run(world, ResidueProbe())
    return left["traffic"] / len(getattr(world, "net", world).packets)


@pytest.mark.parametrize("workload", list(RESIDUE_BUDGET),
                         ids=lambda workload: workload.NAME)
def test_tracked_objects_per_packet_within_budget(workload):
    measured = traffic_residue(workload)
    assert measured <= RESIDUE_BUDGET[workload], (
        f"{workload.NAME}: {measured:.2f} tracked objects/packet, "
        f"budget {RESIDUE_BUDGET[workload]}")
