"""Datapath call budget: Python-level calls per forwarded packet.

A host-independent gate on the per-packet path (link, switch, PVN
datapath, pipeline, sandbox, middlebox bodies): it counts the ``call``
events ``sys.setprofile`` sees while a benchmark world's traffic runs,
divided by the packets that world emits.  The count is a pure function
of the code and the seed, so it holds on any machine of the same Python
minor version; a change that re-adds a wrapper or a property read to
the hot path moves it.

Measured with Python 3.11 at seed 0, scale 0.05, after one warm-up run
(builtins and C functions raise ``c_call``, not ``call``, and are not
counted).  Before the per-packet call cuts this bar came with, the
same count read ``steady_mix`` 111.57 calls per packet and
``churn_reconfig`` 112.41; after them, 74.01 and 79.54.  Each figure
covers the whole run, so ``churn_reconfig``'s includes the
teardown/redeploy work of its reconfiguration timer, amortised over
its packets.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_call_budget.py
"""

from __future__ import annotations

import sys

import pytest

from bench.harness import Probe
from bench.workloads import churn_reconfig, steady_mix

SEED = 0
SCALE = 0.05

#: Upper bounds, calls per packet.
BUDGET = {
    steady_mix: 78,
    churn_reconfig: 85,
}


def calls_per_packet(workload) -> float:
    """Python ``call`` events per packet over one run of ``workload``."""
    workload.run(workload.build(SEED, SCALE), Probe())   # warm-up
    world = workload.build(SEED, SCALE)
    net = getattr(world, "net", world)
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        workload.run(world, Probe())
    finally:
        sys.setprofile(None)
    return calls / len(net.packets)


@pytest.mark.parametrize("workload", list(BUDGET),
                         ids=lambda workload: workload.NAME)
def test_calls_per_packet_within_budget(workload):
    measured = calls_per_packet(workload)
    assert measured <= BUDGET[workload], (
        f"{workload.NAME}: {measured:.2f} calls/packet, "
        f"budget {BUDGET[workload]}")
