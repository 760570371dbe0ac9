"""Call budgets: Python-level calls per forwarded packet, per attach,
per PVNC parse and per PVNC bind.

A host-independent gate on the two paths the benchmark times, and on
the PVNC front end: it counts the ``call`` events ``sys.setprofile``
sees while a benchmark world runs (or while one PVNC parses or binds).
The count is a pure function of the code and the seed, so it holds on
any machine of the same Python minor version; a change that re-adds a
wrapper or a property read to a hot path moves it.

Measured with Python 3.11 at seed 0, scale 0.05, after one warm-up run
(builtins and C functions raise ``c_call``, not ``call``, and are not
counted).

* **Per packet** (link, switch, PVN datapath, pipeline, sandbox,
  middlebox bodies): the calls of the whole run over the packets the
  world emits.  Before the per-packet call cuts this bar came with,
  ``steady_mix`` read 111.57 calls per packet and ``churn_reconfig``
  112.41; after them, 74.01 and 79.54 (79.17 later).  With the
  middlebox verdict records and the flat trace log gone (``repro.obs``
  the only telemetry sink), 71.95 and 77.16.  With no ``Event`` handle
  per scheduled event, path proofs stamped from a per-hop key schedule,
  prebuilt constant verdicts and ``MatchMask`` hashed in C, 64.67 and
  63.73.  With the pipeline calling a PVN hop's proof stamp itself
  instead of through a wrapper closure, 62.04 and 62.29.  With no
  ``Packet.trail`` append per hop and one shared no-op span scope
  (``repro.obs.runtime.span``), 61.53 and 61.87.
  ``churn_reconfig``'s figure includes the teardown/redeploy work of
  its reconfiguration timer, amortised over its packets.
* **Per device** on ``attach_storm`` (``Device.attach`` +
  ``establish_pvn``: DHCP, discovery and negotiation, compile, embed,
  install, attest; then one audit and a teardown): the calls of the
  whole run over its devices.  Before placement read hop costs from the
  route table, a device cost 1 022.2 calls (attach 827.6, audit 155.2,
  teardown 35.1); after the attach-path cuts, 666.7 (attach 482.0,
  audit 145.2, teardown 35.1); with the topology owning its node and
  link dicts instead of a networkx graph, 656.7 (attach 472.0); with
  no per-deploy trace record and no per-verdict one in the audit
  probes, 643.7 (attach 469.0, audit 135.2, teardown 35.1); with no
  ``Event`` handle per scheduled event and proofs read through
  ``proof_chain``, 640.7 (attach 464.0, audit 137.2, teardown 35.1);
  with ``default_pvnc`` binding a parsed template, a compile-cache key
  built without ``json.dumps`` and a compiled hop that stamps its
  proof without a wrapper closure, 606.3 (attach 443.7, audit 123.2,
  teardown 35.1); with one shared no-op span scope in place of a
  ``nullcontext`` built per phase, and the unset parameters and
  write-only counters folded away, 592.3 (attach 436.7, audit 116.2,
  teardown 35.1).  The attach phase has its own bar.
* **Per PVNC parse** (``parse_pvnc`` of ``DEFAULT_PVNC_TEXT``: the §3.1
  DSL front end): the calls of one parse.  With ``shlex.split``
  tokenizing the ``module`` lines it read 306 calls; with one
  precompiled-regex tokenizer, 86 (85 since, now that the parse is
  timed on its own rather than through ``default_pvnc``).
* **Per PVNC bind** (``default_pvnc(user)``, which every world build
  runs once per device): the calls of one bind of the parsed default
  template to a user.  Parsing per device, it was the parse's 86; as a
  bind, 6.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_call_budget.py
"""

from __future__ import annotations

import contextlib
import sys

import pytest

from bench.harness import Probe
from bench.workloads import attach_storm, churn_reconfig, steady_mix
from repro.core.pvnc import parse_pvnc
from repro.core.session import DEFAULT_PVNC_TEXT, default_pvnc

SEED = 0
SCALE = 0.05

#: Upper bounds, calls per packet.
PACKET_BUDGET = {
    steady_mix: 62,
    churn_reconfig: 62,
}
#: Upper bounds on ``attach_storm``, calls per device: over the whole
#: run, and in the attach phase alone.
DEVICE_BUDGET = 593
ATTACH_BUDGET = 437
#: Upper bound, calls per ``parse_pvnc`` of the default text.
PARSE_BUDGET = 87
#: Upper bound, calls per ``default_pvnc(user)``.
BIND_BUDGET = 6


def profiled_run(workload):
    """One run of ``workload`` on a fresh world, after a warm-up run:
    the world, its Python ``call`` events, and their split by phase."""
    workload.run(workload.build(SEED, SCALE), Probe())   # warm-up
    world = workload.build(SEED, SCALE)
    calls = 0
    by_phase: dict[str, int] = {}

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    class PhaseProbe(Probe):
        @contextlib.contextmanager
        def phase(self, name: str):
            before = calls
            with super().phase(name):
                yield
            by_phase[name] = calls - before

    sys.setprofile(count)
    try:
        workload.run(world, PhaseProbe())
    finally:
        sys.setprofile(None)
    return world, calls, by_phase


@pytest.mark.parametrize("workload", list(PACKET_BUDGET),
                         ids=lambda workload: workload.NAME)
def test_calls_per_packet_within_budget(workload):
    world, calls, _ = profiled_run(workload)
    measured = calls / len(getattr(world, "net", world).packets)
    assert measured <= PACKET_BUDGET[workload], (
        f"{workload.NAME}: {measured:.2f} calls/packet, "
        f"budget {PACKET_BUDGET[workload]}")


def test_calls_per_attach_within_budget():
    world, calls, by_phase = profiled_run(attach_storm)
    devices = len(world.plan)
    per_phase = {name: round(n / devices, 1) for name, n in by_phase.items()}
    assert calls / devices <= DEVICE_BUDGET, (
        f"{calls / devices:.1f} calls/device {per_phase}, "
        f"budget {DEVICE_BUDGET}")
    assert by_phase["attach"] / devices <= ATTACH_BUDGET, (
        f"{per_phase['attach']} calls/attach, budget {ATTACH_BUDGET}")


def calls_of(function, *args) -> int:
    """The Python ``call`` events of one ``function(*args)``."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_pvnc_parse_within_budget():
    text = DEFAULT_PVNC_TEXT.format(user="alice")
    parse_pvnc(DEFAULT_PVNC_TEXT.format(user="warmup"))
    calls = calls_of(parse_pvnc, text)
    assert calls <= PARSE_BUDGET, (
        f"{calls} calls/parse, budget {PARSE_BUDGET}")


def test_calls_per_pvnc_bind_within_budget():
    default_pvnc("warmup")
    calls = calls_of(default_pvnc, "alice")
    assert calls <= BIND_BUDGET, (
        f"{calls} calls/bind, budget {BIND_BUDGET}")
