"""E11 — §3.3 "Avoiding harm from user configurations".

"If users deploy arbitrary policies and code, they can potentially
harm other users through unfair use of network and computational
resources, or unauthorized access to other network traffic.  To
address this problem, we propose executing software middleboxes in
secure sandboxes ... Each virtual network and its associated
middleboxes can access only the traffic generated by the user who
configured it."

Three attack classes from a malicious subscriber, each against the
corresponding containment mechanism:

* **cross-user snooping** — a module that tries to read other users'
  packets (contained by sandbox owner checks + owner-scoped rules);
* **resource hogging** — a module burning unbounded CPU (contained by
  the sandbox budget: killed, fails open to PASS);
* **capability escalation** — an observe-only module returning DROP
  verdicts to censor traffic (contained by capability coercion);
* **NFV exhaustion** — one user requesting hundreds of containers
  (contained by admission control; other users still deploy).
"""

from __future__ import annotations

from repro.errors import CapacityError, SandboxViolation
from repro.experiments.harness import ExperimentResult, main
from repro.netsim.packet import Packet
from repro.nfv.container import Container, ContainerSpec
from repro.nfv.hypervisor import HostCapacity, NfvHost
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict, VerdictKind
from repro.nfv.sandbox import Capability, ResourceBudget, Sandbox


class SnoopingModule(Middlebox):
    """Tries to exfiltrate every payload it sees."""

    service = "snooper"

    def __init__(self) -> None:
        super().__init__("snooper")
        self.stolen: list[bytes] = []

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        if isinstance(packet.payload, bytes):
            self.stolen.append(packet.payload)
        return Verdict.passed()


class CensoringModule(Middlebox):
    """Granted OBSERVE only, but tries to DROP everything."""

    service = "censor"

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        return Verdict.dropped("censored")


def _snooping_trial(n_foreign: int) -> tuple[int, int]:
    """(packets offered, packets the snooper actually saw)."""
    snooper = SnoopingModule()
    sandbox = Sandbox(snooper, owner="mallory",
                      capabilities=Capability.all())
    context = ProcessingContext(now=0.0, owner="mallory")
    refused = 0
    for index in range(n_foreign):
        packet = Packet(src="10.0.0.9", dst="8.8.8.8", owner=f"victim{index}",
                        payload=b"victim secret")
        try:
            sandbox.process(packet, context)
        except SandboxViolation:
            refused += 1
    return n_foreign, len(snooper.stolen)


def _hog_trial(n_packets: int, budget_packets: int) -> tuple[int, bool]:
    """(packets processed before the kill, was it killed)."""
    hog = Middlebox("cpu_hog")
    budget = ResourceBudget(cpu_seconds=budget_packets * 20e-6,
                            per_packet_cpu=20e-6)
    sandbox = Sandbox(hog, owner="mallory", capabilities=Capability.all(),
                      budget=budget)
    context = ProcessingContext(now=0.0, owner="mallory")
    survived = 0
    for _ in range(n_packets):
        packet = Packet(src="10.0.0.9", dst="8.8.8.8", owner="mallory")
        sandbox.process(packet, context)
        if not sandbox.killed:
            survived += 1
    return survived, sandbox.killed


def _censor_trial(n_packets: int) -> int:
    """Packets that actually got dropped by the escalating module."""
    sandbox = Sandbox(CensoringModule(), owner="mallory",
                      capabilities=Capability.OBSERVE)
    context = ProcessingContext(now=0.0, owner="mallory")
    dropped = 0
    for _ in range(n_packets):
        packet = Packet(src="10.0.0.9", dst="8.8.8.8", owner="mallory")
        verdict = sandbox.process(packet, context)
        if verdict.kind is VerdictKind.DROP:
            dropped += 1
    return dropped


def _exhaustion_trial(greedy_containers: int) -> tuple[int, bool]:
    """(containers the greedy user got, could a second user deploy).

    The provider caps any one subscriber at 25% of host memory — the
    fairness control an admission policy needs so one user's enormous
    PVNC cannot starve everyone else.
    """
    host = NfvHost(
        "nfv0",
        HostCapacity(memory_bytes=600_000_000, cpu_cores=64.0),
        per_owner_memory_fraction=0.25,
    )
    admitted = 0
    for index in range(greedy_containers):
        container = Container(Middlebox(f"greedy{index}"),
                              spec=ContainerSpec(), owner="mallory")
        try:
            host.launch(container, now=0.0)
            admitted += 1
        except CapacityError:
            break
    try:
        host.launch(Container(Middlebox("victim_mb"), owner="victim"),
                    now=0.0)
        victim_ok = True
    except CapacityError:
        victim_ok = False
    return admitted, victim_ok


def run(seed: int = 0) -> ExperimentResult:
    n_packets = 200
    offered, stolen = _snooping_trial(n_packets)
    survived, killed = _hog_trial(n_packets, budget_packets=50)
    censored = _censor_trial(n_packets)
    greedy_got, victim_ok = _exhaustion_trial(greedy_containers=100)

    rows = [
        ("cross-user snooping", "sandbox owner check",
         f"{stolen}/{offered} packets exposed",
         "contained" if stolen == 0 else "BREACHED"),
        ("CPU hogging", "sandbox resource budget",
         f"killed after {survived} packets",
         "contained" if killed else "BREACHED"),
        ("capability escalation", "capability coercion",
         f"{censored}/{n_packets} drops took effect",
         "contained" if censored == 0 else "BREACHED"),
        ("NFV exhaustion", "admission control",
         f"greedy user capped at {greedy_got} containers; "
         f"victim deploy {'ok' if victim_ok else 'FAILED'}",
         "contained" if not victim_ok or greedy_got < 100 else "BREACHED"),
    ]
    metrics = {
        "snooped_packets": float(stolen),
        "hog_killed": float(killed),
        "hog_survived_packets": float(survived),
        "censored_packets": float(censored),
        "greedy_containers": float(greedy_got),
        "all_contained": float(
            stolen == 0 and killed and censored == 0 and greedy_got < 100
        ),
    }
    return ExperimentResult(
        experiment_id="E11",
        title="§3.3 avoiding harm: malicious-subscriber attacks vs "
              "containment mechanisms",
        columns=["attack", "mechanism", "outcome", "verdict"],
        rows=rows,
        metrics=metrics,
        notes=[
            "a killed module fails open to PASS: the attacker loses "
            "compute, the victim's traffic keeps flowing",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
