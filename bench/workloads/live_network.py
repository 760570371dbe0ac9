"""The live switched network both datapath workloads run on.

Built from public pieces the way ``tests/integration/
test_live_network.py`` builds its world: device ``Host``s behind an
``agg`` ``SdnSwitch``, a ``core`` ``SdnSwitch``, a ``gw`` ``Host``, one
``NfvHost``, and a ``Controller`` adopted by a ``DeploymentManager``
that deploys one ``default_pvnc`` PVN per device.  Everything runs the
default configuration: obs off, tick batching off, default cache tiers.
"""

from __future__ import annotations

import collections
import dataclasses
import re
import time

from bench.harness import Outcome, layer_counts
from repro.core.deployment.manager import DeploymentManager
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc import UserEnvironment
from repro.core.pvnc.compiler import (
    default_compile_cache,
    reset_compile_cache,
)
from repro.core.session import default_pvnc
from repro.netproto.dns import TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import TlsServer, make_web_pki
from repro.netsim import Host, Link, Packet, Simulator
from repro.netsim.topology import PhysicalTopology
from repro.nfv import NfvHost
from repro.nfv.hypervisor import HostCapacity
from repro.sdn import Controller, SdnSwitch

N_DEVICES = 240
#: Offered load: one packet every 10 us of *simulated* time, so a slow
#: host never sheds load; it only takes longer per simulated second.
PACKET_INTERVAL = 10e-6
N_SOURCES = 64
ZONE_KEY = b"zone:example.com"

_DEPLOYMENT_NUMBER = re.compile(r"pvn\d+")


@dataclasses.dataclass
class LiveNetwork:
    sim: Simulator
    agg: SdnSwitch
    core: SdnSwitch
    gateway: Host
    devices: list[Host]
    controller: Controller
    manager: DeploymentManager
    nfv: NfvHost
    env: UserEnvironment
    tls_servers: dict[str, TlsServer]
    zone: Zone
    #: Per device: [live deployment id, its request] (churn redeploys).
    pvns: list[list]
    #: (device index, packet) in emission order, filled by the workload.
    packets: list[tuple[int, Packet]] = dataclasses.field(
        default_factory=list)


def user_of(device: int) -> str:
    return f"u{device}"


def build_network() -> LiveNetwork:
    reset_compile_cache()       # a fresh world starts with a cold cache
    sim = Simulator()
    topo = PhysicalTopology("live")
    topo.add_node("agg", kind="switch")
    topo.add_node("core", kind="switch")
    topo.add_node("gw", kind="server")
    topo.add_node("nfv0", kind="nfv")
    topo.add_link("agg", "core", 0.001, 10e9)
    topo.add_link("core", "gw", 0.001, 10e9)
    topo.add_link("nfv0", "agg", 0.0005, 10e9)

    gateway = Host(sim, "gw", "10.10.255.1")
    agg = SdnSwitch(sim, "agg")
    core = SdnSwitch(sim, "core")
    Link(agg, core, latency=0.001, bandwidth_bps=10e9)
    Link(core, gateway, latency=0.001, bandwidth_bps=10e9)

    controller = Controller()
    controller.adopt(agg)
    controller.adopt(core)
    controller.install_default_route("agg", "0.0.0.0/0", "core")
    controller.install_default_route("core", "0.0.0.0/0", "gw")

    nfv = NfvHost("nfv0", HostCapacity(memory_bytes=10**12, cpu_cores=10**6))
    manager = DeploymentManager(
        provider="live-isp", topo=topo, hosts={"nfv0": nfv},
        controller=controller, sim=sim,
    )
    _, trust_store, tls_servers = make_web_pki(
        sim.now, ["bank.example.com", "news.example.com"])
    zone = Zone("example.com", signer=ZoneSigner("example.com", key=ZONE_KEY))
    zone.add("news.example.com", "A", "198.51.100.6")
    anchor = TrustAnchor()
    anchor.add_zone("example.com", ZONE_KEY)
    env = UserEnvironment(trust_store=trust_store, trust_anchor=anchor)

    devices: list[Host] = []
    pvns: list[list] = []
    for i in range(N_DEVICES):
        node = f"dev_{user_of(i)}"
        topo.add_node(node, kind="host")
        topo.add_link(node, "agg", 0.002, 100e6)
        host = Host(sim, node, f"10.10.{i // 250}.{i % 250 + 2}")
        Link(host, agg, latency=0.002, bandwidth_bps=100e6)
        devices.append(host)
        pvnc = default_pvnc(user_of(i))
        request = DeploymentRequest(
            device_id=f"{user_of(i)}:mac", offer_id=1, pvnc=pvnc,
            accepted_services=pvnc.used_services(), payment=10.0,
        )
        pvns.append([deploy(manager, request, env, node), request])
    return LiveNetwork(sim, agg, core, gateway, devices, controller, manager,
                       nfv, env, tls_servers, zone, pvns)


def deploy(manager: DeploymentManager, request: DeploymentRequest,
           env: UserEnvironment, node: str) -> str:
    ack = manager.deploy(request, env, node, now=manager.sim.now)
    if not isinstance(ack, DeploymentAck):
        raise RuntimeError(f"deploy NACKed: {ack.reason}")
    return ack.deployment_id


def start_sources(net: LiveNetwork) -> None:
    """Schedule the long-lived sources that replay ``net.packets``.

    Each source re-schedules itself packet by packet, so pending events
    stay O(sources): pre-scheduling every packet would make heap
    ordering the top cost and measure the generator, not the datapath.
    """
    sim = net.sim
    devices = net.devices
    period = PACKET_INTERVAL * N_SOURCES

    def emit(pending) -> None:
        device, packet = next(pending, (None, None))
        if packet is None:
            return
        devices[device].originate(packet, via="agg")
        sim.schedule(period, emit, pending)

    for source in range(N_SOURCES):
        sim.schedule(source * PACKET_INTERVAL, emit,
                     iter(net.packets[source::N_SOURCES]))


def traffic_seconds(net: LiveNetwork) -> float:
    """Simulated time over which the sources emit."""
    return len(net.packets) * PACKET_INTERVAL


def account(net: LiveNetwork, step_ms: list[float]) -> Outcome:
    """Check conservation and every packet's fate; collect the outcome."""
    packets = [packet for _, packet in net.packets]
    delivered = [p for p in packets if p.delivered_at is not None]
    drop_reasons = collections.Counter(
        _DEPLOYMENT_NUMBER.sub("pvn#", p.drop_reason)
        for p in packets if p.dropped)
    # Accounted for: delivered at the gateway, or dropped with a reason
    # (never both, never neither).
    unaccounted = sum(
        1 for p in packets
        if (p.delivered_at is not None) == bool(p.dropped and p.drop_reason))
    conserved = all(
        c["received"] == c["forwarded"] + c["dropped"] + c["punted"]
        + c["consumed"]
        for c in (net.agg.counters(), net.core.counters()))
    if not conserved or len(net.gateway.delivered) != len(delivered):
        unaccounted = len(packets)

    processed = collections.Counter()
    compiles = invalidations = 0
    for deployment in net.manager.deployments.values():
        counters = deployment.datapath.counters()
        processed[deployment.user] += counters["packets_processed"]
        compiles += counters["pipeline_compiles"]
        invalidations += counters["pipeline_invalidations"]

    micro, mega = net.agg.flow_cache, net.agg.megaflow_cache
    index = net.manager.embedding_index
    events = net.sim.processed_events
    latency_sum = sum(p.delivered_at - p.created_at for p in delivered)
    results = {
        "agg": net.agg.counters(),
        "core": net.core.counters(),
        "pvn_packets": [processed[user_of(i)] for i in range(N_DEVICES)],
        "delivered": len(delivered),
        "drop_reasons": dict(drop_reasons),
        "latency_sum": f"{latency_sum:.9f}",
    }
    return Outcome(
        work=len(packets) - unaccounted, main_phase="traffic",
        step_ms=step_ms, attempted=len(packets), failed=unaccounted,
        results=results,
        counts=layer_counts({
            "netsim.events": events,
            "netsim.events_per_packet": events / len(packets),
            "sdn.full_classifications": (net.agg.full_classifications
                                         + net.core.full_classifications),
            # Cache figures are the ingress switch's: the PVN rules,
            # and so every reconfiguration, live on ``agg``.
            "sdn.micro_hit_rate": micro.hit_rate,
            "sdn.mega_hit_rate": mega.hit_rate,
            "sdn.micro_invalidations": micro.invalidations,
            "sdn.mega_invalidations": mega.invalidations,
            "sdn.micro_evictions": micro.evictions,
            "sdn.rules_installed": len(net.agg.table) + len(net.core.table),
            "core.datapath.pipeline_compiles": compiles,
            "core.datapath.pipeline_invalidations": invalidations,
            "core.pvnc.cache_hit_rate": default_compile_cache().hit_rate,
            "core.deployment.embed_memo_hit_rate": (
                index.hits / (index.hits + index.misses)),
            "nfv.containers_launched": net.nfv.launches,
            "middleboxes.policy_drops": net.agg.packets_consumed,
        }),
    )


def slice_timer(net: LiveNetwork, slice_seconds: float) -> list[float]:
    """Stamp host time every ``slice_seconds`` of simulated traffic.

    Returns the list the stamps land in; consecutive differences are
    the host cost of advancing the simulation by one slice.
    """
    stamps: list[float] = []
    sim = net.sim
    end = traffic_seconds(net)

    def stamp() -> None:
        stamps.append(time.perf_counter())
        if sim.now < end:
            sim.schedule(slice_seconds, stamp)

    sim.schedule(0.0, stamp)
    return stamps
