"""steady_mix — the datapath in steady state.

Long-lived flows from the repo's own traffic model replayed through
the live network: microflow hit rate is ~0.98, so classification is
cheap and host time goes to the ``netsim`` event loop, ``PvnDataPath``,
``nfv.pipeline`` and the middlebox bodies.  The workload a compiled or
batched datapath must speed up.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from bench.harness import Outcome, Probe
from bench.workloads import live_network
from repro.netproto.dns import DnsQuery, Resolver
from repro.netproto.http import HttpRequest
from repro.netproto.tls import CertificateAuthority, MitmInterceptor
from repro.netsim import Packet
from repro.workloads.pii import synth_user
from repro.workloads.traffic import DEFAULT_MIX, flow_to_packet, synth_flows

NAME = "steady_mix"
WHY = ("512 repeating flows with real HTTP/TLS/DNS payloads: microflow "
       "cache hits, so time goes to event loop, chain and middleboxes")
MEASURE_OBS_OVERHEAD = True

FULL_PACKETS = 100_000
N_FLOWS = 512
#: Of the port-443 flows, one in 4 carries a TLS handshake for the
#: validator and one in 16 a forged one (dropped by policy); of the
#: cleartext web flows, one in 3 POSTs a body that leaks PII.
HANDSHAKE_EVERY = 4
FORGED_EVERY = 16
PII_EVERY = 3
#: Step = host time to advance the simulation by this much traffic.
SLICE_SECONDS = 1e-3


def build(seed: int, scale: float) -> live_network.LiveNetwork:
    rng = np.random.default_rng([seed, 2])
    net = live_network.build_network()
    templates = _flow_templates(net, rng)
    n_packets = max(N_FLOWS, round(FULL_PACKETS * scale))
    for k in range(n_packets):
        device, template = templates[k % N_FLOWS]
        payload = template.payload
        if isinstance(payload, HttpRequest):
            # The PII scrubber rewrites requests in place.
            payload = dataclasses.replace(payload)
        net.packets.append((device, Packet(
            src=template.src, dst=template.dst, protocol=template.protocol,
            src_port=template.src_port, dst_port=template.dst_port,
            size=template.size, payload=payload, flow_id=template.flow_id,
            owner=template.owner,
        )))
    return net


def _flow_templates(net, rng) -> list[tuple[int, Packet]]:
    """One representative packet per flow, owned by a random device."""
    server = net.tls_servers["news.example.com"]
    handshake = server.respond("news.example.com")
    forged = MitmInterceptor(
        "evil", CertificateAuthority("Evil CA", b"evil"), now=net.sim.now,
    ).intercept(handshake)
    answer = Resolver("isp", [net.zone]).resolve(
        DnsQuery("news.example.com", "A"))

    flows = synth_flows(rng, N_FLOWS, DEFAULT_MIX)
    owners = rng.permutation(N_FLOWS) % live_network.N_DEVICES
    templates = []
    tls_flows = web_flows = 0
    for flow, device in zip(flows, owners.tolist()):
        user = live_network.user_of(device)
        packet = flow_to_packet(flow, owner=user,
                                src=net.devices[device].ip)
        if flow.kind == "dns":
            packet.payload = answer
        elif packet.dst_port == 443:
            tls_flows += 1
            if tls_flows % FORGED_EVERY == 0:
                packet.payload = forged
            elif tls_flows % HANDSHAKE_EVERY == 0:
                packet.payload = handshake
        elif flow.kind == "web" and not flow.https:
            web_flows += 1
            if web_flows % PII_EVERY == 0:
                leaks = synth_user(rng, user).pii_values()
                packet.payload = HttpRequest(
                    "POST", "ads.example", "/collect",
                    body=b"action=refresh&" + leaks["email"] + b"&"
                    + leaks["location"])
        templates.append((device, packet))
    return templates


def run(net: live_network.LiveNetwork, probe: Probe) -> Outcome:
    live_network.start_sources(net)
    stamps = live_network.slice_timer(net, SLICE_SECONDS)
    with probe.phase("traffic"):
        net.sim.run()
    step_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    return live_network.account(net, step_ms)
