"""attach_storm — the control plane under a wave of joining devices.

Every device runs the paper's whole §3.1 attach through the public
client surface (``Device.attach`` + ``Device.establish_pvn``: DHCP,
discovery and negotiation, compile, embed, install, attest, DHCP
refresh), is audited once, and is torn down.  Closed loop, one client.
The only workload where ``core.*`` and ``netproto`` do nearly all the
work and ``netsim``/``sdn``/``nfv.pipeline`` almost none.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from bench.harness import Outcome, Probe, layer_counts
from repro.core.device import Device
from repro.core.provider import AccessProvider
from repro.core.pvnc.compiler import (
    default_compile_cache,
    reset_compile_cache,
)
from repro.core.session import PvnSession, default_pvnc
from repro.errors import NegotiationError
from repro.netsim.topology import AccessNetworkSpec
from repro.nfv.hypervisor import HostCapacity

NAME = "attach_storm"
WHY = ("full Device.attach+establish_pvn, audit and teardown per device: "
       "core.* and netproto do the work, netsim/sdn/nfv.pipeline none")

FULL_ATTACHES = 2000
#: A DeploymentManager hands out 10.200.<n>.0/24 per lifetime deployment
#: and NACKs the 256th (AddressError), so a provider takes at most 250.
DEVICES_PER_PROVIDER = 250
N_APS = 4
#: One device in this many carries its own policy variant, which
#: misses the compile cache; the rest share the default policy.
VARIANT_EVERY = 10


@dataclasses.dataclass
class World:
    providers: list[AccessProvider]
    #: (device, provider, access point, policy) in attach order.
    plan: list[tuple]


def build(seed: int, scale: float) -> World:
    rng = np.random.default_rng([seed, 1])
    reset_compile_cache()       # a fresh world starts with a cold cache
    total = max(1, round(FULL_ATTACHES * scale))
    n_providers = math.ceil(total / DEVICES_PER_PROVIDER)
    env = PvnSession.build(seed=seed).device.env    # PKI, DNS trust, resolvers
    providers = []
    for p in range(n_providers):
        provider = AccessProvider(
            f"isp{p}", spec=AccessNetworkSpec(n_aps=N_APS, n_nfv_hosts=2),
            nfv_capacity=HostCapacity(memory_bytes=10**12, cpu_cores=10**6),
            seed=seed,
        )
        provider.serve_content("http://news.example.com/front",
                               b"<html>front page</html>")
        providers.append(provider)
    variant_slot = int(rng.integers(VARIANT_EVERY))
    access_points = rng.integers(N_APS, size=total)
    plan = []
    for i in range(total):
        user = f"u{i}"
        pvnc = default_pvnc(user)
        if i % VARIANT_EVERY == variant_slot:
            pvnc = dataclasses.replace(pvnc, constraints=dataclasses.replace(
                pvnc.constraints, max_price=10.0 + (i + 1) / 1000.0))
        device = Device(user=user, mac=f"aa:bb:cc:{i >> 16:02x}:"
                        f"{(i >> 8) & 255:02x}:{i & 255:02x}", env=env)
        plan.append((device, providers[i % n_providers],
                     f"ap{access_points[i]}", pvnc))
    return World(providers, plan)


def run(world: World, probe: Probe) -> Outcome:
    step_ms: list[float] = []
    attached: list[tuple[Device, AccessProvider]] = []
    failed = 0
    clock = time.perf_counter
    with probe.phase("attach"):
        for device, provider, ap, pvnc in world.plan:
            probe.begin_op()
            started = clock()
            try:
                device.attach(provider, ap=ap)
                device.establish_pvn([provider], pvnc)
            except NegotiationError:
                failed += 1
                continue
            step_ms.append((clock() - started) * 1e3)
            attached.append((device, provider))
    verdicts = []
    with probe.phase("audit"):
        for device, _ in attached:
            probe.begin_op()
            verdicts.append(device.audit(trials=1))
    failed += sum(1 for violated in verdicts if violated)

    # Read the simulated outcomes before teardown clears them.
    results = []
    for (device, _), violated in zip(attached, verdicts):
        connection = device.connection
        deployment = connection.deployment
        results.append([
            device.user,
            [[d.service, d.node, d.reused_physical]
             for d in deployment.embedding.plan.decisions],
            f"{connection.price_paid:.9f}",
            f"{deployment.setup_latency:.9f}",
            connection.device_ip,
            connection.attestation_verified,
            violated,
        ])
    with probe.phase("teardown"):
        for device, provider in attached:
            probe.begin_op()
            provider.manager.teardown(device.connection.deployment_id)
    live = sum(host.container_count for provider in world.providers
               for host in provider.hosts.values())
    if live:
        failed = 3 * len(world.plan)    # teardown left containers behind

    cache = default_compile_cache()
    indexes = [p.manager.embedding_index for p in world.providers]
    embed_lookups = sum(i.hits + i.misses for i in indexes)
    return Outcome(
        work=len(attached), main_phase="attach", step_ms=step_ms,
        attempted=3 * len(world.plan), failed=failed, results=results,
        counts=layer_counts({
            "netsim.events": sum(p.sim.processed_events
                                 for p in world.providers),
            "core.pvnc.cache_hit_rate": cache.hit_rate,
            "core.deployment.embed_memo_hit_rate": (
                sum(i.hits for i in indexes) / embed_lookups
                if embed_lookups else 0.0),
            "nfv.containers_launched": sum(
                host.launches for p in world.providers
                for host in p.hosts.values()),
        }),
        audits_per_s=len(attached) / probe.phases["audit"][0],
    )
