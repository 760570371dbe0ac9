"""churn_reconfig — the datapath while the control plane rewrites it.

The same network and layers as ``steady_mix`` used the other way: the
smallest packets with no payload (no middlebox work), every packet a
never-repeating five-tuple (microflow tier useless), a 1000-rule
ingress table, and a PVN torn down and redeployed every 5 ms of
simulated time, each write flushing both cache tiers.  A cache that
speeds ``steady_mix`` but makes invalidation or install dearer shows
here.
"""

from __future__ import annotations

import dataclasses
import itertools
import time

import numpy as np

from bench.harness import Outcome, Probe
from bench.workloads import live_network
from repro.netsim import Packet
from repro.sdn.actions import Output
from repro.sdn.match import Match

NAME = "churn_reconfig"
WHY = ("never-repeating 64 B five-tuples over a 1000-rule table while a "
       "PVN is torn down and redeployed every 5 ms: cache misses and writes")

FULL_PACKETS = 80_000
#: PVN-priority rules on ``agg``: one per live PVN plus idle subscribers.
INGRESS_RULES = 1000
RECONFIG_INTERVAL = 5e-3


@dataclasses.dataclass
class World:
    net: live_network.LiveNetwork
    #: The device order in which PVNs are torn down and redeployed.
    reconfig_order: list[int]


def build(seed: int, scale: float) -> World:
    rng = np.random.default_rng([seed, 3])
    net = live_network.build_network()
    for j in range(INGRESS_RULES - live_network.N_DEVICES):
        net.controller.install(
            "agg", Match(owner=f"idle{j}"), (Output("core"),),
            priority=200, pvn_id=f"idle{j}/subscriber",
        )
    n_devices = live_network.N_DEVICES
    hop = rng.permutation(n_devices).tolist()
    n_packets = max(n_devices, round(FULL_PACKETS * scale))
    for k in range(n_packets):
        device = hop[k % n_devices]
        net.packets.append((device, Packet(
            src=net.devices[device].ip, dst="198.51.100.9",
            src_port=1024 + k // n_devices, dst_port=9000, size=64,
            owner=live_network.user_of(device),
        )))
    return World(net, rng.permutation(n_devices).tolist())


def run(world: World, probe: Probe) -> Outcome:
    net = world.net
    live_network.start_sources(net)
    sim = net.sim
    manager = net.manager
    last = live_network.traffic_seconds(net) - RECONFIG_INTERVAL
    step_ms: list[float] = []
    victims = itertools.cycle(world.reconfig_order)

    def reconfigure() -> None:
        device = next(victims)
        pvn = net.pvns[device]
        probe.begin_op()
        started = time.perf_counter()
        manager.teardown(pvn[0])
        pvn[0] = live_network.deploy(manager, pvn[1], net.env,
                                     net.devices[device].name)
        step_ms.append((time.perf_counter() - started) * 1e3)
        if sim.now < last:
            sim.schedule(RECONFIG_INTERVAL, reconfigure)

    sim.schedule(RECONFIG_INTERVAL, reconfigure)
    with probe.phase("traffic"):
        sim.run()
    return live_network.account(net, step_ms)
