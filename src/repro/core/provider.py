"""The PVN-supporting access network, assembled.

An :class:`AccessProvider` bundles everything one provider runs: the
physical topology, NFV hosts, the DHCP server (advertising PVN
support), pricing, the discovery service, the deployment manager, and
— for the E9 audit experiments — a :class:`DishonestyProfile` of the
ways it may quietly misbehave.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.auditor.attestation import TrustedPlatform
from repro.core.deployment.manager import DeploymentManager
from repro.core.discovery.messages import (
    DeploymentAck,
    DeploymentNack,
    DeploymentRequest,
)
from repro.core.discovery.pricing import PricingPolicy
from repro.core.discovery.protocol import DiscoveryService
from repro.core.pvnc.compiler import UserEnvironment, builtin_services
from repro.netproto.dhcp import DhcpServer
from repro.netsim.randomness import RandomStreams
from repro.netsim.simulator import Simulator
from repro.netsim.topology import (
    AccessNetworkSpec,
    PhysicalTopology,
    attach_device,
    build_access_network,
    build_wide_area,
)
from repro.nfv.hypervisor import HostCapacity, NfvHost


@dataclasses.dataclass(frozen=True)
class DishonestyProfile:
    """Quiet provider misbehaviour the auditor must catch (E9)."""

    skip_services: frozenset[str] = frozenset()   # installed but not run
    shape_video_to_bps: float = 0.0               # covert video throttle
    modify_content: bool = False                  # inject into HTTP bodies
    inflate_path_by: float = 0.0                  # extra RTT seconds
    tamper_config: bool = False                   # attest a different PVNC


HONEST = DishonestyProfile()


class AccessProvider:
    """One access network, honest or otherwise."""

    def __init__(
        self,
        name: str,
        sim: Simulator | None = None,
        spec: AccessNetworkSpec | None = None,
        pricing: PricingPolicy | None = None,
        supports_pvn: bool = True,
        supported_services: tuple[str, ...] | None = None,
        dishonesty: DishonestyProfile = HONEST,
        seed: int = 0,
        nfv_capacity: HostCapacity | None = None,
    ) -> None:
        self.name = name
        self.sim = sim or Simulator()
        self.spec = spec or AccessNetworkSpec()
        self.dishonesty = dishonesty
        self.streams = RandomStreams(seed).spawn(f"provider:{name}")

        self.topo: PhysicalTopology = build_wide_area(
            build_access_network(self.spec, name=name)
        )
        self.hosts = {
            node: NfvHost(node, nfv_capacity)
            for node in self.topo.nodes_of_kind(
                "nfv", include_wide_area=False
            )
        }
        self.dhcp = DhcpServer(
            subnet="10.10.0.0/16",
            pvn_server=f"pvn.{name}" if supports_pvn else "",
        )
        self.platform = (
            TrustedPlatform(f"tpm.{name}", f"pk:{name}".encode())
            if supports_pvn and not dishonesty.tamper_config
            else None
        )
        self.manager = DeploymentManager(
            provider=name,
            topo=self.topo,
            hosts=self.hosts,
            sim=self.sim,
            dhcp=self.dhcp,
            platform=self.platform,
        )
        if supported_services is None:
            supported_services = tuple(sorted(builtin_services()))
        if not supports_pvn:
            supported_services = ()
        self._pending_env: UserEnvironment | None = None
        self._pending_device_node: str = ""
        self.discovery = DiscoveryService(
            provider=name,
            supported_services=supported_services,
            pricing=pricing or PricingPolicy(),
            deploy=self._deploy,
        )
        # Origin content the audit tests fetch through this network.
        self.content: dict[str, bytes] = {}

    # -- attachment -------------------------------------------------------

    def attach_device(self, device_node: str, ap: str = "ap0",
                      **wireless) -> None:
        """Wire a device host into the access topology."""
        attach_device(self.topo, device_node, ap=ap, spec=self.spec,
                      **wireless)

    # -- deployment plumbing --------------------------------------------------

    def prepare_deploy(self, env: UserEnvironment, device_node: str) -> None:
        """Stage the user-held material the next deployment will use.

        (In a real system this rides inside the deployment request; the
        simulation passes it out of band to keep messages dataclasses.)
        """
        self._pending_env = env
        self._pending_device_node = device_node

    def _deploy(self, request: DeploymentRequest
                ) -> DeploymentAck | DeploymentNack:
        if self._pending_env is None or not self._pending_device_node:
            return DeploymentNack(reason="no staged user environment")
        ack = self.manager.deploy(
            request,
            env=self._pending_env,
            device_node=self._pending_device_node,
            now=self.sim.now,
            skip_services=self.dishonesty.skip_services,
        )
        self._pending_env = None
        self._pending_device_node = ""
        return ack

    # -- network behaviour the auditor probes ------------------------------------

    def serve_content(self, url: str, body: bytes) -> None:
        self.content[url] = body

    def fetch_through_network(self, url: str) -> bytes:
        """What a device sees when fetching ``url`` via this network."""
        body = self.content.get(url, b"")
        if self.dishonesty.modify_content and body:
            return body + b"<!-- injected-by-isp -->"
        return body

    def measure_throughput(self, kind: str, device_node: str = "") -> float:
        """Observed bulk throughput for traffic that looks like ``kind``."""
        rng = self.streams.get("throughput")
        noisy = self.spec.wireless_bandwidth_bps * float(rng.uniform(0.9, 1.0))
        if kind == "video" and self.dishonesty.shape_video_to_bps > 0:
            return min(noisy, self.dishonesty.shape_video_to_bps)
        return noisy

    def measure_rtt(self, device_node: str) -> float:
        """Probed RTT, including any covert path inflation."""
        rng = self.streams.get("rtt")
        base = self.topo.rtt(device_node, "gw")
        jitter = float(rng.uniform(0.0, 0.002))
        return base + jitter + self.dishonesty.inflate_path_by
