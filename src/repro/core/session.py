"""One-call PVN session orchestration.

:class:`PvnSession` wires a complete world — a PVN-supporting access
provider, a device with trust material, a web PKI, DNS zones, origin
content — and exposes the library's quickstart surface:

>>> from repro import PvnSession, default_pvnc
>>> session = PvnSession.build(seed=1)
>>> outcome = session.connect(default_pvnc())
>>> outcome.deployed
True
"""

from __future__ import annotations

import dataclasses
import re

from repro.core.device import Device, PvnConnection
from repro.core.discovery.retry import RetryPolicy
from repro.core.provider import AccessProvider, DishonestyProfile, HONEST
from repro.core.pvnc.compiler import UserEnvironment
from repro.core.pvnc.dsl import parse_pvnc
from repro.core.pvnc.model import Pvnc
from repro.errors import NegotiationError
from repro.netproto.dns import Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import make_web_pki
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans

DEFAULT_PVNC_TEXT = '''
pvnc "secure-roaming" for {user}
module tls_validator mode=block
module dns_validator
module pii_detector mode=scrub
module transcoder quality=medium
module tcp_proxy reuse=yes
class https: tls_validator -> forward
class dns: dns_validator -> forward
class web_text: pii_detector -> forward
class video_image: transcoder -> tcp_proxy -> forward
default: forward
require tls_validator pii_detector
prefer transcoder tcp_proxy
budget 10.0
max-latency 1 ms
'''


#: ``DEFAULT_PVNC_TEXT`` parsed once; :func:`default_pvnc` binds it to
#: each user instead of parsing the same policy per device.
_DEFAULT_TEMPLATE = parse_pvnc(DEFAULT_PVNC_TEXT.format(user="template"))
#: A user the header's ``for (\S+)`` reads back exactly as written.
_PLAIN_USER_RE = re.compile(r"[^\s#]+")


def default_pvnc(user: str = "alice") -> Pvnc:
    """The canonical Fig. 1(a)-shaped configuration, for ``user``.

    Equal, digests included, to parsing ``DEFAULT_PVNC_TEXT`` for
    ``user``.  A user the header would not carry through unchanged
    (empty, or holding whitespace or ``#``) is parsed, so it gets the
    parser's own result or error.
    """
    if _PLAIN_USER_RE.fullmatch(user) is None:
        return parse_pvnc(DEFAULT_PVNC_TEXT.format(user=user))
    return _DEFAULT_TEMPLATE.for_user(user)


@dataclasses.dataclass
class SessionOutcome:
    """Everything `connect` produced."""

    deployed: bool
    connection: PvnConnection | None = None
    reason: str = ""

    @property
    def deployment_id(self) -> str:
        return self.connection.deployment_id if self.connection else ""

    @property
    def price_paid(self) -> float:
        return self.connection.price_paid if self.connection else 0.0


class PvnSession:
    """A ready-to-use PVN world."""

    def __init__(
        self,
        provider: AccessProvider,
        device: Device,
        sim: Simulator,
    ) -> None:
        self.provider = provider
        self.device = device
        self.sim = sim
        self.extra_providers: list[AccessProvider] = []
        self.supervisor = None      # RobustnessSupervisor, via enable_robustness
        self.injector = None        # FaultInjector, via inject_faults

    @classmethod
    def build(
        cls,
        seed: int = 0,
        user: str = "alice",
        dishonesty: DishonestyProfile = HONEST,
        supports_pvn: bool = True,
    ) -> "PvnSession":
        """Construct the canonical single-provider world."""
        sim = Simulator()
        provider = AccessProvider(
            "isp-a", sim=sim, dishonesty=dishonesty,
            supports_pvn=supports_pvn, seed=seed,
        )

        now = sim.now
        _, trust_store, servers = make_web_pki(
            now, ["bank.example.com", "news.example.com"]
        )
        signer = ZoneSigner("example.com", key=b"zone:example.com")
        zone = Zone("example.com", signer=signer)
        zone.add("bank.example.com", "A", "198.51.100.5")
        zone.add("news.example.com", "A", "198.51.100.6")
        anchor = TrustAnchor()
        anchor.add_zone("example.com", b"zone:example.com")
        open_resolvers = [Resolver(f"open{i}", [zone]) for i in range(3)]

        env = UserEnvironment(
            trust_store=trust_store,
            trust_anchor=anchor,
            open_resolvers=open_resolvers,
        )
        device = Device(user=user, mac="aa:bb:cc:00:00:01", env=env)
        provider.serve_content(
            "http://news.example.com/front", b"<html>front page</html>"
        )
        session = cls(provider=provider, device=device, sim=sim)
        session.tls_servers = servers
        return session

    def add_provider(self, provider: AccessProvider) -> None:
        """Add a second provider to the discovery zone."""
        self.extra_providers.append(provider)

    # -- lifecycle ---------------------------------------------------------

    def connect(self, pvnc: Pvnc,
                strategy: str = "best_of_zone",
                retry_policy: RetryPolicy | None = None) -> SessionOutcome:
        """Attach, discover, negotiate, deploy, verify.

        Passing a ``retry_policy`` makes discovery retry unanswered
        floods with capped exponential backoff before giving up.

        With observability enabled the whole request runs inside a
        ``session.connect`` root span whose children cover DHCP attach,
        negotiation, deployment, attestation, and the address refresh —
        the paper's one-device-request trace tree.
        """
        providers = [self.provider, *self.extra_providers]
        clock = lambda: self.sim.now  # noqa: E731
        with obs_runtime.span("session.connect", clock,
                              user=self.device.user) as root:
            with obs_runtime.span("dhcp.attach", clock) as att:
                supported = self.device.attach(self.provider)
                if att is not None:
                    att.set(supports_pvn=supported)
            if not supported and not self.extra_providers:
                if root is not None:
                    root.set(deployed=False, reason="no_pvn_support")
                return SessionOutcome(
                    deployed=False,
                    reason="access network does not support PVNs; "
                           "use tunneling fallback (repro.core.tunneling)",
                )
            try:
                connection = self.device.establish_pvn(
                    providers, pvnc, strategy=strategy,
                    retry_policy=retry_policy,
                )
            except NegotiationError as exc:
                if root is not None:
                    root.set(deployed=False, reason=str(exc))
                return SessionOutcome(deployed=False, reason=str(exc))
            if root is not None:
                root.set(deployed=True,
                         deployment_id=connection.deployment_id)
            return SessionOutcome(deployed=True, connection=connection,
                                  reason="deployed")

    # -- robustness --------------------------------------------------------

    def enable_robustness(self, policy=None):
        """Start the detect->repair->degrade supervisor on this
        session's simulator clock, wired to the device's evidence
        ledger.  Idempotent; returns the supervisor."""
        from repro.core.deployment.recovery import RobustnessSupervisor

        if self.supervisor is None:
            self.supervisor = RobustnessSupervisor(
                self.provider.manager, self.sim, policy=policy,
                ledger=self.device.ledger,
            )
        self.supervisor.start()
        return self.supervisor

    def inject_faults(self, plan):
        """Schedule a :class:`~repro.faults.FaultPlan` (or DSL text)
        against this session's provider; returns the injector."""
        from repro.faults import FaultInjector

        if self.injector is None:
            self.injector = FaultInjector(
                self.sim, self.provider, ledger=self.device.ledger,
            )
        self.injector.schedule_plan(plan)
        return self.injector

    def migrate(self, new_device_node: str, ap: str = "ap1",
                leases=None, **wireless):
        """Roam the device to another AP with a stateful handoff.

        Wires the new attachment point into the topology, then runs a
        full make-before-break migration transaction
        (:mod:`repro.core.deployment.migration`): target containers
        instantiated at the new AP, middlebox state checkpointed and
        restored, epoch-fenced atomic cutover.  On commit the device's
        connection follows the surviving deployment id; on rollback it
        keeps the intact source.  Returns the
        :class:`~repro.core.deployment.migration.MigrationResult`.
        """
        from repro.core.deployment.lifecycle import migrate_device

        if self.device.connection is None:
            raise NegotiationError("connect() first")
        if not self.provider.topo.has_node(new_device_node):
            self.provider.attach_device(new_device_node, ap=ap, **wireless)
        clock = lambda: self.sim.now  # noqa: E731
        with obs_runtime.span("session.migrate", clock,
                              source=self.device.connection.deployment_id,
                              target_node=new_device_node) as span:
            result = migrate_device(
                self.provider.manager,
                self.device.connection.deployment_id,
                new_device_node,
                now=self.sim.now,
                leases=leases,
                ledger=self.device.ledger,
            )
            if span is not None:
                span.set(committed=result.committed,
                         deployment_id=result.deployment_id)
        if result.committed:
            self.device.connection.deployment_id = result.deployment_id
            self.device.node_name = new_device_node
        return result

    def send(self, packet: Packet, traced: bool = False):
        """Run one packet through the device's live PVN data path.

        With ``traced=True`` (and observability enabled) the packet
        carries a span context — parented to the innermost active span
        if any — so the datapath synthesizes per-hop middlebox spans
        for it.  Untraced packets cost nothing extra.
        """
        if self.device.connection is None:
            raise NegotiationError("connect() first")
        deployment = self.device.connection.deployment
        if traced:
            obs = obs_runtime.current()
            if obs is not None:
                clock = lambda: self.sim.now  # noqa: E731
                with obs.spans.span("session.send", clock,
                                    packet_id=packet.packet_id) as span:
                    obs_spans.inject(packet.metadata, span)
                    outcome = deployment.datapath.process(
                        packet, now=self.sim.now)
                    span.set(action=outcome.action)
                return outcome
        return deployment.datapath.process(packet, now=self.sim.now)

    def audit(self, trials: int = 3) -> tuple[str, ...]:
        """Run the device's audit battery; returns violated test names."""
        return self.device.audit(trials=trials)

    def fallback_tunnel(self, endpoint: str = "cloud"):
        """The §3.3 unavailability fallback: a full tunnel from this
        device through the access network to a remote PVN location.

        Returns a :class:`~repro.core.tunneling.vpn.FullTunnel` over
        the provider's topology; callers use its ``effective_path`` to
        run traffic models against the tunneled deployment.
        """
        from repro.core.tunneling import FullTunnel

        if not self.provider.topo.has_node(self.device.node_name):
            self.provider.attach_device(self.device.node_name)
        return FullTunnel(
            self.provider.topo, self.device.node_name, endpoint
        )

    def teardown(self) -> None:
        if self.device.connection is not None:
            self.provider.manager.teardown(
                self.device.connection.deployment_id
            )
            self.device.connection = None
