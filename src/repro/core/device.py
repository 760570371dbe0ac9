"""The PVN-enabled device agent.

Drives the full client-side lifecycle of §3.1: DHCP attach (PVN
support discovery), discovery-message flooding, negotiation under the
user's constraints, deployment acceptance, attestation verification,
the post-ACK address refresh, and ongoing audits feeding the evidence
ledger and provider reputations.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.auditor.attestation import AttestationVerifier
from repro.core.auditor.measurements import (
    content_modification_test,
    differentiation_test,
    middlebox_execution_test,
    path_inflation_test,
)
from repro.core.auditor.reputation import ReputationSystem
from repro.core.auditor.violations import EvidenceLedger
from repro.core.deployment.manager import Deployment
from repro.core.discovery.messages import DeploymentNack
from repro.core.discovery.negotiation import (
    NegotiationOutcome,
    STRATEGY_BEST_OF_ZONE,
    build_request,
    negotiate,
    negotiate_with_retry,
)
from repro.core.discovery.protocol import DiscoveryClient
from repro.core.discovery.retry import RetryPolicy
from repro.core.pvnc.compiler import UserEnvironment, compile_pvnc
from repro.core.pvnc.model import Pvnc
from repro.core.provider import AccessProvider
from repro.errors import AttestationError, NegotiationError
from repro.netproto.dhcp import DhcpClient
from repro.netsim.packet import Packet
from repro.netsim.randomness import RandomStreams
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans


@dataclasses.dataclass
class PvnConnection:
    """A live device<->PVN association."""

    provider: AccessProvider
    deployment_id: str
    services: tuple[str, ...]
    price_paid: float
    device_ip: str
    negotiation: NegotiationOutcome
    attestation_verified: bool

    @property
    def deployment(self) -> Deployment:
        return self.provider.manager.deployment(self.deployment_id)


def _span_path_evidence(obs, probe_span) -> tuple[str, ...]:
    """The observed path under ``probe_span``, as evidence strings.

    Each finished descendant span becomes ``"name@start"`` — the
    per-hop middlebox spans the datapath synthesized from the probe
    packets, i.e. the path the provider *actually* executed.  Empty
    when tracing was off or the probes produced no hop spans.
    """
    evidence = []
    for span in obs.spans.walk(probe_span):
        if span.span_id == probe_span.span_id:
            continue
        evidence.append(f"{span.name}@{span.start:.6f}")
    return tuple(evidence)


class Device:
    """One user's PVN-capable device."""

    def __init__(
        self,
        user: str,
        mac: str,
        env: UserEnvironment,
        node_name: str = "",
    ) -> None:
        self.user = user
        self.mac = mac
        self.env = env
        self.node_name = node_name or f"dev_{user}"
        self.dhcp = DhcpClient(mac)
        self.discovery = DiscoveryClient(device_id=f"{user}:{mac}")
        self.verifier = AttestationVerifier()
        self.ledger = EvidenceLedger()
        self.reputation = ReputationSystem()
        self.connection: PvnConnection | None = None

    @functools.cached_property
    def _retry_rng(self):
        """Per-device seeded jitter stream for retry backoff, derived
        on the first retry: an attach that never retries pays nothing
        for it, and the draws are the same whenever it is derived."""
        return RandomStreams(0).spawn(f"device:{self.user}").get("retry")

    # -- attach -----------------------------------------------------------

    def attach(self, provider: AccessProvider, ap: str = "ap0",
               **wireless) -> bool:
        """Join the access network; returns True if PVNs are advertised."""
        if not provider.topo.has_node(self.node_name):
            provider.attach_device(self.node_name, ap=ap, **wireless)
        self.dhcp.run_exchange(provider.dhcp, now=provider.sim.now)
        return self.dhcp.network_supports_pvn

    # -- establish ------------------------------------------------------------

    def establish_pvn(
        self,
        providers: list[AccessProvider],
        pvnc: Pvnc,
        strategy: str = STRATEGY_BEST_OF_ZONE,
        retry_policy: RetryPolicy | None = None,
    ) -> PvnConnection:
        """Negotiate, deploy, verify, and refresh.  Raises on failure.

        With a ``retry_policy``, discovery floods that go unanswered
        (provider crashed, DM eaten by the network) are retried with
        capped exponential backoff instead of failing on first silence.
        """
        if not providers:
            raise NegotiationError("no providers in range")
        now = providers[0].sim.now
        clock = lambda: providers[0].sim.now  # noqa: E731
        with obs_runtime.span("device.establish_pvn", clock, user=self.user,
                              providers=len(providers)):
            compiled = compile_pvnc(pvnc)
            with obs_runtime.span("discovery.negotiate", clock,
                                  strategy=strategy) as nego_span:
                if retry_policy is not None:
                    outcome = negotiate_with_retry(
                        self.discovery,
                        [p.discovery for p in providers],
                        pvnc,
                        compiled.estimate,
                        now=now,
                        policy=retry_policy,
                        rng=self._retry_rng,
                        strategy=strategy,
                    )
                else:
                    outcome = negotiate(
                        self.discovery,
                        [p.discovery for p in providers],
                        pvnc,
                        compiled.estimate,
                        now=now,
                        strategy=strategy,
                    )
                if nego_span is not None:
                    nego_span.set(accepted=outcome.accepted,
                                  provider=outcome.provider)
            if (not outcome.accepted or outcome.offer is None
                    or outcome.plan is None):
                raise NegotiationError(
                    f"negotiation failed: {outcome.reason}")

            provider = next(
                p for p in providers if p.name == outcome.provider
            )
            provider.prepare_deploy(self.env, self.node_name)
            request = build_request(self.discovery.device_id, outcome.offer,
                                    pvnc, outcome.plan)
            # The provider-side deployment.deploy span nests here.
            response = provider.discovery.handle_deployment_request(
                request, now=provider.sim.now
            )
            if isinstance(response, DeploymentNack):
                raise NegotiationError(
                    f"deployment NACKed: {response.reason}")

            deployment = provider.manager.deployment(response.deployment_id)
            with obs_runtime.span("attestation.verify", clock) as att_span:
                verified = self._verify_attestation(provider, deployment,
                                                    request)
                if att_span is not None:
                    att_span.set(verified=verified)

            with obs_runtime.span("dhcp.refresh", clock):
                # Roaming onto a provider we discovered but never
                # attached to (the §3.3 unavailability fallback) needs
                # a lease there first.
                if self.mac not in provider.dhcp.leases:
                    self.dhcp.run_exchange(provider.dhcp,
                                           now=provider.sim.now)
                # §3.1: the ACK triggers a DHCP refresh into the PVN
                # subnet.
                lease = provider.dhcp.refresh_into_pvn(
                    self.mac, response.deployment_id, now=provider.sim.now
                )

            self.connection = PvnConnection(
                provider=provider,
                deployment_id=response.deployment_id,
                services=outcome.plan.services,
                price_paid=outcome.plan.price,
                device_ip=lease.ip,
                negotiation=outcome,
                attestation_verified=verified,
            )
            return self.connection

    def _verify_attestation(self, provider, deployment, request) -> bool:
        if provider.platform is not None:
            self.verifier.trust_platform(
                provider.platform.platform, provider.platform.vendor_key()
            )
        if deployment.attestation is None:
            return False
        try:
            self.verifier.verify(
                deployment.attestation,
                expected_digest=request.pvnc.digest(),
                expected_services=deployment.compiled.deployment_services,
                now=provider.sim.now,
            )
        except AttestationError:
            return False
        return True

    # -- audits ---------------------------------------------------------------

    def audit(self, trials: int = 3) -> tuple[str, ...]:
        """Run the §3.1 measurement battery against the live PVN.

        Returns the names of violated tests, as a tuple (a clean audit
        returns the shared empty tuple, so a caller that keeps one
        result per device keeps nothing for it); evidence lands in the
        ledger and the provider's reputation is updated per test.

        With observability enabled each measurement runs inside a span
        (``audit.<test>``) and the probe packets carry the audit span's
        context, so the per-hop middlebox spans the datapath
        synthesizes parent under the audit — the span tree *is* the
        observed path, and it is attached to any middlebox-execution
        violation as evidence alongside the cryptographic path proof.
        """
        if self.connection is None:
            raise NegotiationError("no live PVN connection to audit")
        provider = self.connection.provider
        deployment = self.connection.deployment
        now = provider.sim.now
        clock = lambda: provider.sim.now  # noqa: E731
        obs = obs_runtime.current()
        results = []

        with obs_runtime.span("audit.run", clock, user=self.user,
                              deployment_id=deployment.deployment_id
                              ) as audit_span:
            with obs_runtime.span("audit.differentiation", clock):
                results.append(differentiation_test(
                    lambda kind: provider.measure_throughput(
                        kind, self.node_name),
                    trials=trials,
                ))
            if provider.content:
                import hashlib

                expected = {
                    url: hashlib.sha256(body).digest()
                    for url, body in provider.content.items()
                }
                with obs_runtime.span("audit.content_modification",
                                      clock):
                    results.append(content_modification_test(
                        provider.fetch_through_network, expected
                    ))
            with obs_runtime.span("audit.path_inflation", clock):
                results.append(path_inflation_test(
                    lambda: provider.measure_rtt(self.node_name),
                    expected_rtt=deployment.embedding.expected_rtt,
                    trials=trials,
                ))
            with obs_runtime.span("audit.middlebox_execution",
                                  clock) as probe_span:
                results.append(middlebox_execution_test(
                    lambda: self._send_probe(deployment, probe_span),
                    deployment.datapath.keyring,
                    required_waypoints=self._probe_waypoints(deployment),
                    trials=trials,
                ))

            violated = []
            for result in results:
                evidence = ()
                if (obs is not None and result.violated
                        and result.test == "middlebox_execution"
                        and probe_span is not None):
                    evidence = _span_path_evidence(obs, probe_span)
                self.ledger.record_result(
                    result, provider.name, deployment.deployment_id, now,
                    evidence_spans=evidence,
                )
                self.reputation.observe(provider.name,
                                        passed=not result.violated)
                if result.violated:
                    violated.append(result.test)
            if audit_span is not None:
                audit_span.set(violations=len(violated),
                               tests=len(results))
            return tuple(violated)

    def rank_providers(
        self, quotes: list[tuple[str, float]], price_weight: float = 0.1
    ) -> list[str]:
        """Order candidate providers by reputation-and-price utility,
        excluding blacklisted ones (§3.3's market pressure).

        ``quotes`` is (provider name, quoted price) per candidate.
        """
        from repro.core.auditor.reputation import choose_provider

        remaining = list(quotes)
        ranked: list[str] = []
        while remaining:
            best = choose_provider(self.reputation, remaining,
                                   price_weight=price_weight)
            if best is None:
                break
            ranked.append(best)
            remaining = [q for q in remaining if q[0] != best]
        return ranked

    def _send_probe(self, deployment: Deployment,
                    span: "obs_spans.Span | None" = None) -> Packet:
        probe = Packet(
            src=self.connection.device_ip if self.connection else "10.0.0.1",
            dst="198.51.100.10", dst_port=80, owner=self.user,
        )
        if span is not None:
            # The probe carries the audit span's context, so the
            # datapath's synthesized per-hop spans parent under it.
            obs_spans.inject(probe.metadata, span)
        deployment.datapath.process(
            probe, now=deployment.created_at
        )
        return probe

    def _probe_waypoints(self, deployment: Deployment) -> list[str]:
        pipeline = deployment.compiled.pipeline_for("web_text")
        return ["classifier", *pipeline]
