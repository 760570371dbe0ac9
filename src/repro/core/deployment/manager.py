"""The PVN deployment server.

§3.1: "Upon receiving a deployment request, the PVN-supporting network
must install the PVNC and route the device's traffic through it.  Upon
successfully setting up the PVNC, the network sends an acknowledgement
to the device, which also triggers a DHCP refresh to obtain the new
addresses.  If the deployment fails for some reason, the provider
replies with a NACK and failure reason."

:class:`DeploymentManager` implements that contract: compile ->
embed -> launch containers -> build the sandboxed data path -> install
owner-scoped flow rules -> allocate the PVN subnet -> attest -> ACK.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
from typing import Callable

from repro.core.auditor.attestation import Attestation, TrustedPlatform
from repro.core.auditor.path_proof import (
    ProofKeyring,
    ProofStamp,
    make_keyring,
)
from repro.core.deployment.embedding import (
    EmbeddingIndex,
    EmbeddingResult,
    embed_pvn,
)
from repro.core.discovery.messages import (
    DeploymentAck,
    DeploymentNack,
    DeploymentRequest,
)
from repro.core.pvnc.compiler import (
    _USE_DEFAULT_CACHE,
    CompileCache,
    CompiledPvnc,
    UserEnvironment,
    build_middleboxes,
    compile_pvnc,
)
from repro.errors import AdmissionError, ReproError
from repro.middleboxes.classifier import CLASS_KEY
from repro.netproto.dhcp import DhcpServer
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import PhysicalTopology
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans
from repro.nfv.container import Container, ContainerSpec, ContainerState
from repro.nfv.hypervisor import NfvHost
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict, VerdictKind
from repro.nfv.pipeline import (
    Pipeline,
    PipelineStep,
    StepRunner,
    labeled_verdict,
)
from repro.nfv.sandbox import Capability, Sandbox
from repro.sdn.actions import ToChain
from repro.sdn.controller import Controller

_deployment_numbers = itertools.count(1)

#: The n-th deployment of a manager's lifetime (n from 1) gets
#: ``10.<200 + n // 256>.<n % 256>.0/24``: 10.200.1.0 ... 10.200.255.0,
#: then 10.201.0.0 and on, stopping short of 10.250: n <= 12 799.
_PVN_SUBNETS = (250 - 200) * 256 - 1

#: Container states in which a service is down: crashed (or stopped)
#: and not repaired yet.  Services without containers (reused physical
#: middleboxes) never go down this way.
_SERVICE_DOWN = (ContainerState.CRASHED, ContainerState.STOPPED)


def _count_deploy(obs, provider: str, outcome: str) -> None:
    obs.metrics.counter(
        "repro_deployments",
        "PVN deployment requests by outcome",
        ("provider", "outcome"),
    ).labels(provider=provider, outcome=outcome).inc()


ACTION_FORWARD = "forward"
ACTION_DROP = "drop"
ACTION_TUNNEL = "tunnel"


@dataclasses.dataclass(slots=True)
class DataPathOutcome:
    """What the PVN did with one packet.

    Slotted, and built positionally: one is made per packet.
    """

    action: str                       # forward | drop | tunnel
    tunnel_endpoint: str = ""
    added_delay: float = 0.0
    traffic_class: str = ""
    verdict_reasons: tuple[str, ...] = ()


class _CrashGate:
    """A PVN hop's precheck: a crashed (or stopped) container drops
    the packet as a service interruption, not a silent bypass, until
    the recovery layer repairs the chain or degrades to tunneling.
    The container is looked up per packet, so a repair that swaps it
    applies without a flush.  The drop verdict is built on the first
    crashed packet, not per compiled hop."""

    __slots__ = ("service", "containers", "_crashed")

    def __init__(self, service: str, containers: dict[str, Container]
                 ) -> None:
        self.service = service
        self.containers = containers
        self._crashed: Verdict | None = None

    def __call__(self, packet: Packet, context: ProcessingContext
                 ) -> Verdict | None:
        container = self.containers.get(self.service)
        if container is None or container.state not in _SERVICE_DOWN:
            return None
        if self._crashed is None:
            self._crashed = labeled_verdict(
                Verdict.dropped(f"middlebox {self.service} crashed"),
                "crashed",
            )
        return self._crashed


class PvnDataPath:
    """The per-deployment packet pipeline: classifier -> class chain ->
    terminal (Fig. 1(a) realised).

    Execution is compiled: each traffic class gets one
    :class:`~repro.nfv.pipeline.Pipeline` whose steps pre-resolve the
    sandbox/middlebox runner, the path-proof stamp, and the per-hop
    delay; a pooled :class:`ProcessingContext` is reused across
    packets.  Compiled pipelines are invalidated whenever the
    datapath's routing mode changes — degradation to a tunnel, a
    migration bridge opening or closing, or an epoch-fence adoption —
    so a stale compiled pipeline can never serve post-cutover traffic.
    Container crash state is *not* compiled in: each step rechecks its
    container at run time, so repairs that swap a container take effect
    immediately without a flush.
    """

    def __init__(
        self,
        deployment_id: str,
        compiled: CompiledPvnc,
        middleboxes: dict[str, Middlebox],
        sandboxes: dict[str, Sandbox],
        keyring: ProofKeyring,
        container_spec: ContainerSpec,
        skip_services: frozenset[str] = frozenset(),
        trusted_execution: bool = False,
        containers: dict[str, Container] | None = None,
    ) -> None:
        self.deployment_id = deployment_id
        self.compiled = compiled
        self.middleboxes = middleboxes
        self.sandboxes = sandboxes
        self.keyring = keyring
        self.container_spec = container_spec
        self.skip_services = skip_services   # dishonest-provider knob
        self.trusted_execution = trusted_execution
        self.packets_processed = 0
        # Shared with the Deployment record: repairs that swap a
        # container are visible here without re-plumbing.
        self.containers = containers if containers is not None else {}
        self._degraded_to = ""
        self._bridging_to = ""
        # Epoch fencing (split-brain protection).  The migration
        # coordinator adopts a datapath by setting these three; a
        # datapath whose epoch falls behind the registry's current
        # epoch for its lineage rejects packets instead of
        # double-processing them after a cutover it missed.
        self.fencing = None        # EpochRegistry | None
        self.lineage = ""
        self._epoch = 0
        self.stale_rejections = 0
        # Compiled fast path: per traffic class its pipeline and
        # resolved terminal (action, tunnel endpoint); a compiled
        # classifier hop, redirect pipelines, one pooled context.
        self._pipelines: dict[str, tuple[Pipeline, str, str]] = {}
        self._classifier_hop: tuple[ProofStamp, StepRunner] | None = None
        self._redirect_pipeline: Pipeline | None = None
        self._pooled_context: ProcessingContext | None = None
        self.pipeline_compiles = 0
        self.pipeline_invalidations = 0

    # -- invalidation-fenced routing-mode attributes -----------------------

    @property
    def degraded_to(self) -> str:
        """Tunnel endpoint after degradation to VPN mode ("" = none)."""
        return self._degraded_to

    @degraded_to.setter
    def degraded_to(self, endpoint: str) -> None:
        if endpoint != self._degraded_to:
            self._degraded_to = endpoint
            self.invalidate_pipelines()

    @property
    def bridging_to(self) -> str:
        """Migration TRANSFER-window bridge endpoint ("" = none)."""
        return self._bridging_to

    @bridging_to.setter
    def bridging_to(self, endpoint: str) -> None:
        if endpoint != self._bridging_to:
            self._bridging_to = endpoint
            self.invalidate_pipelines()

    @property
    def epoch(self) -> int:
        return self._epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        if value != self._epoch:
            self._epoch = value
            self.invalidate_pipelines()

    def invalidate_pipelines(self) -> None:
        """Drop every compiled pipeline (next packet recompiles).

        Part of the migration/degradation contract: any change to the
        routing mode or the epoch fence must flush compiled state so a
        superseded pipeline cannot serve another packet.
        """
        if (self._pipelines or self._classifier_hop is not None
                or self._redirect_pipeline is not None):
            self.pipeline_invalidations += 1
        self._pipelines.clear()
        self._classifier_hop = None
        self._redirect_pipeline = None

    # -- compilation --------------------------------------------------------

    def _context(self, packet: Packet, now: float) -> ProcessingContext:
        pooled = self._pooled_context
        if pooled is None:
            pooled = ProcessingContext(
                now=now, owner=packet.owner,
                trusted_execution=self.trusted_execution,
            )
            self._pooled_context = pooled
            return pooled
        return pooled.reset(now, packet.owner)

    def _hop(self, service: str) -> tuple[ProofStamp, StepRunner]:
        """A hop's proof stamp, with its HMAC key schedule (a missing
        key is an :class:`AuditError` here, once, not per packet), and
        its sandboxed runner."""
        sandbox = self.sandboxes.get(service)
        return (ProofStamp(service, self.keyring.key_for(service)),
                sandbox.process if sandbox is not None
                else self.middleboxes[service].process)

    def _make_step(self, service: str) -> PipelineStep:
        """Compile one hop: everything that is constant for the life
        of the pipeline — the stamp and runner of :meth:`_hop`, the
        crashed-container gate, the per-hop delay — is resolved now."""
        stamp, runner = self._hop(service)
        return PipelineStep(service, runner,
                            self.container_spec.per_packet_delay,
                            _CrashGate(service, self.containers), stamp)

    def _compile_class(self, traffic_class: str) -> tuple[Pipeline, str, str]:
        """Compile and cache ``(pipeline, terminal action, tunnel
        endpoint)`` for a traffic class."""
        steps = tuple(
            self._make_step(service)
            for service in self.compiled.pipeline_for(traffic_class)
            if service not in self.skip_services
        )
        pipeline = Pipeline(
            f"{self.deployment_id}/{traffic_class}", steps,
            drop_suffix=f" (pvn {self.deployment_id})",
        )
        terminal = self.compiled.terminal_for(traffic_class)
        if terminal == "drop":
            compiled = (pipeline, ACTION_DROP, "")
        elif terminal.startswith("tunnel:"):
            compiled = (pipeline, ACTION_TUNNEL, terminal.split(":", 1)[1])
        else:
            compiled = (pipeline, ACTION_FORWARD, "")
        self._pipelines[traffic_class] = compiled
        self.pipeline_compiles += 1
        return compiled

    def _redirect(self, endpoint: str, label: str,
                  packet: Packet, now: float) -> DataPathOutcome:
        """The degraded/bridged path, run through a tunnel pipeline."""
        pipeline = self._redirect_pipeline
        if pipeline is None:
            pipeline = Pipeline.tunnel(
                f"{self.deployment_id}/{label}", endpoint, label,
            )
            self._redirect_pipeline = pipeline
            self.pipeline_compiles += 1
        result = pipeline.run(packet, self._context(packet, now))
        return DataPathOutcome(ACTION_TUNNEL, result.tunnel_endpoint, 0.0, "",
                               result.labels)

    # -- per-packet span synthesis -------------------------------------------

    def _record_packet_spans(self, obs, packet: Packet, now: float,
                             outcome: DataPathOutcome) -> None:
        """Synthesize the per-hop span tree for one *traced* packet.

        Only packets carrying a :class:`~repro.obs.spans.SpanContext`
        (injected by the device/session layer when a request is being
        traced) generate spans, so bulk replay traffic pays nothing.
        Per-hop sim timings are exact where delays were charged: hop
        *i* spans ``[prefix_delay_i, prefix_delay_{i+1}]`` within the
        datapath span, whose total length is the outcome's
        ``added_delay``.
        """
        parent = obs_spans.extract(packet.metadata)
        if parent is None:
            return
        hop_labels = outcome.verdict_reasons
        if outcome.traffic_class and "classifier" not in self.skip_services:
            hop_labels = ("classifier:pass", *hop_labels)
        tracer = obs.spans
        end = now + outcome.added_delay
        root = tracer.record_span(
            "datapath.process", now, end, parent=parent,
            deployment_id=self.deployment_id,
            packet_id=packet.packet_id,
            action=outcome.action,
            traffic_class=outcome.traffic_class,
        )
        per_hop = self.container_spec.per_packet_delay
        offset = now
        for label in hop_labels:
            service = label.split(":", 1)[0]
            hop_end = min(end, offset + per_hop)
            tracer.record_span(
                f"mbox.{service}", offset, hop_end, parent=root,
                verdict=label.split(":", 1)[1] if ":" in label else "",
                deployment_id=self.deployment_id,
            )
            offset = hop_end

    # -- the per-packet fast path -------------------------------------------

    def process(self, packet: Packet, now: float) -> DataPathOutcome:
        """Run one packet through the full PVN pipeline."""
        outcome = self._process(packet, now)
        # Span synthesis is outside the fast path proper: its
        # arguments are only evaluated while spans are being traced.
        obs = obs_runtime.current()
        if obs is not None:
            self._record_packet_spans(obs, packet, now, outcome)
        return outcome

    def _process(self, packet: Packet, now: float) -> DataPathOutcome:
        if (self.fencing is not None
                and not self.fencing.is_current(self.lineage, self.epoch)):
            # A stale-epoch deployment missed a migration cutover; it
            # must reject traffic, not double-process it.  The packet
            # never reaches a middlebox and is not counted as
            # processed — the fence records the violation as evidence.
            self.stale_rejections += 1
            self.fencing.reject(self.deployment_id, self.lineage,
                                self.epoch, now)
            packet.mark_dropped(
                f"stale epoch {self.epoch} at pvn {self.deployment_id} "
                f"(current {self.fencing.current(self.lineage)})"
            )
            return DataPathOutcome(ACTION_DROP, "", 0.0, "",
                                   ("fencing:stale_epoch",))
        self.packets_processed += 1
        if self._bridging_to:
            # Mid-migration TRANSFER window: the source chain is
            # frozen for checkpointing, traffic rides the tunnel
            # fallback until COMMIT or ABORT.
            return self._redirect(self._bridging_to, "migrating:bridge",
                                  packet, now)
        if self._degraded_to:
            # Graceful degradation (§3.3 fallback): the chain is gone,
            # traffic continues end-to-end through the VPN tunnel.
            return self._redirect(self._degraded_to, "degraded:tunnel",
                                  packet, now)
        # The hit path reads the pooled context, the classifier hop and
        # the class pipeline directly; helpers run only to fill them.
        pooled = self._pooled_context
        context = (self._context(packet, now) if pooled is None
                   else pooled.reset(now, packet.owner))
        delay = 0.0

        if "classifier" not in self.skip_services:
            container = self.containers.get("classifier")
            if container is not None and container.state in _SERVICE_DOWN:
                packet.mark_dropped(
                    f"classifier crashed (pvn {self.deployment_id})"
                )
                return DataPathOutcome(ACTION_DROP, "", 0.0, "",
                                       ("classifier:crashed",))
            delay = self.container_spec.per_packet_delay
            classifier = self._classifier_hop
            if classifier is None:
                classifier = self._classifier_hop = self._hop("classifier")
            stamp, classify = classifier
            stamp(packet)
            classify(packet, context)
        traffic_class = packet.metadata.get(CLASS_KEY, "other")

        compiled = self._pipelines.get(traffic_class)
        if compiled is None:
            compiled = self._compile_class(traffic_class)
        pipeline, action, endpoint = compiled
        result = pipeline.run(packet, context)
        delay += result.added_delay
        if result.terminal_kind is VerdictKind.DROP:
            action, endpoint = ACTION_DROP, ""
        elif result.terminal_kind is VerdictKind.TUNNEL:
            action, endpoint = ACTION_TUNNEL, result.tunnel_endpoint
        elif action == ACTION_DROP:
            packet.mark_dropped(f"policy drop (pvn {self.deployment_id})")
        return DataPathOutcome(action, endpoint, delay, traffic_class,
                               result.labels)

    # -- observability ------------------------------------------------------

    @property
    def packets_total(self) -> int:
        """The monotone throughput tap the closed loop samples
        (:class:`~repro.core.deployment.telemetry.TelemetryFeed` reads
        deltas of this per tick to derive a measured load rate)."""
        return self.packets_processed

    def counters(self) -> dict[str, int]:
        counts = {
            "packets_processed": self.packets_processed,
            "stale_rejections": self.stale_rejections,
            "pipeline_compiles": self.pipeline_compiles,
            "pipeline_invalidations": self.pipeline_invalidations,
        }
        for traffic_class, compiled in sorted(self._pipelines.items()):
            counts[f"{traffic_class}_packets"] = compiled[0].packets_in
        return counts

    def publish_counters(self) -> None:
        """Fold the datapath throughput counters into the metrics
        registry (``repro_datapath_packets_total{deployment=...,
        result=...}``), and each per-class pipeline's own; a no-op
        while observability is off.
        """
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.fold_totals(
                "repro_datapath_packets",
                "Per-deployment datapath packet totals",
                ("deployment",), {"deployment": self.deployment_id},
                self.counters(),
            )
            pipelines = [compiled[0] for compiled in self._pipelines.values()]
            if self._redirect_pipeline is not None:
                pipelines.append(self._redirect_pipeline)
            for pipeline in pipelines:
                pipeline.publish()


class DeploymentState(enum.Enum):
    ACTIVE = "active"
    DEGRADED = "degraded"      # chain lost; traffic rides the VPN fallback
    SUPERSEDED = "superseded"  # migrated away; fenced against stale traffic
    TORN_DOWN = "torn_down"


@dataclasses.dataclass
class Deployment:
    """One installed PVN."""

    deployment_id: str
    user: str
    compiled: CompiledPvnc
    embedding: EmbeddingResult
    containers: dict[str, Container]
    datapath: PvnDataPath
    subnet: str
    price_paid: float
    created_at: float
    ready_at: float
    attestation: Attestation | None
    state: DeploymentState = DeploymentState.ACTIVE
    degraded_to: str = ""        # tunnel endpoint after degradation
    repairs: int = 0             # successful repair operations
    env: UserEnvironment | None = None   # for rebuilding middleboxes
    epoch: int = 0               # fencing token; bumped at migration commit
    lineage: str = ""            # stable id across migrations ("" = own id)

    @property
    def lineage_id(self) -> str:
        return self.lineage or self.deployment_id

    @property
    def setup_latency(self) -> float:
        return self.ready_at - self.created_at

    def crashed_services(self) -> tuple[str, ...]:
        """Services whose container is currently crashed."""
        return tuple(sorted(
            service for service, container in self.containers.items()
            if container.state is ContainerState.CRASHED
        ))

    @property
    def healthy(self) -> bool:
        return (self.state is DeploymentState.ACTIVE
                and not self.crashed_services())


class DeploymentManager:
    """Provider-side installation and teardown of PVNs."""

    def __init__(
        self,
        provider: str,
        topo: PhysicalTopology,
        hosts: dict[str, NfvHost],
        controller: Controller | None = None,
        sim: Simulator | None = None,
        dhcp: DhcpServer | None = None,
        platform: TrustedPlatform | None = None,
        container_spec: ContainerSpec | None = None,
        store_services: set[str] | None = None,
        store_factories: dict[str, Callable[[], Middlebox]] | None = None,
        store_capabilities: dict[str, Capability] | None = None,
        compile_cache: CompileCache | None = _USE_DEFAULT_CACHE,  # type: ignore[assignment]
        optimizer=None,
    ) -> None:
        self.provider = provider
        self.topo = topo
        self.hosts = hosts
        self.controller = controller
        self.sim = sim
        self.dhcp = dhcp
        self.platform = platform
        self.container_spec = container_spec or ContainerSpec()
        #: The access network's SDN ingress switch and egress gateway.
        self.ingress_switch = "agg"
        self.gateway_node = "gw"
        self.store_services = store_services or set()
        self.store_factories = store_factories or {}
        self.store_capabilities = store_capabilities or {}
        self.deployments: dict[str, Deployment] = {}
        self._subnets_assigned = 0
        # Control-plane fast path: memoized compiles (process-wide by
        # default; pass compile_cache=None for the uncached baseline)
        # and snapshot-validated placement memoization.
        self.compile_cache = compile_cache
        # Opt-in multi-objective placement + middlebox sharing
        # (repro.core.deployment.orchestrator.PlacementOptimizer);
        # None keeps the first-fit seed behaviour byte-identical.
        self.optimizer = optimizer
        self.embedding_index = EmbeddingIndex(topo, hosts,
                                              optimizer=optimizer)
        # Lazily created by repro.core.deployment.migration.
        self.migration_coordinator = None

    def allocate_deployment_id(self, user: str) -> str:
        """Mint a fresh deployment id (installs and migration targets)."""
        return f"{user}/pvn{next(_deployment_numbers)}"

    # -- deployment ---------------------------------------------------------

    def deploy(
        self,
        request: DeploymentRequest,
        env: UserEnvironment,
        device_node: str,
        now: float,
        skip_services: frozenset[str] = frozenset(),
        trusted_execution: bool = False,
    ) -> DeploymentAck | DeploymentNack:
        """Install a PVN; every failure becomes a NACK with a reason."""
        obs = obs_runtime.current()
        tracer = obs.spans if obs is not None else None
        deploy_span = (tracer.start_span("deployment.deploy", now,
                                         provider=self.provider,
                                         user=request.pvnc.user)
                       if tracer is not None else None)
        try:
            clock = lambda: now  # noqa: E731  (the phases do not advance it)
            with obs_runtime.span("deployment.compile", clock):
                compiled = compile_pvnc(request.pvnc, self.store_services,
                                        self.container_spec,
                                        self.store_capabilities,
                                        cache=self.compile_cache)
            with obs_runtime.span("deployment.embed", clock):
                embedding = embed_pvn(
                    compiled, self.topo, self.hosts,
                    device_node=device_node,
                    index=self.embedding_index,
                    optimizer=self.optimizer,
                )
            install_span = (tracer.start_span("deployment.install", now)
                            if tracer is not None else None)
            deployment = self._install(
                request, compiled, embedding, env, now,
                skip_services, trusted_execution,
            )
            if install_span is not None:
                # The install span runs until the parallel container
                # launch completes — its sim duration *is* the paper's
                # instantiation latency.
                tracer.end_span(install_span, deployment.ready_at,
                                deployment_id=deployment.deployment_id)
        except ReproError as exc:
            if deploy_span is not None:
                tracer.end_span(deploy_span, now, status=obs_spans.STATUS_ERROR,
                                error=f"{type(exc).__name__}: {exc}")
            if obs is not None:
                _count_deploy(obs, self.provider, "nack")
            return DeploymentNack(reason=f"{type(exc).__name__}: {exc}")
        self.deployments[deployment.deployment_id] = deployment
        if deploy_span is not None:
            tracer.end_span(deploy_span, deployment.ready_at,
                            deployment_id=deployment.deployment_id,
                            subnet=deployment.subnet)
        if obs is not None:
            _count_deploy(obs, self.provider, "ack")
        return DeploymentAck(deployment_id=deployment.deployment_id)

    def _install(
        self,
        request: DeploymentRequest,
        compiled: CompiledPvnc,
        embedding: EmbeddingResult,
        env: UserEnvironment,
        now: float,
        skip_services: frozenset[str],
        trusted_execution: bool,
    ) -> Deployment:
        user = request.pvnc.user
        if self._subnets_assigned >= _PVN_SUBNETS:
            # Refuse before anything is launched or installed.
            raise AdmissionError(
                f"{self.provider} has no PVN subnet left "
                f"({self._subnets_assigned} assigned)"
            )
        deployment_id = self.allocate_deployment_id(user)

        # 1. Launch a container per non-reused chain element; they start
        #    in parallel, so readiness is one instantiation time away.
        middleboxes = build_middleboxes(compiled, env, self.store_factories)
        containers: dict[str, Container] = {}
        # Shared instances are provider-operated like physical boxes:
        # no per-user container is launched for either.
        reused = {
            d.service for d in embedding.plan.decisions
            if d.reused_physical or d.shared
        }
        host_by_service = {
            d.service: d.node for d in embedding.plan.decisions
        }
        for service, middlebox in middleboxes.items():
            if service in reused:
                continue
            container = Container(middlebox, spec=self.container_spec,
                                  owner=user)
            host_name = host_by_service.get(service)
            host = self.hosts.get(host_name or "")
            if host is not None:
                host.launch(container, sim=self.sim, now=now)
            else:
                container.start_immediately(now)
            containers[service] = container
        ready_at = now + (
            self.container_spec.instantiation_time if containers else 0.0
        )

        # 2. Sandboxes with the compiler's capability grants.
        grants = dict(compiled.capability_grants)
        sandboxes = {
            service: Sandbox(
                middlebox, owner=user,
                capabilities=grants.get(service, Capability.OBSERVE),
            )
            for service, middlebox in middleboxes.items()
        }

        # 3. The data path, with path-proof keys for every element.
        keyring = make_keyring(
            deployment_id, list(compiled.deployment_services)
        )
        datapath = PvnDataPath(
            deployment_id=deployment_id,
            compiled=compiled,
            middleboxes=middleboxes,
            sandboxes=sandboxes,
            keyring=keyring,
            container_spec=self.container_spec,
            skip_services=skip_services,
            trusted_execution=trusted_execution,
            containers=containers,
        )

        # 4. Owner-scoped flow rules steering the user into the chain.
        if self.controller is not None:
            switch = self.controller.switch(self.ingress_switch)
            detour = self._detour_delay(embedding)
            switch.bind_chain(deployment_id,
                              self.chain_executor(datapath, detour))
            next_hop = self._next_hop_toward_gateway()
            self.controller.install(
                self.ingress_switch,
                compiled.pvn_match,
                (ToChain(deployment_id, resume_neighbor=next_hop),),
                priority=200,
                pvn_id=deployment_id,
            )

        # 5. PVN-scoped addresses for the post-ACK DHCP refresh.
        self._subnets_assigned += 1
        n = self._subnets_assigned
        subnet = f"10.{200 + n // 256}.{n % 256}.0/24"
        if self.dhcp is not None:
            self.dhcp.register_pvn_subnet(deployment_id, subnet)

        # 6. Attestation of exactly what was installed.
        attestation = None
        if self.platform is not None:
            attestation = self.platform.attest(
                deployment_id,
                request.pvnc.digest(),
                tuple(s for s in compiled.deployment_services
                      if s not in skip_services),
                now=now,
            )

        # 7. Sharing decisions take effect last, once the install can
        #    no longer fail: join the plan's shared instances (spawning
        #    any the plan left unassigned).
        if self.optimizer is not None:
            self.optimizer.commit_plan(deployment_id, embedding.plan,
                                       sim=self.sim, now=now)

        return Deployment(
            deployment_id=deployment_id,
            user=user,
            compiled=compiled,
            embedding=embedding,
            containers=containers,
            datapath=datapath,
            subnet=subnet,
            price_paid=request.payment,
            created_at=now,
            ready_at=ready_at,
            attestation=attestation,
            env=env,
        )

    def chain_executor(self, datapath: PvnDataPath, detour_delay: float):
        """The switch-side executor of ``datapath``'s chain: a C partial
        over :meth:`_chain_executor`, so binding adds no Python frame
        per packet."""
        return functools.partial(self._chain_executor, datapath, detour_delay)

    def _chain_executor(self, datapath: PvnDataPath, detour_delay: float,
                        packet: Packet, chain_id: str):
        now = self.sim.now if self.sim is not None else 0.0
        outcome = datapath.process(packet, now)
        if outcome.action != ACTION_FORWARD:
            return None
        # Report processing latency (§3.3's 45 us/container) plus the
        # placement detour (the embedding's path stretch) for the
        # switch to charge before resuming the packet.
        packet.metadata["chain_delay"] = outcome.added_delay + detour_delay
        return packet

    def _detour_delay(self, embedding: EmbeddingResult) -> float:
        """One-way extra latency of the waypointed path vs direct."""
        direct = self.topo.route_latency(embedding.device_node,
                                         embedding.gateway_node)
        via = self.topo.path_latency(embedding.plan.path)
        return max(0.0, via - direct)

    def _next_hop_toward_gateway(self) -> str:
        path = self.topo.shortest_path(self.ingress_switch, self.gateway_node)
        return path[1] if len(path) > 1 else self.gateway_node

    # -- queries and teardown ----------------------------------------------

    def deployment(self, deployment_id: str) -> Deployment:
        try:
            return self.deployments[deployment_id]
        except KeyError:
            raise ReproError(f"unknown deployment {deployment_id!r}") from None

    def deployments_for(self, user: str) -> list[Deployment]:
        return [d for d in self.deployments.values() if d.user == user]

    @property
    def active_count(self) -> int:
        return sum(
            1 for d in self.deployments.values()
            if d.state is DeploymentState.ACTIVE
        )

    def teardown(self, deployment_id: str) -> None:
        """Remove a PVN: rules, containers, and address block."""
        deployment = self.deployment(deployment_id)
        if deployment.state is DeploymentState.TORN_DOWN:
            return
        if self.controller is not None:
            self.controller.remove_pvn(deployment_id)
        for host in self.hosts.values():
            host.terminate_owner(deployment.user)
        for container in deployment.containers.values():
            container.stop()
        if self.optimizer is not None:
            # Shared containers are owned by the pool, not the user, so
            # terminate_owner left them alone; only drop the membership
            # (the autoscaler retires instances that go cold).
            self.optimizer.release(deployment_id)
        deployment.state = DeploymentState.TORN_DOWN
