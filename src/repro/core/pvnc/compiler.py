"""The PVNC compiler: user-readable configuration -> deployable program.

§3.1: high-level tools "compile user-readable configurations into
low-level SDN code that is run in the network(s) where the PVN is
deployed".  The compiler output, a :class:`CompiledPvnc`, contains
everything the deployment manager needs:

* the owner-scoped SDN :class:`~repro.sdn.match.Match` that steers the
  user's traffic into the PVN,
* placement requests for the classifier and every used module,
* the per-class chain layout and terminals (Fig. 1(a)),
* resource and latency estimates (advertised in discovery messages),
* capability grants for each module's sandbox.

Builtin module construction is table-driven: :data:`BUILTIN_REGISTRY`
maps a service name to a factory taking the :class:`ModuleSpec` and the
user's :class:`UserEnvironment` (trust material, resolver set, etc.).

Compilation is memoized through a content-addressed
:class:`CompileCache`: the cache key covers the *policy* — modules,
class rules, constraints — plus every compile input that shapes the
output (store services, store capability grants, the container spec)
and the compiler/DSL revision, but **not** the user.  Two devices with
byte-identical policies therefore share one compiled artifact (the
"store app" case); only the owner-scoped steering match is rebound per
user, which is O(1).  Bumping the revision (a DSL or registry change)
invalidates every cached entry.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Callable

from repro.core.pvnc.model import (
    ModuleSpec,
    Pvnc,
    ResourceEstimate,
    SOURCE_STORE,
)
from repro.core.pvnc.validation import ensure_valid
from repro.errors import CompilationError
from repro.middleboxes import (
    CompressionProxy,
    DnsValidator,
    MalwareDetector,
    PiiDetector,
    Prefetcher,
    SplitTcpProxy,
    TlsValidator,
    TrackerBlocker,
    TrafficClassifier,
    Transcoder,
)
from repro.netproto.dns import Resolver, TrustAnchor
from repro.netproto.tls import TrustStore
from repro.nfv.container import ContainerSpec
from repro.nfv.middlebox import Middlebox
from repro.nfv.placement import PlacementRequest
from repro.nfv.sandbox import Capability
from repro.obs import runtime as obs_runtime
from repro.sdn.match import Match

#: Bumped when the compiler's output format or the DSL semantics change
#: incompatibly; part of every cache key, so stale artifacts from an
#: older compiler revision can never be served.
COMPILER_REVISION = 1

_SERVICE_OF = operator.attrgetter("service")

#: What an absent ``container_spec`` compiles with.
_DEFAULT_CONTAINER = ContainerSpec()

#: A :class:`CompileCache` key: the policy digest, then the compiler
#: revisions, store services, store grants and container spec.
CacheKey = tuple[bytes, tuple]


@dataclasses.dataclass
class UserEnvironment:
    """The user-held material builtin modules are constructed with."""

    trust_store: TrustStore | None = None
    trust_anchor: TrustAnchor | None = None
    open_resolvers: list[Resolver] = dataclasses.field(default_factory=list)
    tracker_blocklist: tuple[str, ...] = ()
    custom_pii: list[bytes] = dataclasses.field(default_factory=list)
    session_key: bytes = b""    # for encryption-everywhere sealing


@dataclasses.dataclass(frozen=True)
class BuiltinEntry:
    """Registry row for one builtin service."""

    factory: Callable[[ModuleSpec, UserEnvironment], Middlebox]
    capabilities: Capability
    container: ContainerSpec = ContainerSpec()


def _make_tls(spec: ModuleSpec, env: UserEnvironment) -> Middlebox:
    if env.trust_store is None:
        raise CompilationError("tls_validator needs a trust_store in the "
                               "user environment")
    return TlsValidator(env.trust_store, mode=spec.param("mode", "block"))


def _make_dns(spec: ModuleSpec, env: UserEnvironment) -> Middlebox:
    if env.trust_anchor is None:
        raise CompilationError("dns_validator needs a trust_anchor in the "
                               "user environment")
    return DnsValidator(env.trust_anchor, env.open_resolvers)


def _make_pii(spec: ModuleSpec, env: UserEnvironment) -> Middlebox:
    return PiiDetector(
        mode=spec.param("mode", "scrub"),
        custom_strings=list(env.custom_pii),
        tunnel_encrypted_to=spec.param("tunnel_encrypted_to", ""),
    )


def _make_tracker(spec: ModuleSpec, env: UserEnvironment) -> Middlebox:
    if env.tracker_blocklist:
        return TrackerBlocker(blocklist=env.tracker_blocklist)
    return TrackerBlocker()


def _session_key(env: UserEnvironment) -> bytes:
    return env.session_key or b"pvn-default-session-key"


def _make_encryptor(spec: ModuleSpec, env: UserEnvironment) -> Middlebox:
    from repro.middleboxes.encryptor import EncryptionEverywhere

    return EncryptionEverywhere(key=_session_key(env))


def _make_decryptor(spec: ModuleSpec, env: UserEnvironment) -> Middlebox:
    from repro.middleboxes.encryptor import DecryptionGateway

    return DecryptionGateway(key=_session_key(env))


def _make_replica_selector(spec: ModuleSpec, env: UserEnvironment
                           ) -> Middlebox:
    import numpy as np

    from repro.middleboxes.replica_selector import ReplicaSelector

    replicas = [r for r in spec.param("replicas").split(",") if r]
    if not replicas:
        raise CompilationError(
            "replica_selector needs a replicas=<ip,ip,...> parameter"
        )
    return ReplicaSelector(
        service_cidr=spec.param("cidr", "0.0.0.0/0"),
        replicas=replicas,
        rng=np.random.default_rng(int(spec.param("seed", "0"))),
    )


def _make_sensor_privacy(spec: ModuleSpec, env: UserEnvironment
                         ) -> Middlebox:
    from repro.middleboxes.sensor_privacy import SensorPrivacyGuard

    return SensorPrivacyGuard()


BUILTIN_REGISTRY: dict[str, BuiltinEntry] = {
    "classifier": BuiltinEntry(
        lambda spec, env: TrafficClassifier(),
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "tls_validator": BuiltinEntry(
        _make_tls,
        Capability.OBSERVE | Capability.BLOCK | Capability.REWRITE,
    ),
    "dns_validator": BuiltinEntry(
        _make_dns,
        Capability.OBSERVE | Capability.BLOCK | Capability.REWRITE,
    ),
    "pii_detector": BuiltinEntry(
        _make_pii,
        Capability.all(),
    ),
    "malware_detector": BuiltinEntry(
        lambda spec, env: MalwareDetector(),
        Capability.OBSERVE | Capability.BLOCK,
    ),
    "tcp_proxy": BuiltinEntry(
        lambda spec, env: SplitTcpProxy(),
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "transcoder": BuiltinEntry(
        lambda spec, env: Transcoder(quality=spec.param("quality", "medium")),
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "prefetcher": BuiltinEntry(
        lambda spec, env: Prefetcher(),
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "tracker_blocker": BuiltinEntry(
        _make_tracker,
        Capability.OBSERVE | Capability.BLOCK,
    ),
    "compressor": BuiltinEntry(
        lambda spec, env: CompressionProxy(),
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "encryptor": BuiltinEntry(
        _make_encryptor,
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "decryptor": BuiltinEntry(
        _make_decryptor,
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "replica_selector": BuiltinEntry(
        _make_replica_selector,
        Capability.OBSERVE | Capability.REWRITE,
    ),
    "sensor_privacy": BuiltinEntry(
        _make_sensor_privacy,
        Capability.OBSERVE | Capability.REWRITE,
    ),
}


def builtin_services() -> set[str]:
    return set(BUILTIN_REGISTRY)


@dataclasses.dataclass(frozen=True)
class CompiledPvnc:
    """The deployable form of a PVNC."""

    pvnc: Pvnc
    pvn_match: Match
    placement_requests: tuple[PlacementRequest, ...]
    chain_layout: tuple[tuple[str, tuple[str, ...]], ...]  # class -> services
    terminals: tuple[tuple[str, str], ...]                 # class -> terminal
    estimate: ResourceEstimate
    per_packet_delay: float
    capability_grants: tuple[tuple[str, Capability], ...]

    @property
    def deployment_services(self) -> tuple[str, ...]:
        # Not cached: a cache would retain two tracked objects per
        # deployment (tests/core/test_attach_allocations.py).
        return tuple(map(_SERVICE_OF, self.placement_requests))

    def terminal_for(self, traffic_class: str) -> str:
        mapping = dict(self.terminals)
        return mapping.get(traffic_class, mapping.get("default", "forward"))

    def pipeline_for(self, traffic_class: str) -> tuple[str, ...]:
        mapping = dict(self.chain_layout)
        return mapping.get(traffic_class, mapping.get("default", ()))


def policy_digest(pvnc: Pvnc) -> bytes:
    """Content hash of the *policy* — everything but the user.

    This is the sharing key: two users running the same store app (or
    the same default configuration) produce the same policy digest, so
    their compiles resolve to one cached artifact.  ``Pvnc.digest()``
    is not reusable here because it binds the user (attestations must),
    and because the cache must also key on constraints, which shape
    validation.
    """
    return pvnc.policy_digest


def _count_cache(result: str) -> None:
    """Publish one compile-cache event (no-op with observability off).

    Compilation is a rare control-plane event, so — like discovery —
    the counter increments live at the site instead of folding at
    publish time."""
    obs = obs_runtime.current()
    if obs is None:
        return
    obs.metrics.counter(
        "repro_compile_cache_events",
        "PVNC compile cache lookups by result",
        ("result",),
    ).labels(result=result).inc()


class CompileCache:
    """A content-addressed memo of :func:`compile_pvnc` outputs.

    Entries are keyed by the policy digest plus every other compile
    input (store services, store capability grants, container spec) and
    the compiler/DSL revision.  A hit rebinds the cached artifact to
    the calling user — ``dataclasses.replace`` swapping only ``pvnc``
    and the owner-scoped match — so the expensive pieces (placement
    requests, chain layout, capability grants, estimates) are shared
    objects across all devices with that policy.

    Invalidation is explicit: :meth:`invalidate` bumps the cache
    revision, which participates in every key, so all prior entries
    miss.  Mutating a PVNC (any module, rule, or constraint — i.e. a
    new DSL source revision) changes the policy digest and misses
    naturally.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self.revision = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries: dict[CacheKey, CompiledPvnc] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # -- keying ------------------------------------------------------------

    def key(
        self,
        pvnc: Pvnc,
        store_services: set[str] | None,
        container_spec: ContainerSpec | None,
        store_capabilities: dict[str, Capability] | None,
    ) -> CacheKey:
        """The policy digest beside a tuple of the other compile
        inputs.  Keys never leave the process, so they are compared as
        tuples, not serialised and hashed."""
        container = container_spec or _DEFAULT_CONTAINER
        environment = (
            COMPILER_REVISION,
            self.revision,
            tuple(sorted(store_services)) if store_services else (),
            tuple(sorted(
                (service, cap.value)
                for service, cap in store_capabilities.items()
            )) if store_capabilities else (),
            container.instantiation_time,
            container.per_packet_delay,
            container.memory_bytes,
            container.cpu_share,
        )
        return policy_digest(pvnc), environment

    # -- lookup ------------------------------------------------------------

    def get(self, key: CacheKey, pvnc: Pvnc) -> CompiledPvnc | None:
        """The cached artifact rebound to ``pvnc``'s user, or None."""
        skeleton = self._entries.get(key)
        if skeleton is None:
            self.misses += 1
            _count_cache("miss")
            return None
        self.hits += 1
        _count_cache("hit")
        if skeleton.pvnc is pvnc:
            return skeleton
        return dataclasses.replace(
            skeleton, pvnc=pvnc, pvn_match=Match(owner=pvnc.user),
        )

    def put(self, key: CacheKey, compiled: CompiledPvnc) -> None:
        if len(self._entries) >= self.max_entries:
            # Size fence for unbounded policy churn: drop the oldest
            # entry (dict preserves insertion order).
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = compiled

    # -- invalidation ------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every entry and bump the revision.

        Call when the DSL semantics or the builtin registry change out
        from under compiled artifacts; any in-flight key computed
        against the old revision can no longer hit."""
        self.revision += 1
        self.invalidations += 1
        self._entries.clear()
        _count_cache("invalidate")

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "invalidations": self.invalidations,
            "revision": self.revision,
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def publish(self) -> None:
        """Fold entry-count/hit-rate gauges into the metrics registry."""
        obs = obs_runtime.current()
        if obs is None:
            return
        obs.metrics.gauge(
            "repro_compile_cache_entries",
            "Live compiled-PVNC artifacts in the cache",
        ).labels().set(float(len(self._entries)))
        obs.metrics.gauge(
            "repro_compile_cache_hit_rate",
            "Lifetime compile-cache hit rate",
        ).labels().set(self.hit_rate)


_default_cache = CompileCache()


def default_compile_cache() -> CompileCache:
    """The process-wide compile cache.

    Shared by the device side (negotiation compiles for estimates) and
    the provider side (deployment compiles for installation), so one
    attach pays at most one real compilation even though both layers
    call :func:`compile_pvnc`.
    """
    return _default_cache


def reset_compile_cache() -> CompileCache:
    """Replace the process-wide cache (tests, benchmark baselines)."""
    global _default_cache
    _default_cache = CompileCache()
    return _default_cache


_USE_DEFAULT_CACHE = object()    # sentinel: "use the process cache"


def compile_pvnc(
    pvnc: Pvnc,
    store_services: set[str] | None = None,
    container_spec: ContainerSpec | None = None,
    store_capabilities: dict[str, Capability] | None = None,
    cache: CompileCache | None = _USE_DEFAULT_CACHE,  # type: ignore[assignment]
) -> CompiledPvnc:
    """Validate and compile ``pvnc``.

    Compiles are memoized through ``cache`` (the process-wide cache by
    default; pass ``cache=None`` to force a from-scratch compile, e.g.
    for a baseline measurement).  Hits skip validation too: the cache
    key covers every input validation reads, so a cached policy was
    already proven valid.

    Raises :class:`~repro.errors.ConfigurationError` (via
    :func:`ensure_valid`) on invalid configurations and
    :class:`CompilationError` on compile-time problems.
    """
    if cache is _USE_DEFAULT_CACHE:
        cache = _default_cache
    if cache is not None:
        key = cache.key(pvnc, store_services, container_spec,
                        store_capabilities)
        cached = cache.get(key, pvnc)
        if cached is not None:
            return cached
    compiled = _compile_uncached(
        pvnc, store_services, container_spec, store_capabilities
    )
    if cache is not None:
        cache.put(key, compiled)
    return compiled


def _compile_uncached(
    pvnc: Pvnc,
    store_services: set[str] | None = None,
    container_spec: ContainerSpec | None = None,
    store_capabilities: dict[str, Capability] | None = None,
) -> CompiledPvnc:
    """The real compiler body — validation plus artifact construction."""
    ensure_valid(pvnc, builtin_services(), store_services)
    container = container_spec or _DEFAULT_CONTAINER

    used = pvnc.used_services()
    # The classifier is implicit: every PVN chain starts with it.
    services = ("classifier", *[s for s in used if s != "classifier"])

    requests = []
    for service in services:
        spec = pvnc.module(service)
        reuse = spec.allow_physical_reuse if spec is not None else False
        requests.append(
            PlacementRequest(
                service=service,
                memory_bytes=container.memory_bytes,
                cpu_share=container.cpu_share,
                allow_physical_reuse=reuse,
            )
        )

    layout = tuple(
        (rule.traffic_class, rule.pipeline) for rule in pvnc.class_rules
    )
    terminals = tuple(
        (rule.traffic_class, rule.terminal) for rule in pvnc.class_rules
    )

    store_capabilities = store_capabilities or {}
    grants = []
    for service in services:
        spec = pvnc.module(service)
        if spec is not None and spec.source == SOURCE_STORE:
            # Store modules get the capabilities their reviewed listing
            # grants, defaulting to observe+rewrite.
            grants.append((service, store_capabilities.get(
                service, Capability.OBSERVE | Capability.REWRITE
            )))
        else:
            entry = BUILTIN_REGISTRY.get(service)
            if entry is None:
                raise CompilationError(f"no registry entry for {service!r}")
            grants.append((service, entry.capabilities))

    longest = max((len(p) for _, p in layout), default=0)
    estimate = ResourceEstimate(
        containers=len(services),
        memory_bytes=len(services) * container.memory_bytes,
    )
    return CompiledPvnc(
        pvnc=pvnc,
        pvn_match=Match(owner=pvnc.user),
        placement_requests=tuple(requests),
        chain_layout=layout,
        terminals=terminals,
        estimate=estimate,
        per_packet_delay=(longest + 1) * container.per_packet_delay,
        capability_grants=tuple(grants),
    )


def build_middleboxes(
    compiled: CompiledPvnc,
    env: UserEnvironment,
    store_factories: dict[str, Callable[[], Middlebox]] | None = None,
) -> dict[str, Middlebox]:
    """Instantiate one middlebox per deployed service."""
    store_factories = store_factories or {}
    boxes: dict[str, Middlebox] = {}
    for service in compiled.deployment_services:
        spec = compiled.pvnc.module(service)
        if spec is not None and spec.source == SOURCE_STORE:
            factory = store_factories.get(service)
            if factory is None:
                raise CompilationError(
                    f"store module {service!r} has no installed factory"
                )
            boxes[service] = factory()
            continue
        entry = BUILTIN_REGISTRY.get(service)
        if entry is None:
            raise CompilationError(f"unknown service {service!r}")
        boxes[service] = entry.factory(
            spec or ModuleSpec.make(service), env
        )
    return boxes
