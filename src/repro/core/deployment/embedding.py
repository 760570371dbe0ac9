"""Virtual-network embedding and admission control.

Maps a compiled PVNC onto the provider's physical topology: picks NFV
hosts (or reusable physical middleboxes) for every chain element via
:func:`repro.nfv.placement.place_chain`, checks aggregate admission,
and reports the latency stretch the embedding implies — the number the
auditor's path-inflation test later compares against.

At scale the placement search dominates attach cost, so embeddings are
memoized through an :class:`EmbeddingIndex`: a cached plan is reused
only while a snapshot of everything :func:`place_chain` reads — the
topology version and the exact per-requirement feasible host sets —
still matches, which makes a hit *provably* identical to a from-scratch
recompute.  Host feasibility itself is O(1) per host thanks to the
incremental residual-capacity counters on
:class:`~repro.nfv.hypervisor.NfvHost`.
"""

from __future__ import annotations

import dataclasses

from repro.core.pvnc.compiler import CompiledPvnc
from repro.errors import AdmissionError, EmbeddingError
from repro.netsim.topology import PhysicalTopology
from repro.nfv.hypervisor import NfvHost
from repro.nfv.placement import (
    PlacementPlan,
    PlacementRequest,
    _host_capacity_ok,
    place_chain,
)


@dataclasses.dataclass(frozen=True)
class EmbeddingResult:
    """A feasible embedding of one PVN."""

    plan: PlacementPlan
    device_node: str
    gateway_node: str
    expected_rtt: float          # device->gateway RTT along the PVN path

    @property
    def stretch(self) -> float:
        return self.plan.stretch


class EmbeddingIndex:
    """Memoized placements, validated against a feasibility snapshot.

    :func:`place_chain` is a pure function of (a) the topology — node
    set, links, link up/down state — and (b) which hosts can fit each
    distinct resource requirement (its candidate list is the *sorted*
    NFV nodes filtered by feasibility, so the feasible **set** fully
    determines it).  A memo entry therefore stores the plan together
    with a snapshot of ``topo.version`` and one
    ``frozenset``-of-feasible-hosts per distinct ``(memory, cpu)``
    requirement; a lookup replays the snapshot check and falls back to
    a full recompute on any difference.  Equivalence with the uncached
    path is exact, not heuristic — the hypothesis property in
    ``tests/core/test_incremental_embedding.py`` drives arbitrary
    attach/detach/migrate/link-flap sequences against both.

    With an ``optimizer`` (:class:`~repro.core.deployment.orchestrator
    .PlacementOptimizer`) attached, placement additionally reads the
    shared-middlebox pool (which instances are joinable, at what load)
    and the powered-host set, so the snapshot must cover those too —
    ``optimizer.share_snapshot`` — or a memo hit could replay a stale
    "join" decision into an instance that has since filled to its
    isolation cap (regression: ``tests/core/test_orchestrator.py``).
    """

    def __init__(self, topo: PhysicalTopology,
                 hosts: dict[str, NfvHost],
                 optimizer=None) -> None:
        self.topo = topo
        self.hosts = hosts
        self.optimizer = optimizer
        self.hits = 0
        self.misses = 0
        self._memo: dict[tuple, tuple[tuple, PlacementPlan]] = {}
        self._memo_version = topo.version

    def _feasible(self, memory_bytes: int, cpu_share: float) -> frozenset[str]:
        probe = PlacementRequest(
            service="_probe", memory_bytes=memory_bytes, cpu_share=cpu_share
        )
        return frozenset(
            node for node in self.topo.nodes_of_kind("nfv")
            if node in self.hosts
            and _host_capacity_ok(self.hosts, node, probe)
        )

    def _snapshot(self, requests: tuple[PlacementRequest, ...]) -> tuple:
        requirements = sorted(
            {(r.memory_bytes, r.cpu_share) for r in requests}
        )
        base = (
            self.topo.version,
            tuple(self._feasible(memory, cpu) for memory, cpu in requirements),
        )
        if self.optimizer is None:
            return base
        # The sharing state (joinable instances + loads + powered
        # hosts) is a placement input too — leaving it out of the
        # snapshot lets a memo hit violate a later request's isolation
        # cap (see the class docstring).
        return base + (self.optimizer.share_snapshot(requests),)

    def place(
        self,
        requests: tuple[PlacementRequest, ...],
        src: str,
        dst: str,
        prefer_reuse: bool,
    ) -> PlacementPlan:
        if self._memo_version != self.topo.version:
            # Every snapshot holds the version it was taken at, so no
            # entry from an older one can validate again: without this
            # the memo gains one dead entry per attached device.
            self._memo.clear()
            self._memo_version = self.topo.version
        key = (src, dst, prefer_reuse, requests)
        snapshot = self._snapshot(requests)
        entry = self._memo.get(key)
        if entry is not None and entry[0] == snapshot:
            self.hits += 1
            return entry[1]
        self.misses += 1
        if self.optimizer is not None:
            plan = self.optimizer.place(
                requests, src=src, dst=dst, prefer_reuse=prefer_reuse,
            )
        else:
            plan = place_chain(
                self.topo, list(requests), src=src, dst=dst,
                hosts=self.hosts, prefer_reuse=prefer_reuse,
            )
        self._memo[key] = (snapshot, plan)
        return plan

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memo),
        }


def embed_pvn(
    compiled: CompiledPvnc,
    topo: PhysicalTopology,
    hosts: dict[str, NfvHost],
    device_node: str,
    prefer_reuse: bool = True,
    max_stretch: float = 4.0,
    index: EmbeddingIndex | None = None,
    optimizer=None,
) -> EmbeddingResult:
    """Embed ``compiled`` or raise.

    With ``index``, the placement search is memoized (see
    :class:`EmbeddingIndex`); results are identical either way.  With
    ``optimizer`` (and no index — an index carries its own), the
    multi-objective heuristic replaces first-fit.

    Raises :class:`EmbeddingError` when no placement exists and
    :class:`AdmissionError` when a placement exists but its stretch
    exceeds ``max_stretch`` (the provider refuses service that bad).
    """
    if index is not None:
        plan = index.place(
            compiled.placement_requests,
            src=device_node,
            dst="gw",
            prefer_reuse=prefer_reuse,
        )
    elif optimizer is not None:
        plan = optimizer.place(
            compiled.placement_requests,
            src=device_node,
            dst="gw",
            prefer_reuse=prefer_reuse,
        )
    else:
        plan = place_chain(
            topo,
            list(compiled.placement_requests),
            src=device_node,
            dst="gw",
            hosts=hosts,
            prefer_reuse=prefer_reuse,
        )
    if plan.stretch > max_stretch:
        raise AdmissionError(
            f"embedding stretch x{plan.stretch:.2f} exceeds the "
            f"provider's limit x{max_stretch}"
        )
    expected_rtt = 2.0 * topo.path_latency(plan.path)
    return EmbeddingResult(
        plan=plan,
        device_node=device_node,
        gateway_node="gw",
        expected_rtt=expected_rtt,
    )


def admission_headroom(hosts: dict[str, NfvHost]) -> dict[str, float]:
    """Fractional memory headroom per host (capacity planning)."""
    return {
        name: 1.0 - host.memory_in_use / host.capacity.memory_bytes
        for name, host in sorted(hosts.items())
    }


def estimate_max_subscribers(
    hosts: dict[str, NfvHost],
    per_user_memory: int,
    per_user_cpu: float,
) -> int:
    """How many more identical PVNs the NFV tier could admit."""
    if per_user_memory <= 0 or per_user_cpu <= 0:
        raise EmbeddingError("per-user resources must be positive")
    total = 0
    for host in hosts.values():
        by_memory = (host.capacity.memory_bytes - host.memory_in_use) // (
            per_user_memory
        )
        by_cpu = int((host.capacity.cpu_cores - host.cpu_in_use) / per_user_cpu)
        total += max(0, min(by_memory, by_cpu))
    return total
