"""Middlebox chain placement over a physical topology.

Given the virtual chain a PVNC asks for and the device's path to the
gateway, pick where each middlebox runs:

* **reuse** an existing *physical* middlebox of the same service when
  the PVNC allows it (Fig. 1(b): "the network provider can route its
  traffic through a physical TCP proxy"),
* otherwise pick the NFV host minimising the latency stretch of the
  waypointed device->gateway path, subject to capacity.

The output is a :class:`PlacementPlan` the deployment manager turns
into containers + flow rules.
"""

from __future__ import annotations

import dataclasses

from repro.errors import EmbeddingError
from repro.netsim.topology import PhysicalTopology
from repro.nfv.hypervisor import NfvHost
from repro.sdn.routing import StretchWalk, waypointed_path


@dataclasses.dataclass(frozen=True)
class PlacementRequest:
    """One middlebox the chain needs placed."""

    service: str
    memory_bytes: int = 6_000_000
    cpu_share: float = 0.1
    allow_physical_reuse: bool = True


@dataclasses.dataclass(frozen=True)
class PlacementDecision:
    """Where one middlebox landed.

    ``shared`` marks a provider-operated container shared across users
    (the orchestrator's packing decision); ``instance`` names the
    shared instance joined, or is empty when the plan calls for a new
    shared container to be spawned at commit.  First-fit placement
    never sets either, so plans (and their serialized records) are
    unchanged unless an optimizer is in play.
    """

    service: str
    node: str                  # topology node name
    reused_physical: bool      # True when an existing box is reused
    shared: bool = False       # provider-shared container (orchestrator)
    instance: str = ""         # shared instance joined ("" = spawn new)


@dataclasses.dataclass(frozen=True)
class PlacementPlan:
    """A full chain placement."""

    decisions: tuple[PlacementDecision, ...]
    path: tuple[str, ...]          # device -> ... -> gateway via waypoints
    stretch: float                 # latency vs direct path

    @property
    def waypoints(self) -> list[str]:
        return [d.node for d in self.decisions]

    @property
    def fresh_containers(self) -> int:
        """Per-user containers this plan launches (shared instances and
        reused physical boxes are not per-user)."""
        return sum(
            1 for d in self.decisions
            if not d.reused_physical and not d.shared
        )


def _physical_box_for(topo: PhysicalTopology, service: str) -> str | None:
    for node in topo.nodes_of_kind("middlebox"):
        if topo.graph.nodes[node].get("service") == service:
            return node
    return None


def _host_capacity_ok(
    hosts: dict[str, NfvHost], node: str, request: PlacementRequest
) -> bool:
    host = hosts.get(node)
    if host is None or not host.alive:
        return False
    return (
        host.memory_in_use + request.memory_bytes
        <= host.capacity.memory_bytes
        and host.cpu_in_use + request.cpu_share <= host.capacity.cpu_cores
    )


def place_chain(
    topo: PhysicalTopology,
    requests: list[PlacementRequest],
    src: str,
    dst: str,
    hosts: dict[str, NfvHost],
    prefer_reuse: bool = True,
) -> PlacementPlan:
    """Greedy chain placement minimising incremental path stretch.

    Raises :class:`EmbeddingError` when some middlebox fits nowhere.
    """
    decisions: list[PlacementDecision] = []
    walk = StretchWalk(topo, src, dst)
    for request in requests:
        if prefer_reuse and request.allow_physical_reuse:
            physical = _physical_box_for(topo, request.service)
            if physical is not None:
                decisions.append(
                    PlacementDecision(request.service, physical,
                                      reused_physical=True)
                )
                walk.push(physical)
                continue
        # Only hosts the provider actually operates (passed in) count;
        # the topology may also know about wide-area NFV sites.
        candidates = [
            node for node in topo.nodes_of_kind("nfv")
            if node in hosts and _host_capacity_ok(hosts, node, request)
        ]
        if not candidates:
            raise EmbeddingError(
                f"no NFV host can fit middlebox {request.service!r}"
            )
        best = min(candidates, key=walk.stretch)
        decisions.append(
            PlacementDecision(request.service, best, reused_physical=False)
        )
        walk.push(best)

    path = waypointed_path(topo, src, dst, walk.waypoints)
    stretch = walk.stretch() if walk.waypoints else 1.0
    return PlacementPlan(
        decisions=tuple(decisions), path=tuple(path), stretch=stretch
    )
