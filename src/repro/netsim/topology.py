"""Physical topologies.

A :class:`PhysicalTopology` is a ``networkx`` graph annotated with the
attributes the PVN deployment machinery needs:

* node ``kind``: ``"host"``, ``"ap"``, ``"switch"``, ``"nfv"``,
  ``"gateway"``, ``"server"``, or ``"middlebox"`` (a *physical*
  middlebox the provider already operates — Fig. 1(b) reuse),
* node ``cpu`` / ``memory_bytes`` for NFV hosts,
* edge ``latency`` (one-way seconds) and ``bandwidth_bps``.

Builders at the bottom construct the canonical scenarios used by the
experiments: a PVN-capable access network, a multihomed variant
(Fig. 1(c)), and a wide area with cloud and home networks for the
tunneling baselines.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush
from math import inf
from typing import Iterable

import networkx as nx

from repro.errors import ConfigurationError
from repro.netsim.link import Link
from repro.netsim.node import Host, Node, RoutingNode
from repro.netsim.simulator import Simulator
from repro.units import transmission_delay

NODE_KINDS = {"host", "ap", "switch", "nfv", "gateway", "server", "middlebox"}


def _partitioned(ends: tuple[str, str]) -> ConfigurationError:
    return ConfigurationError(
        f"no usable path {ends[0]!r} -> {ends[1]!r} "
        "(network partitioned by down links)"
    )


class PhysicalTopology:
    """An annotated undirected graph of the physical network."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self.graph = nx.Graph()
        #: Bumped on every routing-affecting mutation (nodes, links,
        #: link up/down).  Embedding caches validate against it so a
        #: memoized placement can never survive a topology change.
        self.version = 0
        #: Dijkstra runs so far: one per route-table miss.
        self.searches = 0
        # The route table holds routes between nodes of degree >= 2
        # only.  Such a route ignores pendant nodes (DESIGN.md §9), so
        # it survives a fresh node and that node's first link; every
        # other routing-affecting mutation drops the table.
        self._routes: dict[tuple[str, str], tuple[str, ...]] = {}
        self._kinds: dict[tuple[str, bool], tuple[str, ...]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, name: str, kind: str, **attrs: object) -> None:
        if kind not in NODE_KINDS:
            raise ConfigurationError(
                f"unknown node kind {kind!r}; expected one of {sorted(NODE_KINDS)}"
            )
        if name in self.graph:          # may change kind: drop it all
            self._routes.clear()
            self._kinds.clear()
        else:
            self._kinds.pop((kind, True), None)
            self._kinds.pop((kind, False), None)
        self.graph.add_node(name, kind=kind, **attrs)
        self.version += 1

    def add_link(
        self,
        a: str,
        b: str,
        latency: float,
        bandwidth_bps: float,
        loss_rate: float = 0.0,
    ) -> None:
        for endpoint in (a, b):
            if endpoint not in self.graph:
                raise ConfigurationError(f"unknown node {endpoint!r}")
        if a == b:
            raise ConfigurationError(f"link {a!r} <-> {b!r} is a self-loop")
        if self.graph.adj[a] and self.graph.adj[b]:
            self._routes.clear()        # not an isolated node's first link
        self.graph.add_edge(
            a, b, latency=latency, bandwidth_bps=bandwidth_bps,
            loss_rate=loss_rate,
        )
        self.version += 1

    # -- queries -----------------------------------------------------------

    def kind_of(self, name: str) -> str:
        return self.graph.nodes[name]["kind"]

    def nodes_of_kind(self, kind: str, include_wide_area: bool = True
                      ) -> list[str]:
        """Nodes of ``kind``; ``include_wide_area=False`` restricts to
        the access network proper (excludes cloud/home NFV sites)."""
        key = (kind, include_wide_area)
        names = self._kinds.get(key)
        if names is None:
            names = self._kinds[key] = tuple(sorted(
                n for n, data in self.graph.nodes(data=True)
                if data["kind"] == kind
                and (include_wide_area or not data.get("wide_area"))
            ))
        return list(names)

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Latency-weighted shortest path (node names, inclusive).

        Links taken down by fault injection (:meth:`set_link_down`) are
        invisible to routing; a partition or an unknown node raises
        :class:`~repro.errors.ConfigurationError`.

        A degree-1 endpoint is stripped to its neighbour and the route
        between the remaining endpoints answered from the route table,
        one :meth:`_search` per miss: exactly what a topology rebuilt
        from scratch answers, and what networkx answers wherever the
        shortest path is unique.  Failures are not remembered, and the
        caller owns the returned list.
        """
        adj = self.graph._adj           # the dict itself: no view per lookup
        for name in (src, dst):
            if name not in adj:
                raise ConfigurationError(f"unknown node {name!r}")
        ends = (src, dst)
        head: list[str] = []
        tail: list[str] = []
        if src != dst and len(adj[src]) == 1:
            head, src = [src], self._sole_neighbour(adj[src], ends)
        if src != dst and len(adj[dst]) == 1:
            tail, dst = [dst], self._sole_neighbour(adj[dst], ends)
        if src == dst:
            return head + [src] + tail
        path = self._routes.get((src, dst))
        if path is None:
            path = self._routes[(src, dst)] = self._search(src, dst, ends)
        return head + list(path) + tail

    @staticmethod
    def _sole_neighbour(links: dict, ends: tuple[str, str]) -> str:
        (neighbour, link), = links.items()
        if link.get("down"):
            raise _partitioned(ends)
        return neighbour

    def _search(self, src: str, dst: str,
                ends: tuple[str, str]) -> tuple[str, ...]:
        """One Dijkstra run, ties broken by the graph alone: relax on
        strict ``<``, pop equal distances first-pushed-first, scan
        neighbours in adjacency order.  A pendant node other than
        ``src``/``dst`` is pushed once and relaxes nothing, so it
        cannot change the answer."""
        self.searches += 1
        adj = self.graph._adj
        dist = {src: 0.0}
        pred: dict[str, str] = {}
        heap = [(0.0, 0, src)]
        pushed = 1
        while heap:
            d, _, node = heappop(heap)
            if node == dst:
                path = [dst]
                while node != src:
                    node = pred[node]
                    path.append(node)
                return tuple(reversed(path))
            if d > dist[node]:
                continue                # superseded by a shorter push
            for neighbour, link in adj[node].items():
                if link.get("down"):
                    continue
                reach = d + link["latency"]
                if reach < dist.get(neighbour, inf):
                    dist[neighbour] = reach
                    pred[neighbour] = node
                    heappush(heap, (reach, pushed, neighbour))
                    pushed += 1
        raise _partitioned(ends)

    # -- fault state -------------------------------------------------------

    def _edge(self, a: str, b: str) -> dict:
        try:
            return self.graph.edges[a, b]
        except KeyError:
            raise ConfigurationError(f"no link {a!r} <-> {b!r}") from None

    def set_link_down(self, a: str, b: str) -> None:
        """Mark a link failed: routing and embedding avoid it."""
        self._edge(a, b)["down"] = True
        self._routes.clear()
        self.version += 1

    def set_link_up(self, a: str, b: str) -> None:
        self._edge(a, b)["down"] = False
        self._routes.clear()
        self.version += 1

    def link_is_down(self, a: str, b: str) -> bool:
        return bool(self._edge(a, b).get("down", False))

    def down_links(self) -> list[tuple[str, str]]:
        return sorted(
            (min(a, b), max(a, b))
            for a, b, data in self.graph.edges(data=True)
            if data.get("down")
        )

    def set_link_loss(self, a: str, b: str, loss_rate: float) -> float:
        """Override a link's loss rate; returns the previous rate so
        burst injections can restore it."""
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0,1), got {loss_rate}"
            )
        edge = self._edge(a, b)
        previous = float(edge.get("loss_rate", 0.0))
        edge["loss_rate"] = float(loss_rate)
        return previous

    def path_latency(self, path: list[str], size_bytes: int = 40,
                     start: float = 0.0) -> float:
        """One-way delay along ``path`` for a packet of ``size_bytes``.

        ``start`` continues the left-to-right sum of a path walked leg
        by leg: the total over ``a + b`` is bit-for-bit
        ``path_latency(b, start=path_latency(a))``.
        """
        total = start
        for a, b in zip(path, path[1:]):
            edge = self.graph.edges[a, b]
            total += edge["latency"] + transmission_delay(
                size_bytes, edge["bandwidth_bps"]
            )
        return total

    def rtt(self, src: str, dst: str, size_bytes: int = 40) -> float:
        """Unloaded round-trip time between two nodes."""
        return 2.0 * self.path_latency(self.shortest_path(src, dst), size_bytes)

    def path_bottleneck_bps(self, path: list[str]) -> float:
        return min(
            self.graph.edges[a, b]["bandwidth_bps"]
            for a, b in zip(path, path[1:])
        )

    def path_loss_rate(self, path: list[str]) -> float:
        survive = 1.0
        for a, b in zip(path, path[1:]):
            survive *= 1.0 - self.graph.edges[a, b].get("loss_rate", 0.0)
        return 1.0 - survive

    # -- instantiation -------------------------------------------------------

    def instantiate(
        self, sim: Simulator, host_ips: dict[str, str] | None = None
    ) -> dict[str, Node]:
        """Create live :class:`Node`/:class:`Link` objects for this graph.

        ``host`` and ``server`` nodes become :class:`Host` (IPs taken
        from ``host_ips`` or synthesised); everything else becomes a
        :class:`RoutingNode`.  Routing tables are left to the caller
        (or to the SDN controller).
        """
        host_ips = host_ips or {}
        nodes: dict[str, Node] = {}
        next_ip = 1
        for name, data in sorted(self.graph.nodes(data=True)):
            if data["kind"] in ("host", "server"):
                ip = host_ips.get(name, f"10.250.0.{next_ip}")
                next_ip += 1
                nodes[name] = Host(sim, name, ip)
            else:
                nodes[name] = RoutingNode(sim, name)
        for a, b, data in sorted(self.graph.edges(data=True)):
            Link(
                nodes[a], nodes[b],
                latency=data["latency"],
                bandwidth_bps=data["bandwidth_bps"],
            )
        return nodes


@dataclasses.dataclass(frozen=True)
class AccessNetworkSpec:
    """Parameters for the canonical PVN-capable access network."""

    n_aps: int = 2
    n_nfv_hosts: int = 2
    wireless_latency: float = 0.008      # device <-> AP, one way
    wireless_bandwidth_bps: float = 40e6
    wireless_loss_rate: float = 0.005
    backhaul_latency: float = 0.002
    backhaul_bandwidth_bps: float = 1e9
    nfv_cpu: int = 16
    nfv_memory_bytes: int = 8_000_000_000
    physical_middleboxes: tuple[str, ...] = ("tcp_proxy", "cache")


def build_access_network(
    spec: AccessNetworkSpec | None = None, name: str = "isp"
) -> PhysicalTopology:
    """The canonical access network of Fig. 1(b).

    devices -- AP(s) -- aggregation switch -- core switch -- gateway,
    with NFV hosts and the provider's existing physical middleboxes
    hanging off the aggregation layer.
    """
    spec = spec or AccessNetworkSpec()
    topo = PhysicalTopology(name)
    topo.add_node("agg", kind="switch")
    topo.add_node("core", kind="switch")
    topo.add_node("gw", kind="gateway")
    topo.add_link("agg", "core", spec.backhaul_latency, spec.backhaul_bandwidth_bps)
    topo.add_link("core", "gw", spec.backhaul_latency, spec.backhaul_bandwidth_bps)
    for i in range(spec.n_aps):
        ap = f"ap{i}"
        topo.add_node(ap, kind="ap")
        topo.add_link(ap, "agg", spec.backhaul_latency, spec.backhaul_bandwidth_bps)
    for i in range(spec.n_nfv_hosts):
        nfv = f"nfv{i}"
        topo.add_node(nfv, kind="nfv", cpu=spec.nfv_cpu,
                      memory_bytes=spec.nfv_memory_bytes)
        topo.add_link(nfv, "agg", 0.0005, spec.backhaul_bandwidth_bps)
    for service in spec.physical_middleboxes:
        mbox = f"pmb_{service}"
        topo.add_node(mbox, kind="middlebox", service=service)
        topo.add_link(mbox, "core", 0.0005, spec.backhaul_bandwidth_bps)
    return topo


def attach_device(
    topo: PhysicalTopology,
    device_name: str,
    ap: str = "ap0",
    latency: float | None = None,
    bandwidth_bps: float | None = None,
    loss_rate: float | None = None,
    spec: AccessNetworkSpec | None = None,
) -> None:
    """Attach a device host to an AP with wireless characteristics."""
    spec = spec or AccessNetworkSpec()
    topo.add_node(device_name, kind="host")
    topo.add_link(
        device_name, ap,
        latency=spec.wireless_latency if latency is None else latency,
        bandwidth_bps=(spec.wireless_bandwidth_bps
                       if bandwidth_bps is None else bandwidth_bps),
        loss_rate=spec.wireless_loss_rate if loss_rate is None else loss_rate,
    )


def build_wide_area(
    access: PhysicalTopology,
    cloud_rtt: float = 0.040,
    home_rtt: float = 0.060,
    server_rtt: float = 0.050,
    wan_bandwidth_bps: float = 1e9,
) -> PhysicalTopology:
    """Extend an access network with cloud, home, and content servers.

    The RTT arguments are round-trip times from the access gateway, as
    in §3.2's "10s of ms for well connected networks"; they are split
    into one-way latencies on the WAN edges.
    """
    for name, rtt in (("cloud", cloud_rtt), ("home", home_rtt)):
        access.add_node(name, kind="nfv", cpu=64,
                        memory_bytes=64_000_000_000, wide_area=True)
        access.add_link("gw", name, rtt / 2.0, wan_bandwidth_bps)
    access.add_node("origin", kind="server")
    access.add_link("gw", "origin", server_rtt / 2.0, wan_bandwidth_bps)
    return access


def build_multihomed_access(spec: AccessNetworkSpec | None = None) -> PhysicalTopology:
    """Fig. 1(c): an access network with two upstream paths (WiFi + cell)."""
    topo = build_access_network(spec, name="multihomed")
    topo.add_node("gw_cell", kind="gateway")
    topo.add_link("core", "gw_cell", 0.015, 100e6)
    return topo


def iter_edges_with_attrs(
    topo: PhysicalTopology,
) -> Iterable[tuple[str, str, dict]]:
    """Stable iteration over annotated edges (sorted, for determinism)."""
    for a, b, data in sorted(topo.graph.edges(data=True)):
        yield a, b, data
