"""Physical topologies.

A :class:`PhysicalTopology` is an undirected graph, held in two plain
dicts, annotated with the attributes the PVN deployment machinery needs:

* node ``kind``: ``"host"``, ``"ap"``, ``"switch"``, ``"nfv"``,
  ``"gateway"``, ``"server"``, or ``"middlebox"`` (a *physical*
  middlebox the provider already operates — Fig. 1(b) reuse),
* node ``cpu`` / ``memory_bytes`` for NFV hosts,
* edge ``latency`` (one-way seconds) and ``bandwidth_bps``.

Builders at the bottom construct the canonical scenarios used by the
experiments: a PVN-capable access network and a wide area with cloud
and home networks for the tunneling baselines.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush
from math import inf
from typing import Sequence

from repro.errors import ConfigurationError
from repro.units import transmission_delay

NODE_KINDS = {"host", "ap", "switch", "nfv", "gateway", "server", "middlebox"}


#: The packet size route costs are tabled for: ``path_latency``'s and
#: ``rtt``'s default.
ROUTE_PROBE_BYTES = 40
#: ``_PROBE_BITS / bps`` is ``transmission_delay(ROUTE_PROBE_BYTES, bps)``
#: bit for bit, without the call; ``add_link`` has checked ``bps > 0``.
_PROBE_BITS = ROUTE_PROBE_BYTES * 8.0


def _hop_cost(link: dict) -> float:
    """One hop's term of :meth:`PhysicalTopology.path_latency` for a
    :data:`ROUTE_PROBE_BYTES` packet."""
    return link["latency"] + _PROBE_BITS / link["bandwidth_bps"]


def _partitioned(ends: tuple[str, str]) -> ConfigurationError:
    return ConfigurationError(
        f"no usable path {ends[0]!r} -> {ends[1]!r} "
        "(network partitioned by down links)"
    )


class PhysicalTopology:
    """An annotated undirected graph of the physical network."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._nodes: dict[str, dict] = {}   # name -> attributes
        # name -> neighbour -> link, in insertion order; both directions
        # share one link dict, so a flag set from either end shows at both.
        self._adj: dict[str, dict[str, dict]] = {}
        #: Bumped on every routing-affecting mutation (nodes, links,
        #: link up/down).  Embedding caches validate against it so a
        #: memoized placement can never survive a topology change.
        self.version = 0
        #: Dijkstra runs so far: one per route-table miss.
        self.searches = 0
        # The route table holds routes between nodes of degree >= 2
        # only.  Such a route ignores pendant nodes (DESIGN.md §9), so
        # it survives a fresh node and that node's first link; every
        # other routing-affecting mutation drops the table.  An entry
        # is the route's nodes and its per-hop costs (_hop_cost).
        self._routes: dict[tuple[str, str],
                           tuple[tuple[str, ...], tuple[float, ...]]] = {}
        self._kinds: dict[tuple[str, bool], tuple[str, ...]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, name: str, kind: str, **attrs: object) -> None:
        if kind not in NODE_KINDS:
            raise ConfigurationError(
                f"unknown node kind {kind!r}; expected one of {sorted(NODE_KINDS)}"
            )
        if name in self._nodes:         # may change kind: drop it all
            self._routes.clear()
            self._kinds.clear()
        else:
            self._kinds.pop((kind, True), None)
            self._kinds.pop((kind, False), None)
        self._nodes.setdefault(name, {}).update(kind=kind, **attrs)
        self._adj.setdefault(name, {})  # a re-add keeps its links
        self.version += 1

    def add_link(
        self,
        a: str,
        b: str,
        latency: float,
        bandwidth_bps: float,
        loss_rate: float = 0.0,
    ) -> None:
        adj = self._adj
        for endpoint in (a, b):
            if endpoint not in adj:
                raise ConfigurationError(f"unknown node {endpoint!r}")
        if a == b:
            raise ConfigurationError(f"link {a!r} <-> {b!r} is a self-loop")
        if not bandwidth_bps > 0:       # a tabled hop cost cannot raise
            raise ConfigurationError(
                f"link {a!r} <-> {b!r} needs a positive bandwidth, "
                f"got {bandwidth_bps}"
            )
        if adj[a] and adj[b]:
            self._routes.clear()        # not an isolated node's first link
        link = adj[a].get(b)            # a re-add keeps ``down`` and order
        if link is None:
            link = adj[a][b] = adj[b][a] = {}
        link.update(latency=latency, bandwidth_bps=bandwidth_bps,
                    loss_rate=loss_rate)
        self.version += 1

    # -- queries -----------------------------------------------------------

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def node_attr(self, name: str, key: str, default: object = None
                  ) -> object:
        """Attribute ``key`` of node ``name``, or ``default`` if unset."""
        try:
            return self._nodes[name].get(key, default)
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    def kind_of(self, name: str) -> str:
        return self.node_attr(name, "kind")

    def nodes_of_kind(self, kind: str, include_wide_area: bool = True
                      ) -> list[str]:
        """Nodes of ``kind``; ``include_wide_area=False`` restricts to
        the access network proper (excludes cloud/home NFV sites)."""
        key = (kind, include_wide_area)
        names = self._kinds.get(key)
        if names is None:
            names = self._kinds[key] = tuple(sorted(
                n for n, data in self._nodes.items()
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
        from scratch answers, and what the test oracle answers wherever
        the shortest path is unique.  Failures are not remembered, and the
        caller owns the returned list.
        """
        adj = self._adj
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
        entry = self._routes.get((src, dst))
        if entry is None:
            entry = self._routes[(src, dst)] = self._search(src, dst, ends)
        return head + list(entry[0]) + tail

    def route_latency(self, src: str, dst: str, start: float = 0.0) -> float:
        """``path_latency(shortest_path(src, dst), start=start)``, ``==``
        and with the same errors, read from the route table's hop costs.

        Pendant ends are stripped exactly as :meth:`shortest_path` does;
        their hops are costed from the graph (inline, as the attach path
        runs this per placement candidate), the rest come from the table
        entry, and all are added to ``start`` left to right.  No list is
        built.
        """
        adj = self._adj
        for name in (src, dst):
            if name not in adj:
                raise ConfigurationError(f"unknown node {name!r}")
        ends = (src, dst)
        total = start
        tail = None
        if src != dst and len(adj[src]) == 1:
            (src, link), = adj[src].items()
            if link.get("down"):
                raise _partitioned(ends)
            total += link["latency"] + _PROBE_BITS / link["bandwidth_bps"]
        if src != dst and len(adj[dst]) == 1:
            (dst, tail), = adj[dst].items()
            if tail.get("down"):
                raise _partitioned(ends)
        if src != dst:
            entry = self._routes.get((src, dst))
            if entry is None:
                entry = self._routes[(src, dst)] = self._search(src, dst,
                                                                ends)
            for cost in entry[1]:
                total += cost
        if tail is not None:
            total += tail["latency"] + _PROBE_BITS / tail["bandwidth_bps"]
        return total

    @staticmethod
    def _sole_neighbour(links: dict, ends: tuple[str, str]) -> str:
        (neighbour, link), = links.items()
        if link.get("down"):
            raise _partitioned(ends)
        return neighbour

    def _search(self, src: str, dst: str, ends: tuple[str, str]
                ) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """One Dijkstra run, ties broken by the graph alone: relax on
        strict ``<``, pop equal distances first-pushed-first, scan
        neighbours in adjacency order.  A pendant node other than
        ``src``/``dst`` is pushed once and relaxes nothing, so it
        cannot change the answer.  Returns the route's nodes and its
        hop costs."""
        self.searches += 1
        adj = self._adj
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
                path.reverse()
                return tuple(path), tuple(
                    _hop_cost(adj[a][b]) for a, b in zip(path, path[1:]))
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

    def link(self, a: str, b: str) -> dict:
        """The attribute dict of link ``a <-> b`` (one dict, shared by
        both directions)."""
        try:
            return self._adj[a][b]
        except KeyError:
            raise ConfigurationError(f"no link {a!r} <-> {b!r}") from None

    def links(self) -> list[tuple[str, str, dict]]:
        """Each link once as ``(a, b, attrs)``, sorted; ``a`` is the
        endpoint added to the topology first."""
        order = {name: i for i, name in enumerate(self._adj)}
        return sorted((a, b, link) for a, neighbours in self._adj.items()
                      for b, link in neighbours.items() if order[a] < order[b])

    def set_link_down(self, a: str, b: str) -> None:
        """Mark a link failed: routing and embedding avoid it."""
        self.link(a, b)["down"] = True
        self._routes.clear()
        self.version += 1

    def set_link_up(self, a: str, b: str) -> None:
        self.link(a, b)["down"] = False
        self._routes.clear()
        self.version += 1

    def link_is_down(self, a: str, b: str) -> bool:
        return bool(self.link(a, b).get("down", False))

    def set_link_loss(self, a: str, b: str, loss_rate: float) -> float:
        """Override a link's loss rate; returns the previous rate so
        burst injections can restore it."""
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0,1), got {loss_rate}"
            )
        edge = self.link(a, b)
        previous = float(edge.get("loss_rate", 0.0))
        edge["loss_rate"] = float(loss_rate)
        return previous

    def path_latency(self, path: Sequence[str],
                     size_bytes: int = ROUTE_PROBE_BYTES,
                     start: float = 0.0) -> float:
        """One-way delay along ``path`` for a packet of ``size_bytes``.

        ``start`` continues the left-to-right sum of a path walked leg
        by leg: the total over ``a + b`` is bit-for-bit
        ``path_latency(b, start=path_latency(a))``.
        """
        adj = self._adj
        total = start
        for a, b in zip(path, path[1:]):
            edge = adj[a][b]
            total += edge["latency"] + transmission_delay(
                size_bytes, edge["bandwidth_bps"]
            )
        return total

    def rtt(self, src: str, dst: str,
            size_bytes: int = ROUTE_PROBE_BYTES) -> float:
        """Unloaded round-trip time between two nodes."""
        if size_bytes == ROUTE_PROBE_BYTES:
            return 2.0 * self.route_latency(src, dst)
        return 2.0 * self.path_latency(self.shortest_path(src, dst), size_bytes)

    def path_bottleneck_bps(self, path: Sequence[str]) -> float:
        adj = self._adj
        return min(adj[a][b]["bandwidth_bps"] for a, b in zip(path, path[1:]))

    def path_loss_rate(self, path: Sequence[str]) -> float:
        adj = self._adj
        survive = 1.0
        for a, b in zip(path, path[1:]):
            survive *= 1.0 - adj[a][b].get("loss_rate", 0.0)
        return 1.0 - survive


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
) -> PhysicalTopology:
    """Extend an access network with cloud, home, and content servers.

    The RTT arguments are round-trip times from the access gateway, as
    in §3.2's "10s of ms for well connected networks"; they are split
    into one-way latencies on 1 Gbit/s WAN edges.  The content origin
    sits 50 ms away.
    """
    for name, rtt in (("cloud", cloud_rtt), ("home", home_rtt)):
        access.add_node(name, kind="nfv", cpu=64,
                        memory_bytes=64_000_000_000, wide_area=True)
        access.add_link("gw", name, rtt / 2.0, 1e9)
    access.add_node("origin", kind="server")
    access.add_link("gw", "origin", 0.050 / 2.0, 1e9)
    return access
