"""Path computation over a physical topology.

Given a :class:`~repro.netsim.topology.PhysicalTopology`, these helpers
compute waypointed paths that visit the NFV host carrying a PVN's
middlebox chain, and how much latency the detour adds over the direct
shortest path.
"""

from __future__ import annotations

from repro.netsim.topology import PhysicalTopology


def waypointed_path(
    topo: PhysicalTopology, src: str, dst: str, waypoints: list[str]
) -> list[str]:
    """Shortest path visiting ``waypoints`` in order (loops allowed).

    This is how traffic is steered through the NFV host(s) carrying a
    PVN's chain: src -> w1 -> w2 -> ... -> dst, each leg shortest-path.
    Links taken down by fault injection are avoided, and a partition
    raises :class:`~repro.errors.ConfigurationError`.
    """
    stops = [src, *waypoints, dst]
    full: list[str] = [src]
    for a, b in zip(stops, stops[1:]):
        leg = topo.shortest_path(a, b)
        full.extend(leg[1:])
    return full


class StretchWalk:
    """Latency stretch of ``src -> waypoints... -> dst``, incrementally.

    Greedy placement scores every candidate host by the stretch of the
    path through the waypoints chosen so far, then the candidate, then
    ``dst``.  All candidates of a request share the direct path and
    the prefix up to the last chosen waypoint; this holds both, so a
    candidate costs the two legs it adds.  Each leg is one
    :meth:`PhysicalTopology.route_latency`, which adds the hop costs
    the route table holds: the same left-to-right sum
    :meth:`PhysicalTopology.path_latency` takes over the whole
    :func:`waypointed_path` — continued from the prefix total, never
    re-associated — so every stretch is bit-identical to evaluating
    the full path from scratch.
    """

    def __init__(self, topo: PhysicalTopology, src: str, dst: str,
                 waypoints: list[str] | tuple[str, ...] = ()) -> None:
        self.topo = topo
        self.src = src
        self.dst = dst
        #: Stops committed so far, in order: append to commit the next.
        self.waypoints = list(waypoints)
        self._direct: float | None = None
        self._folded = 0        # waypoints[:_folded] are in the prefix
        self._at = src          # where the prefix ends
        self._latency = 0.0     # one-way latency src -> _at

    def stretch(self, *extra: str) -> float:
        """Stretch of the path via :attr:`waypoints`, then ``extra``."""
        route_latency = self.topo.route_latency
        if self._direct is None:
            self._direct = route_latency(self.src, self.dst)
        at, via = self._at, self._latency
        if self._folded < len(self.waypoints):
            for stop in self.waypoints[self._folded:]:
                via = route_latency(at, stop, via)
                at = stop
            self._at, self._latency = at, via
            self._folded = len(self.waypoints)
        for stop in (*extra, self.dst):
            via = route_latency(at, stop, via)
            at = stop
        if self._direct <= 0:
            return 1.0
        return via / self._direct


def path_stretch(
    topo: PhysicalTopology, src: str, dst: str, waypoints: list[str]
) -> float:
    """Latency of the waypointed path over the direct shortest path.

    1.0 = on-path placement (no stretch); the auditor's path-inflation
    test flags deployments whose measured stretch exceeds what the
    offered topology implies.
    """
    return StretchWalk(topo, src, dst, waypoints).stretch()
