"""Path computation and path-rule generation.

Given a :class:`~repro.netsim.topology.PhysicalTopology` and a
controller, these helpers install the forwarding rules that realise a
path — either plain shortest paths for baseline traffic or waypointed
paths that visit the NFV host carrying a PVN's middlebox chain.
"""

from __future__ import annotations

from repro.netsim.topology import PhysicalTopology
from repro.sdn.actions import Output
from repro.sdn.controller import Controller
from repro.sdn.match import Match


def shortest_path(topo: PhysicalTopology, src: str, dst: str) -> list[str]:
    """Latency-weighted shortest path, raising on disconnection.

    Delegates to :meth:`PhysicalTopology.shortest_path` so links taken
    down by fault injection are avoided by routing and placement alike.
    """
    return topo.shortest_path(src, dst)


def waypointed_path(
    topo: PhysicalTopology, src: str, dst: str, waypoints: list[str]
) -> list[str]:
    """Shortest path visiting ``waypoints`` in order (loops allowed).

    This is how traffic is steered through the NFV host(s) carrying a
    PVN's chain: src -> w1 -> w2 -> ... -> dst, each leg shortest-path.
    """
    stops = [src, *waypoints, dst]
    full: list[str] = [src]
    for a, b in zip(stops, stops[1:]):
        leg = shortest_path(topo, a, b)
        full.extend(leg[1:])
    return full


class StretchWalk:
    """Latency stretch of ``src -> waypoints... -> dst``, incrementally.

    Greedy placement scores every candidate host by the stretch of the
    path through the waypoints chosen so far, then the candidate, then
    ``dst``.  All candidates of a request share the direct path and
    the prefix up to the last chosen waypoint; this holds both, so a
    candidate costs the two legs it adds.  The latency is the same
    left-to-right sum :meth:`PhysicalTopology.path_latency` takes over
    the whole :func:`waypointed_path` — continued from the prefix
    total, never re-associated — so every stretch is bit-identical to
    evaluating the full path from scratch.
    """

    def __init__(self, topo: PhysicalTopology, src: str, dst: str,
                 waypoints: list[str] | tuple[str, ...] = ()) -> None:
        self.topo = topo
        self.src = src
        self.dst = dst
        #: Stops committed so far, in order (:meth:`push` appends).
        self.waypoints = list(waypoints)
        self._direct: float | None = None
        self._folded = 0        # waypoints[:_folded] are in the prefix
        self._at = src          # where the prefix ends
        self._latency = 0.0     # one-way latency src -> _at

    def push(self, waypoint: str) -> None:
        """Commit ``waypoint`` as the next stop."""
        self.waypoints.append(waypoint)

    def _advance(self, at: str, total: float, stops) -> float:
        for stop in stops:
            total = self.topo.path_latency(
                shortest_path(self.topo, at, stop), start=total
            )
            at = stop
        return total

    def stretch(self, *extra: str) -> float:
        """Stretch of the path via :attr:`waypoints`, then ``extra``."""
        if self._direct is None:
            self._direct = self.topo.path_latency(
                shortest_path(self.topo, self.src, self.dst)
            )
        if self._folded < len(self.waypoints):
            self._latency = self._advance(self._at, self._latency,
                                          self.waypoints[self._folded:])
            self._at = self.waypoints[-1]
            self._folded = len(self.waypoints)
        via = self._advance(self._at, self._latency, (*extra, self.dst))
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


def install_path_rules(
    controller: Controller,
    path: list[str],
    match: Match,
    priority: int = 100,
    pvn_id: str = "",
) -> int:
    """Install ``Output`` rules along ``path`` for packets matching.

    Only nodes the controller manages (SDN switches) get rules; hosts
    and plain routers on the path are skipped.  Returns the number of
    rules installed.
    """
    installed = 0
    for node, nxt in zip(path, path[1:]):
        if node not in controller.switch_names:
            continue
        controller.install(
            node, match, (Output(nxt),), priority=priority, pvn_id=pvn_id
        )
        installed += 1
    return installed
