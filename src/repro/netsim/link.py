"""Point-to-point links.

A :class:`Link` joins two nodes bidirectionally.  Each direction has
its own serialisation state (a link can be busy A->B while idle B->A),
a drop-tail buffer, an optional random loss rate (wireless links), and
an optional :class:`~repro.netsim.queueing.TokenBucket` shaper used to
model ISP policy applied on a physical link.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.netsim.packet import Packet
from repro.netsim.queueing import TokenBucket
from repro.netsim.randomness import default_streams
from repro.units import transmission_delay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Node
    from repro.netsim.simulator import Simulator


@dataclasses.dataclass
class LinkStats:
    """Per-direction delivery counters."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    bytes_delivered: int = 0


class _Direction:
    """One direction of a link: where it delivers and its serialisation
    state.  Built once per link so the per-packet path resolves nothing."""

    __slots__ = ("peer", "stats", "busy_until", "shaper")

    def __init__(self, peer: "Node") -> None:
        self.peer = peer
        self.stats = LinkStats()
        self.busy_until = 0.0
        self.shaper: TokenBucket | None = None


class Link:
    """A bidirectional point-to-point link.

    Parameters
    ----------
    a, b:
        The two endpoint nodes; the link registers itself with both.
    latency:
        One-way propagation delay in seconds.
    bandwidth_bps:
        Serialisation rate in bits/second.
    loss_rate:
        Independent per-packet loss probability (0 disables loss).
    rng:
        Generator used for loss draws.  When omitted, the link lazily
        derives a stream named after itself from
        :func:`repro.netsim.randomness.default_streams`, so loss draws
        and fault injection share one seeded-RNG discipline.
    """

    def __init__(
        self,
        a: "Node",
        b: "Node",
        latency: float = 0.001,
        bandwidth_bps: float = 100e6,
        loss_rate: float = 0.0,
        rng: np.random.Generator | None = None,
        name: str = "",
        max_queue_delay: float | None = None,
    ) -> None:
        if latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency}")
        if bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(f"loss_rate must be in [0,1), got {loss_rate}")
        if max_queue_delay is not None and max_queue_delay < 0:
            raise ConfigurationError("max_queue_delay must be >= 0")
        if a is b or a.name == b.name:
            # Nodes index their links by peer name; two ends that share
            # one would also share a direction's queue and counters.
            raise ConfigurationError(
                f"a link needs two distinctly named endpoints, got "
                f"{a.name!r} twice"
            )
        self.a = a
        self.b = b
        self.latency = float(latency)
        self.bandwidth_bps = float(bandwidth_bps)
        self.loss_rate = float(loss_rate)
        self.rng = rng
        self.max_queue_delay = max_queue_delay
        self.name = name or f"{a.name}<->{b.name}"
        self.up = True
        self._from_a = _Direction(peer=b)
        self._from_b = _Direction(peer=a)
        a.attach_link(self)
        b.attach_link(self)

    # -- wiring ----------------------------------------------------------

    def _direction(self, from_node: "Node") -> _Direction:
        """The direction leaving ``from_node``, matched by identity."""
        if from_node is self.a:
            return self._from_a
        if from_node is self.b:
            return self._from_b
        raise ConfigurationError(
            f"{from_node.name} is not attached to {self.name}"
        )

    def other_end(self, node: "Node") -> "Node":
        """The peer of ``node`` on this link."""
        return self._direction(node).peer

    def set_shaper(self, from_node: "Node", shaper: TokenBucket | None) -> None:
        """Install (or clear) a shaper on the ``from_node`` -> peer direction."""
        self._direction(from_node).shaper = shaper

    def stats_from(self, node: "Node") -> LinkStats:
        """Delivery counters for the direction leaving ``node``."""
        return self._direction(node).stats

    def take_down(self) -> None:
        """Fail the link: every in-flight transmit attempt is lost."""
        self.up = False

    def bring_up(self) -> None:
        self.up = True

    @property
    def _loss_rng(self) -> np.random.Generator:
        """The loss-draw generator, derived lazily from the default
        seeded streams when no rng was supplied at construction."""
        if self.rng is None:
            self.rng = default_streams().get(f"link-loss:{self.name}")
        return self.rng

    # -- data plane --------------------------------------------------------

    def one_way_delay(self, size_bytes: int) -> float:
        """Unloaded latency + serialisation for a packet of this size."""
        return self.latency + transmission_delay(size_bytes, self.bandwidth_bps)

    def transmit(self, packet: Packet, from_node: "Node") -> None:
        """Send ``packet`` from ``from_node`` toward the other end.

        Models: optional shaping delay, FIFO serialisation (the
        direction's ``busy_until``), propagation, then random loss.
        Delivery schedules ``peer.receive(packet, self)``.
        """
        if from_node is self.a:
            direction = self._from_a
        elif from_node is self.b:
            direction = self._from_b
        else:
            direction = self._direction(from_node)  # raises the typed error
        stats = direction.stats
        stats.sent += 1

        if not self.up:
            stats.lost += 1
            packet.mark_dropped(f"link {self.name} is down")
            return

        sim = from_node.sim
        now = sim.now
        busy_until = direction.busy_until

        # Drop-tail on bounded buffers: a packet that would wait longer
        # than the buffer holds is dropped at enqueue time.
        if (self.max_queue_delay is not None
                and busy_until - now > self.max_queue_delay):
            stats.lost += 1
            packet.mark_dropped(f"buffer overflow on {self.name}")
            return

        start = busy_until if busy_until > now else now
        if direction.shaper is not None:
            start += direction.shaper.delay_for(packet.size, start)
        # Same expression as ``units.transmission_delay``, minus its
        # re-check of a bandwidth the constructor already validated.
        tx_done = start + (packet.size * 8.0) / self.bandwidth_bps
        direction.busy_until = tx_done

        if self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate:
            stats.lost += 1
            packet.mark_dropped(f"loss on {self.name}")
            return

        sim.schedule_at(tx_done + self.latency, self._deliver,
                        stats, direction.peer, packet)

    def _deliver(self, stats: LinkStats, peer: "Node", packet: Packet) -> None:
        """Arrival at the far end of one direction."""
        stats.delivered += 1
        stats.bytes_delivered += packet.size
        peer.receive(packet, self)


def link_rtt(path_links: list[Link], size_bytes: int = 40) -> float:
    """Unloaded round-trip time along a list of links (small packets)."""
    one_way = sum(link.one_way_delay(size_bytes) for link in path_links)
    return 2.0 * one_way
