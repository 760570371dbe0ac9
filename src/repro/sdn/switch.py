"""The SDN switch: a node that forwards according to its flow table.

Chain actions hand the packet to a registered chain executor (the NFV
layer registers these); the executor returns the packet to continue —
possibly modified — or ``None`` if the chain consumed or dropped it.

The data plane is a three-tier fast path: an exact-match
:class:`~repro.sdn.flowcache.FlowCache` memoizes the winning rule *and*
its pre-compiled action closure per microflow, and a wildcard
:class:`~repro.sdn.flowcache.MegaflowCache` behind it memoizes the
minimal match superset per classification decision, so even the first
packet of a *new* flow usually skips the table classification (lookup
order: microflow -> megaflow -> full classification).  This is the
switch's only classification path; the test suite checks it against a
linear-scan reference.  Entries in both
tiers are fenced on the table's generation counter (every
install/remove invalidates) and on the migration epoch token
(:meth:`SdnSwitch.fence`) so cached winners can never go stale.  The
microflow key is :meth:`~repro.netsim.packet.Packet.flow_key`, built
once per packet for the lookup and the store after a miss.

Packet accounting is conservative by construction::

    packets_received == packets_forwarded + packets_dropped
                        + packets_punted + packets_consumed

where *punted* counts table misses handed to the controller and
*consumed* counts packets that left the local pipeline through a chain
handoff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.netsim.node import Node
from repro.obs import runtime as obs_runtime
from repro.netsim.packet import Packet
from repro.sdn.actions import Drop, Output, ToChain
from repro.sdn.flowcache import CacheEntry, FlowCache, MegaflowCache
from repro.sdn.flowtable import FlowTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.link import Link
    from repro.netsim.simulator import Simulator

ChainExecutor = Callable[[Packet, str], Packet | None]
PacketInHandler = Callable[["SdnSwitch", Packet], None]

#: A compiled action list: call with a packet, fully applied.
CompiledActions = Callable[[Packet], None]


class SdnSwitch(Node):
    """A match/action forwarding element."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        super().__init__(sim, name)
        self.table = FlowTable(name=f"{name}.table0")
        self.flow_cache = FlowCache(name=f"{name}.cache")
        self.megaflow_cache = MegaflowCache(name=f"{name}.megaflow")
        self._chain_executors: dict[str, ChainExecutor] = {}
        self._packet_in: PacketInHandler | None = None
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_punted = 0     # table misses handed to the controller
        self.packets_consumed = 0   # left the pipeline via a chain
        # Classifications that fell through both cache tiers to the
        # rule table (E21's headline metric).
        self.full_classifications = 0

    # -- control-plane wiring ----------------------------------------------

    def bind_chain(self, chain_id: str, executor: ChainExecutor) -> None:
        """Register the executor invoked by ``ToChain(chain_id)``."""
        self._chain_executors[chain_id] = executor

    def set_packet_in_handler(self, handler: PacketInHandler | None) -> None:
        """Table-miss handler (the controller registers itself here)."""
        self._packet_in = handler

    def invalidate_cache(self) -> int:
        """Eagerly flush both cache tiers (rule pushes, cutovers)."""
        return self.flow_cache.flush() + self.megaflow_cache.flush()

    def fence(self, token: object) -> None:
        """Adopt an epoch-fence token on both cache tiers.

        Migration cutovers call this so closures compiled against a
        superseded deployment can never serve post-cutover traffic
        from either the microflow or the megaflow tier.
        """
        self.flow_cache.fence(token)
        self.megaflow_cache.fence(token)

    # -- data plane ----------------------------------------------------------

    def receive(self, packet: Packet, link: "Link") -> None:
        self.process(packet)

    def _classify(self, packet: Packet) -> CacheEntry:
        """The cached entry for ``packet``, filling tiers on demand.

        Lookup order is microflow -> megaflow -> full classification;
        a megaflow hit is promoted into the microflow tier so the
        flow's later packets take the exact-match path.
        """
        micro = self.flow_cache
        mega = self.megaflow_cache
        generation = self.table.generation
        key = packet.flow_key()
        entry = micro.lookup(key, generation)
        if entry is not None:
            return entry
        entry = mega.get(packet, generation)
        if entry is None:
            rule, mask = self.table.classify(packet)
            self.full_classifications += 1
            closure = (self._punt if rule is None
                       else self._compile_actions(rule.actions))
            entry = mega.put(packet, mask, rule, closure, generation)
        micro.store(key, entry)
        return entry

    def process(self, packet: Packet) -> None:
        """Run ``packet`` through the table and apply the winning rule.

        Classification and action compilation happen once per
        megaflow; every packet — cached or not — is charged against
        the winning rule's match statistics exactly once.
        """
        self.packets_received += 1
        entry = self._classify(packet)
        if entry.rule is None:
            self.table.record_miss()
        else:
            self.table.record_match(entry.rule, packet)
        entry.closure(packet)

    # -- action compilation --------------------------------------------------

    def _compile_actions(self, actions: tuple) -> CompiledActions:
        """Pre-resolve a rule's action into one closure.

        Type dispatch happens here, once per cached flow, instead of
        per packet.  Every action is terminal, so only the first one
        can run (a :class:`~repro.sdn.flowtable.FlowRule` refuses an
        empty list).
        """
        action = actions[0]
        if isinstance(action, ToChain):
            return self._compile_chain(action)
        if isinstance(action, Output):
            return self._compile_output(action)
        if isinstance(action, Drop):
            return self._compile_drop(action)
        raise ConfigurationError(f"unknown action {action!r}")

    def _compile_drop(self, action: Drop) -> CompiledActions:
        suffix = f"{action.reason} at {self.name}"

        def drop(packet: Packet) -> None:
            self.packets_dropped += 1
            packet.mark_dropped(suffix)

        return drop

    def _compile_chain(self, action: ToChain) -> CompiledActions:
        def to_chain(packet: Packet) -> None:
            self._run_chain(packet, action)

        return to_chain

    def _compile_output(self, action: Output) -> CompiledActions:
        neighbor = action.neighbor

        def output(packet: Packet) -> None:
            self.packets_forwarded += 1
            self.send(packet, via=neighbor)

        return output

    # -- terminal handoffs ----------------------------------------------------

    def _punt(self, packet: Packet) -> None:
        """Table miss: hand to the controller, or default-drop."""
        if self._packet_in is not None:
            self.packets_punted += 1
            self._packet_in(self, packet)
        else:
            self.packets_dropped += 1
            packet.mark_dropped(f"table miss at {self.name}")

    def _run_chain(self, packet: Packet, action: ToChain) -> None:
        executor = self._chain_executors.get(action.chain_id)
        if executor is None:
            self.packets_dropped += 1
            packet.mark_dropped(
                f"chain {action.chain_id} not bound at {self.name}"
            )
            return
        result = executor(packet, action.chain_id)
        if result is None:
            # chain consumed (blocked/tunneled) the packet
            self.packets_consumed += 1
            return
        if action.resume_neighbor:
            self.packets_forwarded += 1
            # Executors report middlebox processing time out of band so
            # the data plane can charge it before resuming.
            delay = float(result.metadata.pop("chain_delay", 0.0))
            if delay > 0:
                self.sim.schedule(delay, self.send, result,
                                  action.resume_neighbor)
            else:
                self.send(result, via=action.resume_neighbor)
        else:
            # The executor keeps the packet (it decides what happens
            # next); the switch's pipeline is done with it.
            self.packets_consumed += 1

    # -- observability --------------------------------------------------------

    @property
    def packets_total(self) -> int:
        """The monotone throughput tap the closed loop samples
        (:class:`~repro.core.deployment.telemetry.TelemetryFeed` takes
        deltas of this between ticks; same name on every layer)."""
        return self.packets_received

    def counters(self) -> dict[str, int]:
        return {
            "received": self.packets_received,
            "forwarded": self.packets_forwarded,
            "dropped": self.packets_dropped,
            "punted": self.packets_punted,
            "consumed": self.packets_consumed,
        }

    def publish_counters(self) -> None:
        """Fold switch throughput and both cache tiers' counters into
        the metrics registry
        (``repro_switch_packets_total{switch=...,result=...}`` and the
        cache families) so the Prometheus dump and the conservation
        property tests read one typed interface instead of snapshot
        dicts; a no-op while observability is off.
        """
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.fold_totals(
                "repro_switch_packets",
                "Per-switch packet outcomes (conservation: received == "
                "forwarded + dropped + punted + consumed)",
                ("switch",), {"switch": self.name}, self.counters(),
            )
            obs.metrics.fold_totals(
                "repro_switch_classifications",
                "Classifications that fell through every cache tier to "
                "the linear rule scan",
                ("switch",), {"switch": self.name},
                {"full": self.full_classifications},
            )
        self.flow_cache.publish()
        self.megaflow_cache.publish()
