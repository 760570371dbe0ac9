"""Service-function chains.

A :class:`ServiceChain` runs a packet through an ordered list of
(optionally sandboxed) containers.  The first non-PASS verdict
short-circuits: DROP consumes the packet, TUNNEL hands it to a tunnel
callback, REWRITE continues with the modified packet.

The chain also aggregates the per-packet latency the experiments
charge: the sum of each traversed container's ``per_packet_delay``.

Execution is delegated to a compiled :class:`~repro.nfv.pipeline.Pipeline`
(:meth:`ServiceChain.compile`): hop runners and per-hop delays are
resolved once instead of per packet, and :meth:`as_executor` reuses a
pooled :class:`ProcessingContext` across packets.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.errors import ConfigurationError
from repro.netsim.packet import Packet
from repro.nfv.container import Container
from repro.nfv.middlebox import ProcessingContext, Verdict, VerdictKind
from repro.nfv.pipeline import Pipeline, PipelineStep
from repro.nfv.sandbox import Sandbox

TunnelCallback = Callable[[Packet, str], None]


@dataclasses.dataclass
class ChainHop:
    """One position in a chain: a container, optionally sandboxed."""

    container: Container
    sandbox: Sandbox | None = None

    def process(self, packet: Packet, context: ProcessingContext) -> Verdict:
        if self.sandbox is not None:
            # Charge container accounting, but let the sandbox gate the verdict.
            self.container.packets_processed += 1
            return self.sandbox.process(packet, context)
        return self.container.process(packet, context)


@dataclasses.dataclass
class ChainResult:
    """What happened to one packet in a chain."""

    packet: Packet | None          # None when dropped or tunneled
    verdicts: list[Verdict]
    added_delay: float
    terminal_kind: VerdictKind


class ServiceChain:
    """An ordered middlebox chain with a stable id."""

    def __init__(
        self,
        chain_id: str,
        hops: list[ChainHop],
        tunnel_callback: TunnelCallback | None = None,
    ) -> None:
        if not chain_id:
            raise ConfigurationError("chain needs an id")
        self.chain_id = chain_id
        self.hops = list(hops)
        self.tunnel_callback = tunnel_callback
        self.packets_in = 0
        self.packets_dropped = 0
        self.packets_tunneled = 0
        self._pipeline: Pipeline | None = None
        self._compiled_hops: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def per_packet_delay(self) -> float:
        """Added latency for a packet traversing the whole chain."""
        return sum(hop.container.spec.per_packet_delay for hop in self.hops)

    @property
    def memory_bytes(self) -> int:
        return sum(hop.container.spec.memory_bytes for hop in self.hops)

    def compile(self) -> Pipeline:
        """The compiled pipeline for this chain (cached, auto-refreshed).

        Hop runners and per-hop delays are resolved once; the cached
        pipeline is recompiled automatically when the hop list changes
        (and can be dropped explicitly via :meth:`invalidate`).
        """
        hop_ids = tuple(id(hop) for hop in self.hops)
        if self._pipeline is None or hop_ids != self._compiled_hops:
            self._pipeline = Pipeline(
                self.chain_id,
                tuple(
                    PipelineStep(
                        name=hop.container.middlebox.name,
                        runner=hop.process,
                        delay=hop.container.spec.per_packet_delay,
                    )
                    for hop in self.hops
                ),
                drop_suffix=f" (chain {self.chain_id})",
            )
            self._compiled_hops = hop_ids
        return self._pipeline

    def invalidate(self) -> None:
        """Drop the compiled pipeline (next packet recompiles)."""
        self._pipeline = None
        self._compiled_hops = ()

    def process(self, packet: Packet, context: ProcessingContext) -> ChainResult:
        """Run ``packet`` through the chain."""
        self.packets_in += 1
        result = self.compile().run(packet, context)
        if result.terminal_kind is VerdictKind.DROP:
            self.packets_dropped += 1
        elif result.terminal_kind is VerdictKind.TUNNEL:
            self.packets_tunneled += 1
            packet.metadata["tunneled_to"] = result.tunnel_endpoint
            if self.tunnel_callback is not None:
                self.tunnel_callback(packet, result.tunnel_endpoint)
        return ChainResult(result.packet, result.verdicts,
                           result.added_delay, result.terminal_kind)

    def as_executor(
        self,
        clock: Callable[[], float] | None = None,
    ) -> Callable[[Packet, str], Packet | None]:
        """Adapt this chain to the SDN switch's ToChain executor API.

        The executor reuses one pooled :class:`ProcessingContext`
        across packets instead of allocating per packet; per-packet
        state (``now`` from ``clock`` when given, ``owner`` from the
        packet, ``extras``) is reset for every packet.
        """
        pooled: list[ProcessingContext] = []

        def executor(packet: Packet, chain_id: str) -> Packet | None:
            if not pooled:
                context = ProcessingContext(
                    now=clock() if clock is not None else 0.0,
                    owner=packet.owner,
                )
                pooled.append(context)
            else:
                context = pooled[0]
                context.reset(
                    clock() if clock is not None else context.now,
                    packet.owner,
                )
            result = self.process(packet, context)
            return result.packet

        return executor
