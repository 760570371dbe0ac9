"""Split-connection TCP proxy middlebox (§2.2).

At packet level the proxy just marks flows as split (the rounds-based
transfer math lives in :mod:`repro.netsim.tcp`); at flow level it
exposes :meth:`SplitTcpProxy.transfer_time`, which the E3 experiment
sweeps across link qualities to reproduce the paper's "mixed results"
claim — splitting helps when the proxy shortens the loss-recovery loop
and hurts small transfers on clean paths.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.packet import Packet
from repro.netsim.tcp import (
    PathCharacteristics,
    TcpParams,
    TransferResult,
    simulate_split_transfer,
    simulate_transfer,
)
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict


#: Constant verdicts, built once instead of per packet.
_NOT_TCP = Verdict.passed("not TCP")


class SplitTcpProxy(Middlebox):
    """Terminates client TCP connections and re-originates upstream."""

    service = "tcp_proxy"

    def __init__(
        self,
        connection_setup: float = 0.002,
        name: str = "tcp_proxy",
    ) -> None:
        super().__init__(name)
        self.connection_setup = connection_setup
        self.flows_split = 0

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        if packet.protocol != "tcp":
            return _NOT_TCP
        if not packet.metadata.get("split_tcp"):
            packet.metadata["split_tcp"] = self.name
            self.flows_split += 1
        return Verdict.rewritten("connection split", proxy=self.name)

    def export_state(self) -> dict:
        state = super().export_state()
        state["flows_split"] = self.flows_split
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self.flows_split = state.get("flows_split", 0)

    # -- flow-level model ------------------------------------------------------

    def transfer_time(
        self,
        size_bytes: int,
        upstream: PathCharacteristics,
        downstream: PathCharacteristics,
        rng: np.random.Generator,
        params: TcpParams | None = None,
    ) -> TransferResult:
        """Download time through this proxy (server->proxy->client)."""
        return simulate_split_transfer(
            size_bytes, upstream, downstream,
            params=params, rng=rng,
            proxy_connection_setup=self.connection_setup,
        )

    @staticmethod
    def direct_transfer_time(
        size_bytes: int,
        upstream: PathCharacteristics,
        downstream: PathCharacteristics,
        rng: np.random.Generator,
        params: TcpParams | None = None,
    ) -> TransferResult:
        """The no-proxy baseline over the concatenated path."""
        return simulate_transfer(
            size_bytes, upstream.joined_with(downstream),
            params=params, rng=rng,
        )
