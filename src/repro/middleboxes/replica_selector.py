"""Client-assisted replica selection (§4 "Other applications").

Content providers run replicas; the mapping clients get (via DNS or
anycast) is often far from optimal for *this* device on *this* access
network.  Running selection in the PVN gives the user's own
measurements authority: the middlebox keeps an EWMA RTT estimate per
replica, routes each flow to the current best, and keeps exploring
alternatives with a small probability so estimates never go stale.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict


@dataclasses.dataclass
class ReplicaState:
    """Bookkeeping for one replica."""

    address: str
    ewma_rtt: float = 0.100     # pessimistic prior
    samples: int = 0

    def observe(self, rtt: float, alpha: float = 0.3) -> None:
        if self.samples == 0:
            self.ewma_rtt = rtt
        else:
            self.ewma_rtt = (1 - alpha) * self.ewma_rtt + alpha * rtt
        self.samples += 1


#: Constant verdicts, built once instead of per packet.
_UNMANAGED_DESTINATION = Verdict.passed("not a managed destination")
_AT_BEST_REPLICA = Verdict.passed("already at the best replica")


class ReplicaSelector(Middlebox):
    """Rewrites flow destinations to the measured-best replica.

    Parameters
    ----------
    service_cidr:
        Destination prefix this selector manages (flows to other
        destinations pass untouched).
    replicas:
        Candidate replica addresses.
    explore_probability:
        Chance of routing a flow to a random non-best replica to keep
        its estimate fresh.
    """

    service = "replica_selector"

    def __init__(
        self,
        service_cidr: str,
        replicas: list[str],
        rng: np.random.Generator,
        explore_probability: float = 0.1,
        name: str = "replica_selector",
    ) -> None:
        super().__init__(name)
        if not replicas:
            raise ValueError("need at least one replica")
        if not 0.0 <= explore_probability < 1.0:
            raise ValueError("explore_probability must be in [0,1)")
        self.service_cidr = service_cidr
        self.replicas = {addr: ReplicaState(addr) for addr in replicas}
        self.rng = rng
        self.explore_probability = explore_probability
        self.redirected = 0

    # -- measurement feedback ------------------------------------------------

    def report_rtt(self, replica: str, rtt: float) -> None:
        """Fold a completed flow's measured RTT back in."""
        state = self.replicas.get(replica)
        if state is not None:
            state.observe(rtt)

    def best_replica(self) -> str:
        return min(
            self.replicas.values(), key=lambda s: (s.ewma_rtt, s.address)
        ).address

    # -- middlebox hook ----------------------------------------------------------

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        from repro.netproto.addresses import ip_in_subnet

        if not ip_in_subnet(packet.dst, self.service_cidr):
            return _UNMANAGED_DESTINATION
        if self.rng.random() < self.explore_probability:
            choice = sorted(self.replicas)[
                int(self.rng.integers(len(self.replicas)))
            ]
        else:
            choice = self.best_replica()
        if choice == packet.dst:
            return _AT_BEST_REPLICA
        packet.metadata["original_dst"] = packet.dst
        packet.dst = choice
        self.redirected += 1
        return Verdict.rewritten("redirected to replica", replica=choice)
