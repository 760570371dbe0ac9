"""Measurement-driven tunnel-endpoint selection (§3.3 "Coping with
unavailability").

"To efficiently identify and select good PVN deployment locations
outside of the access network, we propose using active measurements to
inform the costs of alternative locations."  Candidates are probed for
RTT; the winner minimises a latency + price utility, skipping
unreachable endpoints.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Callable

from repro.errors import TunnelError

#: A probe returns the measured RTT in seconds, or raises on failure.
RttProbe = Callable[[], float]


@dataclasses.dataclass(frozen=True)
class EndpointCandidate:
    """One remote PVN location a device could tunnel to."""

    name: str
    probe: RttProbe
    price: float = 0.0           # per-session cost of this location
    supports_pvn: bool = True


@dataclasses.dataclass(frozen=True)
class EndpointScore:
    """Measurement summary for one candidate."""

    name: str
    median_rtt: float
    price: float
    reachable: bool
    cost: float


@dataclasses.dataclass(frozen=True)
class SelectionResult:
    """The chosen endpoint plus every candidate's score."""

    chosen: str
    scores: tuple[EndpointScore, ...]

    def score_for(self, name: str) -> EndpointScore:
        for score in self.scores:
            if score.name == name:
                return score
        raise TunnelError(f"no score for endpoint {name!r}")


def select_endpoint(
    candidates: list[EndpointCandidate],
    price_weight: float = 1.0,
) -> SelectionResult:
    """Probe every candidate three times and pick the lowest-cost
    reachable one.

    ``cost = 1000.0 * median_rtt + price_weight * price``.
    Raises :class:`TunnelError` if nothing is reachable.
    """
    if not candidates:
        raise TunnelError("no candidate endpoints to select among")

    scores: list[EndpointScore] = []
    for candidate in candidates:
        if not candidate.supports_pvn:
            scores.append(EndpointScore(candidate.name, float("inf"),
                                        candidate.price, False, float("inf")))
            continue
        samples = []
        for _ in range(3):
            try:
                samples.append(candidate.probe())
            except TunnelError:
                continue
        if not samples:
            scores.append(EndpointScore(candidate.name, float("inf"),
                                        candidate.price, False, float("inf")))
            continue
        median_rtt = statistics.median(samples)
        cost = 1000.0 * median_rtt + price_weight * candidate.price
        scores.append(EndpointScore(candidate.name, median_rtt,
                                    candidate.price, True, cost))

    reachable = [s for s in scores if s.reachable]
    if not reachable:
        raise TunnelError("no PVN-supporting endpoint is reachable")
    best = min(reachable, key=lambda s: (s.cost, s.name))
    return SelectionResult(chosen=best.name, scores=tuple(scores))
