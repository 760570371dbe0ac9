"""A rounds-based TCP transfer model.

The PVN paper's performance argument (§2.2) rests on classic split-TCP
behaviour: terminating a connection at an in-network proxy shortens the
control loop, so congestion windows grow faster and losses on the
wireless last mile are recovered locally — but proxying adds overhead
that can make it a net loss for clients with poor links (the mixed
results of Xu et al. [44]).  This module reproduces exactly that
mechanism with a deterministic rounds-based simulation of TCP slow
start / congestion avoidance, and a coupled two-segment simulation for
split connections where the downstream leg can only forward bytes the
upstream leg has already delivered.

The model is intentionally at the level of RTT rounds, not packets: it
captures cwnd dynamics, loss recovery, and bandwidth-delay limits,
which is the granularity at which the paper's claims live.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class TcpParams:
    """Protocol constants for the rounds model."""

    mss: int = 1460
    initial_cwnd: int = 10          # segments (RFC 6928)
    initial_ssthresh: int = 64      # segments
    max_cwnd: int = 4096            # receiver window, segments
    handshake_rtts: float = 1.0     # SYN/SYN-ACK before first data round
    min_rto: float = 0.2            # timeout floor, seconds


@dataclasses.dataclass(frozen=True)
class PathCharacteristics:
    """One leg of a connection path."""

    rtt: float                      # round-trip propagation, seconds
    loss_rate: float                # per-segment loss probability
    bandwidth_bps: float            # bottleneck rate on the leg

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ConfigurationError(f"rtt must be positive, got {self.rtt}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0,1), got {self.loss_rate}"
            )
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")

    def joined_with(self, other: "PathCharacteristics") -> "PathCharacteristics":
        """The end-to-end path formed by concatenating two legs."""
        combined_loss = 1.0 - (1.0 - self.loss_rate) * (1.0 - other.loss_rate)
        return PathCharacteristics(
            rtt=self.rtt + other.rtt,
            loss_rate=combined_loss,
            bandwidth_bps=min(self.bandwidth_bps, other.bandwidth_bps),
        )


@dataclasses.dataclass
class TransferResult:
    """Outcome of a simulated transfer."""

    duration: float
    size_bytes: int
    rounds: int
    timeline: list[tuple[float, int]]  # (time, cumulative bytes delivered)

    def bytes_available_at(self, time: float) -> int:
        """Cumulative bytes delivered by ``time`` (step interpolation)."""
        if not self.timeline or time < self.timeline[0][0]:
            return 0
        times = [point[0] for point in self.timeline]
        index = bisect.bisect_right(times, time) - 1
        return self.timeline[index][1]

    def time_for_bytes(self, nbytes: int) -> float:
        """Earliest time at which ``nbytes`` were delivered."""
        for time, cumulative in self.timeline:
            if cumulative >= nbytes:
                return time
        return math.inf


class _RoundState:
    """Mutable cwnd state shared by the direct and split simulations."""

    def __init__(self, params: TcpParams, path: PathCharacteristics) -> None:
        self.params = params
        self.path = path
        self.cwnd = float(params.initial_cwnd)
        self.ssthresh = float(params.initial_ssthresh)
        bdp_segments = path.bandwidth_bps * path.rtt / (params.mss * 8.0)
        # Allow one BDP of bottleneck buffer before the window is clamped.
        self.window_cap = max(2.0, min(params.max_cwnd, 2.0 * bdp_segments + 4))

    def sendable_segments(self) -> int:
        return max(1, int(min(self.cwnd, self.window_cap)))

    def round_duration(self, segments: int) -> float:
        serialise = segments * self.params.mss * 8.0 / self.path.bandwidth_bps
        return max(self.path.rtt, serialise) if segments else self.path.rtt

    def on_loss(self) -> None:
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.ssthresh

    def on_success(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd * 2.0, self.window_cap)
        else:
            self.cwnd = min(self.cwnd + 1.0, self.window_cap)


def _round_has_loss(
    rng: np.random.Generator, loss_rate: float, segments: int
) -> tuple[bool, int]:
    """Whether a loss event hits this round, and how many segments."""
    if loss_rate <= 0 or segments == 0:
        return False, 0
    lost = int(rng.binomial(segments, loss_rate))
    return lost > 0, lost


def simulate_transfer(
    size_bytes: int,
    path: PathCharacteristics,
    params: TcpParams | None = None,
    rng: np.random.Generator | None = None,
    start_time: float = 0.0,
    extra_per_round_delay: float = 0.0,
) -> TransferResult:
    """Simulate one TCP download of ``size_bytes`` over ``path``.

    ``extra_per_round_delay`` adds fixed processing latency per round
    (used to charge middlebox per-packet delay at flow granularity).
    """
    params = params or TcpParams()
    if size_bytes <= 0:
        raise ConfigurationError("transfer size must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    state = _RoundState(params, path)
    now = start_time + params.handshake_rtts * path.rtt
    delivered = 0
    rounds = 0
    timeline: list[tuple[float, int]] = []
    total_segments = math.ceil(size_bytes / params.mss)
    remaining = total_segments

    while remaining > 0:
        window = min(state.sendable_segments(), remaining)
        loss, lost_count = _round_has_loss(rng, path.loss_rate, window)
        arrived = window - lost_count
        duration = state.round_duration(window) + extra_per_round_delay
        if loss and arrived == 0:
            # Whole window lost: retransmission timeout.
            duration = max(duration, params.min_rto)
        now += duration
        rounds += 1
        if arrived > 0:
            remaining -= arrived
            delivered = min(size_bytes, (total_segments - remaining) * params.mss)
            timeline.append((now, delivered))
        if loss:
            state.on_loss()
        else:
            state.on_success()

    return TransferResult(
        duration=now - start_time,
        size_bytes=size_bytes,
        rounds=rounds,
        timeline=timeline,
    )


def simulate_split_transfer(
    size_bytes: int,
    upstream: PathCharacteristics,
    downstream: PathCharacteristics,
    params: TcpParams | None = None,
    rng: np.random.Generator | None = None,
    proxy_connection_setup: float = 0.002,
) -> TransferResult:
    """Simulate a split-TCP download through an in-network proxy.

    ``upstream`` is server -> proxy; ``downstream`` is proxy -> client.
    The downstream leg is simulated round by round and can only forward
    bytes that the upstream transfer (simulated first, starting after
    the proxy's connection setup) has already delivered to the proxy:
    if the proxy buffer is empty, the downstream sender idles until the
    upstream timeline produces more data.

    ``proxy_connection_setup`` charges the proxy's splice/instantiation
    cost; each round also pays the per-packet forwarding delay the
    paper cites from ClickOS (45 microseconds).
    """
    params = params or TcpParams()
    if rng is None:
        rng = np.random.default_rng(0)

    # Client handshake completes over the downstream leg; the proxy then
    # opens its upstream connection (plus splice setup cost).
    client_handshake_done = params.handshake_rtts * downstream.rtt
    upstream_start = client_handshake_done + proxy_connection_setup
    upstream_result = simulate_transfer(
        size_bytes, upstream, params, rng, start_time=upstream_start
    )

    state = _RoundState(params, downstream)
    now = client_handshake_done
    delivered = 0  # bytes acked by the client; lost bytes stay buffered
    rounds = 0
    timeline: list[tuple[float, int]] = []

    while delivered < size_bytes:
        available = min(upstream_result.bytes_available_at(now), size_bytes)
        buffered = available - delivered
        if buffered <= 0:
            # Proxy buffer dry: wait until upstream produces the next byte.
            next_time = upstream_result.time_for_bytes(delivered + 1)
            if math.isinf(next_time):  # pragma: no cover - defensive
                break
            now = max(now, next_time)
            continue
        window_segments = min(
            state.sendable_segments(), math.ceil(buffered / params.mss)
        )
        send_bytes = min(window_segments * params.mss, buffered)
        loss, lost_count = _round_has_loss(
            rng, downstream.loss_rate, window_segments
        )
        arrived = window_segments - lost_count
        duration = state.round_duration(window_segments) + 45e-6
        if loss and arrived == 0:
            duration = max(duration, params.min_rto)
        now += duration
        rounds += 1
        if arrived > 0:
            chunk = max(0, min(send_bytes, send_bytes - lost_count * params.mss))
            if chunk > 0:
                delivered += chunk
                timeline.append((now, delivered))
        if loss:
            state.on_loss()
        else:
            state.on_success()

    return TransferResult(
        duration=now,
        size_bytes=size_bytes,
        rounds=rounds,
        timeline=timeline,
    )


def mathis_throughput_bps(path: PathCharacteristics, mss: int = 1460) -> float:
    """The Mathis et al. steady-state TCP throughput approximation.

    Used in tests as an independent sanity check on the rounds model:
    throughput ~ (MSS / RTT) * (C / sqrt(loss)).
    """
    if path.loss_rate <= 0:
        return path.bandwidth_bps
    raw = (mss * 8.0 / path.rtt) * (1.22 / math.sqrt(path.loss_rate))
    return min(raw, path.bandwidth_bps)
