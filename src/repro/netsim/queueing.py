"""Traffic shaping: a token bucket over simulated time.

No packet is ever held in a queue object: a
:class:`~repro.netsim.link.Link` bounds its buffer by waiting time
(``max_queue_delay``) and may pace one direction through a
:class:`TokenBucket`.  The Binge On experiment (E4) shapes video flows
through one at 1.5 Mbps exactly as the paper describes T-Mobile doing.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError


@dataclasses.dataclass
class QueueStats:
    """Counters a shaper exposes."""

    dropped: int = 0
    bytes_in: int = 0
    bytes_out: int = 0


class TokenBucket:
    """A token-bucket shaper over simulated time.

    Tokens accrue at ``rate_bps`` bits per second up to ``burst_bytes``.
    :meth:`delay_for` answers "how long must this packet wait before it
    conforms", which is how a shaping ISP (Binge On) paces video.
    """

    def __init__(self, rate_bps: float, burst_bytes: int = 16_000) -> None:
        if rate_bps <= 0:
            raise ConfigurationError("token bucket rate must be positive")
        if burst_bytes <= 0:
            raise ConfigurationError("token bucket burst must be positive")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last_update = 0.0
        self.stats = QueueStats()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_update)
        self._tokens = min(
            self.burst_bytes, self._tokens + elapsed * self.rate_bps / 8.0
        )
        self._last_update = now

    def delay_for(self, size_bytes: int, now: float) -> float:
        """Seconds the packet must wait to conform; 0 if it can go now.

        The caller is expected to actually send after the returned
        delay; tokens are consumed immediately (the packet has a
        reservation).
        """
        self._refill(now)
        self.stats.bytes_in += size_bytes
        if self._tokens >= size_bytes:
            self._tokens -= size_bytes
            self.stats.bytes_out += size_bytes
            return 0.0
        deficit = size_bytes - self._tokens
        self._tokens = 0.0
        wait = deficit * 8.0 / self.rate_bps
        # Account for the future send so back-to-back callers queue up.
        self._last_update = now + wait
        self.stats.bytes_out += size_bytes
        return wait
