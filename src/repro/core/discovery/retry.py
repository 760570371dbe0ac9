"""Timeout, retry-budget, and backoff policy for discovery requests.

Providers can time out mid-negotiation (crash, overload, or the
network eating the DM), so the device-side client retries under a
:class:`RetryPolicy`: a per-request timeout, a bounded attempt budget,
and capped exponential backoff with seeded jitter between attempts.

Two invariants the property suite pins down:

* the backoff schedule is monotone non-decreasing and never exceeds
  ``max_delay * (1 + jitter)``;
* total attempts never exceed ``max_attempts``.

With ``full_jitter=True`` the policy instead draws each delay
uniformly from ``[0, raw_delay]`` (the AWS "full jitter" scheme):
the monotone invariant is deliberately given up in exchange for
maximal decorrelation — when a crashed host evicts hundreds of users
at once, proportional jitter still leaves their retries bunched at
``~raw_delay``, hammering the recovering provider in waves, whereas
full jitter spreads the storm across the whole window.  The cap
invariant (never above ``max_delay``) holds in both modes, and the
property suite additionally pins the *spread*: seeded full-jitter
delays cover the window instead of clustering.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a client waits for, and retries, unanswered requests.

    Parameters
    ----------
    timeout:
        Seconds the client waits for any answer to one flood before
        declaring the attempt timed out.
    max_attempts:
        Total attempt budget, first try included (>= 1).
    base_delay:
        Backoff inserted before the second attempt.
    multiplier:
        Exponential growth factor per further attempt (>= 1).
    max_delay:
        Cap on the un-jittered backoff delay.
    jitter:
        Fraction of each delay added as seeded random jitter in
        ``[0, jitter * delay)`` — decorrelates clients that timed out
        together without ever shrinking the delay.
    full_jitter:
        Draw each delay uniformly from ``[0, raw_delay]`` instead
        (capped exponential, AWS full-jitter style).  Maximal retry
        decorrelation for flash crowds; gives up monotonicity.
    """

    timeout: float = 0.5
    max_attempts: int = 4
    base_delay: float = 0.2
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    full_jitter: bool = False

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ConfigurationError("base_delay must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ConfigurationError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def raw_delay(self, attempt: int) -> float:
        """Un-jittered backoff before attempt ``attempt + 2``."""
        return min(self.max_delay,
                   self.base_delay * self.multiplier ** attempt)

    def backoff_schedule(
        self, rng: np.random.Generator | None = None
    ) -> list[float]:
        """The ``max_attempts - 1`` inter-attempt delays.

        Jitter is drawn from ``rng`` (no rng, no jitter); a running
        maximum keeps the schedule monotone non-decreasing even when a
        small jitter draw follows a large one near the cap.

        In ``full_jitter`` mode each delay is instead an independent
        uniform draw over ``[0, raw_delay]`` — no floor, no monotone
        guarantee, maximal spread (without an rng the schedule
        degrades to the raw capped-exponential delays).
        """
        delays: list[float] = []
        if self.full_jitter:
            for attempt in range(self.max_attempts - 1):
                delay = self.raw_delay(attempt)
                if rng is not None:
                    delay = float(rng.random()) * delay
                delays.append(delay)
            return delays
        floor = 0.0
        for attempt in range(self.max_attempts - 1):
            delay = self.raw_delay(attempt)
            if self.jitter > 0 and rng is not None:
                delay += float(rng.random()) * self.jitter * delay
            floor = max(floor, delay)
            delays.append(floor)
        return delays

    def worst_case_wait(self) -> float:
        """Upper bound on total time burned when every attempt times out."""
        if self.full_jitter:
            return (self.max_attempts * self.timeout
                    + sum(self.raw_delay(i)
                          for i in range(self.max_attempts - 1)))
        return (self.max_attempts * self.timeout
                + sum((1 + self.jitter) * self.raw_delay(i)
                      for i in range(self.max_attempts - 1)))


@dataclasses.dataclass
class RetryTrace:
    """What one retried request actually did."""

    attempts: int = 0
    waited: float = 0.0          # timeout + backoff seconds burned
