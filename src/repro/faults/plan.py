"""Fault plans: scripted, random-but-seeded, and a text DSL.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records.
Three ways to build one:

* programmatically, via :func:`~repro.faults.events.make_event`;
* from a seed, via :meth:`FaultPlan.random` — same seed, same plan;
* from a fault script, via :func:`parse_fault_plan`.  The DSL is one
  event per line::

      # time is seconds on the simulator clock
      at 0.5  link-down ap0 agg
      at 0.8  loss-burst agg core rate=0.4 duration=1.0
      at 1.0  crash tls_validator
      at 1.2  crash *                  # every live PVN middlebox
      at 1.5  host-down nfv0
      at 2.0  silence duration=1.5     # provider stops answering DMs
      at 2.2  drop-dm count=3          # next 3 DMs are lost
      at 3.0  host-up nfv0
      at 3.5  link-up ap0 agg
      # migration-window faults arm the migration coordinator and hit
      # the next transaction reaching the matching 2PC window:
      at 4.0  migration-target-crash   # target dies during PREPARE
      at 4.0  transfer-loss count=2    # next 2 checkpoint ships lost
      at 4.0  commit-silence duration=0.5   # provider mute at COMMIT
      # host-level chaos (feeds the repro.health failure detector):
      at 5.0  host-crash nfv1          # abrupt death, reservations lost
      at 5.5  partition nfv2 duration=2.0   # cut off from control plane
      at 6.0  heartbeat-loss nfv0 count=2   # live host looks slow

Experiments declare scripts like the above and hand them to
:meth:`repro.faults.FaultInjector.schedule_plan` (a session's
``inject_faults``).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError
from repro.faults.events import FaultEvent, FaultKind, make_event, render_event
from repro.netsim.randomness import RandomStreams

_VERBS = {
    "link-down": FaultKind.LINK_DOWN,
    "link-up": FaultKind.LINK_UP,
    "loss-burst": FaultKind.LINK_LOSS,
    "crash": FaultKind.MIDDLEBOX_CRASH,
    "host-down": FaultKind.HOST_DOWN,
    "host-up": FaultKind.HOST_UP,
    "silence": FaultKind.PROVIDER_SILENCE,
    "drop-dm": FaultKind.DM_DROP,
    "migration-target-crash": FaultKind.MIGRATION_TARGET_CRASH,
    "transfer-loss": FaultKind.MIGRATION_TRANSFER_LOSS,
    "commit-silence": FaultKind.MIGRATION_COMMIT_SILENCE,
    "host-crash": FaultKind.HOST_CRASH,
    "partition": FaultKind.NETWORK_PARTITION,
    "heartbeat-loss": FaultKind.HEARTBEAT_LOSS,
}


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault schedule."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.sort_key))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: FaultKind) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    @property
    def horizon(self) -> float:
        """Time of the last event (plus any trailing duration)."""
        end = 0.0
        for event in self.events:
            end = max(end, event.time + event.param("duration"))
        return end

    def render(self) -> str:
        """A stable multi-line rendering, one event per line."""
        return "\n".join(render_event(e) for e in self.events)

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.events + other.events)

    @classmethod
    def random(
        cls,
        seed: int,
        duration: float,
        services: tuple[str, ...] = (),
        links: tuple[tuple[str, str], ...] = (),
        hosts: tuple[str, ...] = (),
        crash_rate: float = 0.5,
        flap_rate: float = 0.2,
        loss_rate: float = 0.2,
        silence_rate: float = 0.0,
        start: float = 0.0,
    ) -> "FaultPlan":
        """A seeded-random plan: Poisson arrivals per fault family.

        Rates are events/second over ``[start, start + duration)``.
        Identical ``(seed, duration, targets, rates)`` always produce
        an identical plan — the chaos regression suite asserts this.
        """
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        rng = RandomStreams(seed).get("fault-plan")
        events: list[FaultEvent] = []

        def arrivals(rate: float) -> list[float]:
            times = []
            if rate <= 0:
                return times
            t = start
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t >= start + duration:
                    return times
                times.append(t)

        if services:
            for t in arrivals(crash_rate):
                victim = services[int(rng.integers(len(services)))]
                events.append(make_event(t, FaultKind.MIDDLEBOX_CRASH, victim))
        if links:
            for t in arrivals(flap_rate):
                a, b = links[int(rng.integers(len(links)))]
                outage = float(rng.uniform(0.1, 0.5)) * duration
                events.append(make_event(t, FaultKind.LINK_DOWN, a, b))
                events.append(make_event(t + outage, FaultKind.LINK_UP, a, b))
            for t in arrivals(loss_rate):
                a, b = links[int(rng.integers(len(links)))]
                events.append(make_event(
                    t, FaultKind.LINK_LOSS, a, b,
                    rate=round(float(rng.uniform(0.1, 0.6)), 4),
                    duration=round(float(rng.uniform(0.05, 0.3)) * duration, 4),
                ))
        if hosts:
            for t in arrivals(crash_rate / 2.0):
                host = hosts[int(rng.integers(len(hosts)))]
                events.append(make_event(t, FaultKind.HOST_DOWN, host))
                events.append(make_event(
                    t + float(rng.uniform(0.2, 0.6)) * duration,
                    FaultKind.HOST_UP, host,
                ))
        for t in arrivals(silence_rate):
            events.append(make_event(
                t, FaultKind.PROVIDER_SILENCE,
                duration=round(float(rng.uniform(0.1, 0.4)) * duration, 4),
            ))
        return cls(tuple(events))


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the fault-script DSL into a :class:`FaultPlan`."""
    events: list[FaultEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 3 or tokens[0] != "at":
            raise ConfigurationError(
                f"fault script line {lineno}: expected "
                f"'at <time> <verb> ...', got {raw!r}"
            )
        try:
            time = float(tokens[1])
        except ValueError:
            raise ConfigurationError(
                f"fault script line {lineno}: bad time {tokens[1]!r}"
            ) from None
        verb = tokens[2]
        kind = _VERBS.get(verb)
        if kind is None:
            raise ConfigurationError(
                f"fault script line {lineno}: unknown verb {verb!r}; "
                f"expected one of {sorted(_VERBS)}"
            )
        target: list[str] = []
        params: dict[str, float] = {}
        for token in tokens[3:]:
            if "=" in token:
                key, _, value = token.partition("=")
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ConfigurationError(
                        f"fault script line {lineno}: bad value in {token!r}"
                    ) from None
            else:
                target.append(token)
        events.append(make_event(time, kind, *target, **params))
    return FaultPlan(tuple(events))
