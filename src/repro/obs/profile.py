"""Phase profiling for the experiment harness.

A :class:`PhaseProfiler` charges wall time per named phase, so an
experiment's report can say "the Python runtime spent 40 ms of wall
time in setup".  Phase timings also land in the metrics registry (when
observability is enabled) as the ``repro_phase_wall_seconds`` counter
labelled by phase, which the Prometheus dump exposes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Iterator

from repro.obs import runtime


@dataclasses.dataclass
class PhaseTiming:
    """Accumulated time for one named phase."""

    phase: str
    wall_seconds: float = 0.0
    entries: int = 0


class PhaseProfiler:
    """Accumulates per-phase wall durations."""

    def __init__(self) -> None:
        self.phases: dict[str, PhaseTiming] = {}

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[PhaseTiming]:
        timing = self.phases.setdefault(name, PhaseTiming(phase=name))
        wall_start = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - wall_start
            timing.wall_seconds += wall
            timing.entries += 1
            obs = runtime.current()
            if obs is not None:
                obs.metrics.counter(
                    "repro_phase_wall_seconds",
                    "Wall time spent per profiled phase",
                    ("phase",),
                ).labels(phase=name).inc(wall)

    def report(self) -> list[PhaseTiming]:
        """Timings in descending wall-time order."""
        return sorted(self.phases.values(),
                      key=lambda t: t.wall_seconds, reverse=True)

    def render(self) -> str:
        rows = [
            f"  {t.phase:<32} wall {t.wall_seconds * 1e3:9.3f} ms   "
            f"x{t.entries}"
            for t in self.report()
        ]
        return "\n".join(["profile:"] + rows) if rows else "profile: (empty)"
