"""Host-time measurements of the E23 population engine.

E23 reports simulated outcomes only; the wall-clock side of its claims
lives here, shared by ``test_bench_population.py`` (the smoke-sized
bars) and ``record_population.py`` (the full-scale recording in
``BENCH_population.json``).  Only ``engine.run`` is timed, not the
workload's construction.
"""

import time

from repro.experiments.exp23_population import (
    _spec,
    build_population,
    sweep_spec,
)
from repro.netsim.fluid import MODE_FLUID, MODE_PACKET


def timed_mode(spec, seed: int, mode: str) -> dict:
    """Run one mode over the workload with a count-only ledger; wall
    time and accounting."""
    engine = build_population(spec, seed, mode=mode, keep_records=False)
    start = time.perf_counter()
    engine.run(spec.horizon)
    wall = time.perf_counter() - start
    device_seconds = spec.devices * spec.horizon
    return {
        "wall_seconds": wall,
        "device_seconds_per_sec": device_seconds / wall if wall else 0.0,
        "counters": engine.counters(),
        "pii_violations": engine.ledger.count("pii_violation"),
        "engine": engine,
    }


def speedup_check(devices: int, horizon: float, seed: int) -> dict:
    """Fluid vs packet wall-clock over identical churn (count-only
    ledgers: record retention is not part of either mode's cost, and
    the counts still cross-check)."""
    spec = _spec(devices, horizon)
    fluid = timed_mode(spec, seed, MODE_FLUID)
    packet = timed_mode(spec, seed, MODE_PACKET)
    return {
        "fluid": fluid,
        "packet": packet,
        "counts_match": (fluid["engine"].ledger.counts
                         == packet["engine"].ledger.counts),
        "speedup": (packet["wall_seconds"] / fluid["wall_seconds"]
                    if fluid["wall_seconds"] else float("inf")),
    }


def sweep_point(devices: int, horizon: float, seed: int) -> dict:
    """One timed fluid-only point of E23's scaling sweep."""
    result = timed_mode(sweep_spec(devices, horizon), seed, MODE_FLUID)
    result.pop("engine")
    return result
