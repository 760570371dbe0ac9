"""population_fluid — the fluid engine at population scale.

E23's churn workload on ``HybridPopulationEngine`` in fluid mode with a
count-only ledger.  All host time is numpy work in ``netsim.fluid``,
``netsim.soa`` and ``workloads.population``; ``sdn``, ``nfv`` and
``core`` are idle, so this is the bypass workload for every datapath or
control-plane change.
"""

from __future__ import annotations

import dataclasses
import functools
import time

from bench.harness import Outcome, Probe, layer_counts
from repro.experiments.exp23_population import (
    BASE_SPEC,
    CELL_CAPACITY_BPS,
    TICK,
)
from repro.netsim.fluid import (
    MODE_FLUID,
    MODE_PACKET,
    HybridPopulationEngine,
    PolicyLedger,
)
from repro.netsim.simulator import Simulator
from repro.workloads.population import PopulationSpec, PopulationWorkload

NAME = "population_fluid"
WHY = ("200k-device fluid simulation, all numpy in netsim.fluid and "
       "workloads.population: sdn, nfv and core idle, so the bypass workload")

FULL_DEVICES = 200_000
HORIZON = 30.0
#: Step = host time to advance the population by this much simulated time.
SLICE_SECONDS = 1.0
#: The fluid abstraction is licensed by exact agreement with the
#: packet-level pipeline; re-proved once per process on a small
#: population (packet mode is ~100x slower).
FULL_PARITY_DEVICES = 2000
PARITY_HORIZON = 12.0


@dataclasses.dataclass
class World:
    engine: HybridPopulationEngine
    spec: PopulationSpec
    parity_digest: str


def _engine(devices: int, horizon: float, seed: int, mode: str,
            keep_records: bool) -> tuple[HybridPopulationEngine,
                                         PopulationSpec]:
    spec = PopulationSpec(**dict(BASE_SPEC, devices=devices,
                                 horizon=horizon))
    engine = HybridPopulationEngine(
        Simulator(), spec.devices, spec.cells, CELL_CAPACITY_BPS,
        device_rate_bps=spec.device_rate_bps, tick=TICK, mode=mode,
        ledger=PolicyLedger(keep_records=keep_records),
    )
    engine.bind(PopulationWorkload(spec, seed=seed, tick=TICK))
    return engine, spec


@functools.cache
def _parity_digest(seed: int, devices: int) -> str:
    """The policy digest both modes agree on, or "" if they differ."""
    fluid, spec = _engine(devices, PARITY_HORIZON, seed, MODE_FLUID, True)
    packet, _ = _engine(devices, PARITY_HORIZON, seed, MODE_PACKET, True)
    fluid.run(spec.horizon)
    packet.run(spec.horizon)
    agree = (fluid.ledger.digest() == packet.ledger.digest()
             and fluid.completion_times == packet.completion_times)
    return fluid.ledger.digest() if agree else ""


def build(seed: int, scale: float) -> World:
    parity = _parity_digest(seed, max(50, round(FULL_PARITY_DEVICES * scale)))
    engine, spec = _engine(max(100, round(FULL_DEVICES * scale)), HORIZON,
                           seed, MODE_FLUID, keep_records=False)
    return World(engine, spec, parity)


def run(world: World, probe: Probe) -> Outcome:
    engine, spec = world.engine, world.spec
    stamps: list[float] = []
    for k in range(int(spec.horizon / SLICE_SECONDS) + 1):
        engine.sim.schedule_at(k * SLICE_SECONDS, _stamp, stamps)
    with probe.phase("simulate"):
        engine.run(spec.horizon)
    counters = engine.counters()
    device_seconds = int(spec.devices * spec.horizon)
    ok = bool(world.parity_digest) and engine.ticks == round(
        spec.horizon / TICK)
    return Outcome(
        work=device_seconds, main_phase="simulate",
        step_ms=[(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
        attempted=device_seconds, failed=0 if ok else device_seconds,
        results={"ledger": dict(sorted(engine.ledger.counts.items())),
                 "parity": world.parity_digest,
                 "counters": {k: int(v) for k, v in counters.items()}},
        counts=layer_counts({
            "netsim.events": engine.sim.processed_events,
            "netsim.fluid.epochs": engine.epochs,
            "netsim.fluid.cells_recomputed": engine.cells_recomputed,
            "netsim.fluid.policy_packets": engine.policy_packets,
            "netsim.fluid.flows_opened": engine.flows_opened,
            "netsim.fluid.flows_completed": engine.flows_completed,
        }),
    )


def _stamp(stamps: list[float]) -> None:
    stamps.append(time.perf_counter())
