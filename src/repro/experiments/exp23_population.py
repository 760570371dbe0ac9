"""E23 — million-device population: hybrid fluid/packet engine.

The paper's economic case (§3.3) needs PVNs serveable at ISP scale.
E18 made the *control plane* O(1) per attach; this experiment scales
the *simulated population itself*.  Event-simulating every packet
costs O(packets) per flow, which caps honest experiments near 10^4
devices.  The hybrid engine (:mod:`repro.netsim.fluid`) advances
steady flows as aggregate max-min rate equations — recomputed only at
arrival/departure/migration epochs — and event-simulates only the
policy-relevant packets, so the same workload runs at 10^6 devices.

Two phases, both reported as simulated outcomes:

* **parity**: the same seeded churn workload runs in fluid and
  pure-packet mode; the sha256 digest over all policy-relevant
  accounting (PII violations, audit evidence, attach/detach/migrate
  counts, flow completions) must match *exactly*, and per-flow
  completion times must agree.  This is what licenses the fluid
  abstraction.
* **sweep** (up to 10^5 devices here, 10^6 in the recording):
  fluid-only population points with a count-only ledger (record
  retention would dominate memory) — flows completed, PII violations
  and policy packets event-simulated.

The host-time ratio between the modes (fluid must simulate >= 50x more
device-seconds per wall-second) is measured by
``benchmarks/population_timing.py``, recorded in
``BENCH_population.json`` and gated by
``benchmarks/test_bench_population.py``.

The sharded form exchanges **cross-shard flows** through the runner's
deterministic per-round queues: flows whose ``dst_device`` lives on
another shard produce plain-data messages at completion, routed by
``dst_device % shard_count`` and delivered at the next round
boundary; the receiver's ingress accounting lands in the merged
digest, so the CI gate ``--shards 2 == --shards 1`` proves the queue
protocol — not just disjoint worlds — is partition-independent.

Fluid rates also feed the closed observability loop:
:meth:`repro.core.deployment.telemetry.TelemetryFeed.watch_fluid`
samples per-cell carried rates into ``optimizer.report_load`` exactly
like datapath packet taps.  Each measured run ends with one
:meth:`~repro.netsim.fluid.HybridPopulationEngine.publish`, which folds
the engine's lifetime counters and flow-table occupancy into the
``repro.obs`` registry when observability is on.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.deployment.telemetry import TelemetryFeed
from repro.experiments.harness import ExperimentResult, main
from repro.netsim.fluid import (
    MODE_FLUID,
    MODE_PACKET,
    HybridPopulationEngine,
    PolicyLedger,
)
from repro.netsim.randomness import shard_seed
from repro.netsim.simulator import Simulator
from repro.workloads.population import PopulationSpec, PopulationWorkload

EXPERIMENT_ID = "E23"
TITLE = "§3.3 population scale: hybrid fluid/packet simulation"

#: Engine tick (seconds); rates change only at tick granularity.
TICK = 0.1
#: Shared-backhaul capacity per cell (roomy enough that per-flow caps
#: usually bind; contention appears under migration hot spots).
CELL_CAPACITY_BPS = 200_000_000.0

#: The workload every phase runs (devices/horizon vary per phase).
BASE_SPEC = dict(
    cells=32,
    attach_ramp=4.0,
    flows_per_device_s=0.05,
    detach_rate=0.005,
    migrate_rate=0.004,
    audit_rate=0.002,
    cross_fraction=0.05,
    leak_probability=0.08,
    # 8 Mbps per device (LTE-class access): the per-flow packet rate
    # is what separates the modes' costs, so an unrealistically slow
    # access link would understate the packet pipeline's burden.
    device_rate_bps=8_000_000.0,
)

#: Defaults for the sharded session form (kept modest for CI smoke).
SHARD_DEFAULTS = dict(devices=2000, horizon=12.0, round_seconds=2.0)


def _spec(devices: int, horizon: float, **overrides) -> PopulationSpec:
    merged = dict(BASE_SPEC, devices=devices, horizon=horizon)
    merged.update(overrides)
    return PopulationSpec(**merged)


def build_population(
    spec: PopulationSpec,
    seed: int,
    mode: str = MODE_FLUID,
    keep_records: bool = True,
    shard_index: int = 0,
    shard_count: int = 1,
) -> HybridPopulationEngine:
    """One shard's engine + compiled workload, ready to run."""
    sim = Simulator()
    ledger = PolicyLedger(keep_records=keep_records)
    engine = HybridPopulationEngine(
        sim, spec.devices, spec.cells, CELL_CAPACITY_BPS,
        device_rate_bps=spec.device_rate_bps, tick=TICK, mode=mode,
        ledger=ledger,
    )
    workload = PopulationWorkload(
        spec, seed=seed, tick=TICK,
        shard_index=shard_index, shard_count=shard_count,
    )
    engine.bind(workload)
    return engine


def measure_mode(
    spec: PopulationSpec,
    seed: int,
    mode: str,
    keep_records: bool = True,
) -> dict:
    """Run one mode over the workload; its accounting."""
    engine = build_population(spec, seed, mode=mode,
                              keep_records=keep_records)
    engine.run(spec.horizon)
    # A no-op unless observability is on.
    engine.publish()
    out = {
        "mode": mode,
        "devices": spec.devices,
        "horizon": spec.horizon,
        "counters": engine.counters(),
        "pii_violations": engine.ledger.count("pii_violation"),
        "engine": engine,
    }
    if keep_records:
        out["digest"] = engine.ledger.digest()
    return out


def parity_check(devices: int, horizon: float, seed: int) -> dict:
    """Fluid vs packet over identical churn: digests must match."""
    spec = _spec(devices, horizon)
    fluid = measure_mode(spec, seed, MODE_FLUID)
    packet = measure_mode(spec, seed, MODE_PACKET)
    fluid_times = fluid["engine"].completion_times
    packet_times = packet["engine"].completion_times
    common = set(fluid_times) & set(packet_times)
    max_dt = max(
        (abs(fluid_times[key] - packet_times[key]) for key in common),
        default=0.0,
    )
    return {
        "fluid": fluid,
        "packet": packet,
        "digests_match": fluid["digest"] == packet["digest"],
        "completions_compared": len(common),
        "max_completion_dt": max_dt,
    }


def sweep_spec(devices: int, horizon: float) -> PopulationSpec:
    """The fluid-only scaling workload (lighter per-device churn)."""
    return _spec(devices, horizon, flows_per_device_s=0.02)


def sweep_point(devices: int, horizon: float, seed: int) -> dict:
    """One fluid-only scaling point with a count-only ledger."""
    result = measure_mode(sweep_spec(devices, horizon), seed, MODE_FLUID,
                          keep_records=False)
    result.pop("engine")
    return result


class _NoDeployments:
    """Manager stub for a feed that only carries fluid taps."""

    deployments: dict = {}


class _LoadRecorder:
    """Optimizer stand-in capturing what the feed reports."""

    def __init__(self) -> None:
        self.loads: dict[str, float] = {}

    def report_load(self, deployment_id: str, rate: float) -> None:
        self.loads[deployment_id] = rate


def fluid_telemetry(engine) -> dict[str, float]:
    """Close the loop: fluid cell rates through ``watch_fluid``.

    Each cell is attributed to a synthetic deployment id and one feed
    tick reports every cell's fluid rate to the optimizer — the same
    ``report_load`` path the packet-counter taps use, demonstrating
    that population-scale load steering needs no per-packet counters.
    """
    recorder = _LoadRecorder()
    feed = TelemetryFeed(_NoDeployments(), optimizer=recorder)
    for cell in range(engine.n_cells):
        feed.watch_fluid(f"pvn-cell-{cell:03d}", engine, cell)
    feed.tick()
    return recorder.loads


def _row(label: str, measured: dict) -> tuple:
    counters = measured["counters"]
    return (label, measured["devices"], counters["flows_completed"],
            measured["pii_violations"], counters["policy_packets"])


def run(
    seed: int = 0,
) -> ExperimentResult:
    """The CLI-sized E23 (the full-scale sweep is driven by the bench
    recording in ``BENCH_population.json``; CI runs this smoke size)."""
    sweep_horizon = 10.0
    sweep_devices = (10_000, 100_000)
    parity_horizon = 10.0
    parity_devices = 2_000
    parity = parity_check(parity_devices, parity_horizon, seed)
    loads = fluid_telemetry(parity["fluid"]["engine"])

    metrics: dict[str, float] = {
        "telemetry_cells_reported": float(len(loads)),
        "telemetry_total_pps": float(sum(loads.values())),
        "parity_devices": float(parity_devices),
        "parity_digests_match": float(parity["digests_match"]),
        "parity_max_completion_dt": parity["max_completion_dt"],
        "pii_violations": float(parity["fluid"]["pii_violations"]),
    }
    rows = [_row("parity/fluid", parity["fluid"]),
            _row("parity/packet", parity["packet"])]
    for devices in sweep_devices:
        rows.append(_row("sweep/fluid",
                         sweep_point(devices, sweep_horizon, seed)))
        _, _, flows, pii, policy = rows[-1]
        metrics[f"flows_completed_at_{devices}"] = float(flows)
        metrics[f"pii_violations_at_{devices}"] = float(pii)
        metrics[f"policy_packets_at_{devices}"] = float(policy)
    if not parity["digests_match"]:
        raise AssertionError(
            "fluid/packet policy digests diverged — the fluid "
            "abstraction lost policy-relevant packets")

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["phase", "devices", "flows done", "PII violations",
                 "policy packets"],
        rows=rows,
        metrics=metrics,
        notes=[
            f"policy digest (fluid == packet at {parity_devices} "
            f"devices): {parity['fluid']['digest']}",
            "fluid mode advances steady flows as max-min rate "
            "equations recomputed only at churn epochs; only "
            "policy-relevant packets (PII, TLS, audits, punts) are "
            "event-simulated",
            "completion times agree exactly because both modes share "
            "the same packet-quantized per-tick progress arithmetic",
            "host-time numbers (the 50x fluid/packet bar, the 10^6 "
            "sweep) are recorded in BENCH_population.json",
            f"fluid cell rates fed TelemetryFeed.report_load for "
            f"{len(loads)} cells (total "
            f"{sum(loads.values()):,.0f} pkt/s)",
        ],
    )


# -- the sharded session form (python -m repro run E23 --shards N) -----------


class PopulationSession:
    """One shard of a population with cross-shard flow exchange.

    The runner drives :meth:`run_round` in lockstep across shards and
    routes each round's outbox to the owning shards
    (``dst_device % shard_count``); messages produced in round *r*
    are delivered at the start of round *r + 1*, and :meth:`finish`
    delivers the final round's stragglers before payload extraction.
    """

    def __init__(self, shard_index: int, shard_count: int, seed: int,
                 params: dict | None = None) -> None:
        params = dict(SHARD_DEFAULTS, **(params or {}))
        self.shard_index = shard_index
        self.shard_count = shard_count
        spec = _spec(int(params["devices"]), float(params["horizon"]))
        round_seconds = float(params["round_seconds"])
        self._ticks_per_round = max(1, int(round(round_seconds / TICK)))
        # Isolate this shard's incidental draws; every output-affecting
        # draw is keyed per device inside the workload/engine.
        shard_seed(seed, shard_index)
        self.engine = build_population(
            spec, seed, mode=MODE_FLUID, keep_records=True,
            shard_index=shard_index, shard_count=shard_count)
        self.engine.start(spec.horizon)
        total_ticks = self.engine._ticks_total
        self.rounds = -(-total_ticks // self._ticks_per_round)
        self._total_ticks = total_ticks

    def run_round(self, round_index: int, inbox: list) -> list:
        self.engine.deliver(inbox)
        end_tick = min((round_index + 1) * self._ticks_per_round,
                       self._total_ticks)
        # k * tick is the exact float every engine event clamps to.
        self.engine.sim.run(until=end_tick * TICK)
        outbox = list(self.engine.outbox)
        self.engine.outbox.clear()
        return outbox

    def finish(self, inbox: list) -> dict:
        self.engine.deliver(inbox)
        ledger = self.engine.ledger
        return {
            "shard_index": self.shard_index,
            "records": [list(record) for record in ledger.records],
            "counts": dict(ledger.counts),
        }


def open_session(shard_index: int, shard_count: int, seed: int,
                 params: dict | None = None) -> PopulationSession:
    return PopulationSession(shard_index, shard_count, seed, params)


def merge_sessions(payloads: list[dict], seed: int = 0,
                   params: dict | None = None) -> ExperimentResult:
    """Deterministic merge: byte-identical for any shard count.

    All policy records are re-sorted (partition order discarded) and
    digested; per-kind counts are summed.  Coverage: exactly one
    attach record per scheduled device, across all shards.
    """
    params = dict(SHARD_DEFAULTS, **(params or {}))
    records = sorted(
        tuple(record) for payload in payloads
        for record in payload["records"]
    )
    digest = hashlib.sha256(
        json.dumps([list(r) for r in records], sort_keys=True).encode()
    ).hexdigest()
    counts: dict[str, int] = {}
    for payload in payloads:
        for kind, value in payload["counts"].items():
            counts[kind] = counts.get(kind, 0) + value

    attached_devices = {r[1] for r in records if r[0] == "attach"}
    if len(attached_devices) != counts.get("attach", 0):
        raise ValueError(
            "shards did not cover the attach schedule exactly once")

    rows = [(kind, counts[kind]) for kind in sorted(counts)]
    # No shard-count-dependent fields: CI diffs the full --shards 1
    # vs --shards 2 JSON byte for byte.
    metrics = {f"count_{kind}": float(value)
               for kind, value in counts.items()}
    metrics["devices"] = float(params["devices"])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"{TITLE}: sharded population, merged",
        columns=["policy event", "count"],
        rows=rows,
        metrics=metrics,
        notes=[
            f"policy digest {digest}",
            "cross-shard flows were exchanged through the runner's "
            "per-round queues (routed by dst_device % shard_count); "
            "xflow_in records prove delivery, and the digest is "
            "byte-identical for any --shards N",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
