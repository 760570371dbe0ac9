"""E22 — closed-loop observability: telemetry-driven control + alerts.

Two phases over the E19 orchestration world, both fully deterministic
in the seed:

**Phase 1 — telemetry parity.**  The same population and flash crowd
is autoscaled twice: a *reference* world fed experiment-supplied
per-user rates (exactly E19's mechanics) and a *telemetry* world where
nobody tells the optimizer anything — each user's deployment processes
its offered load as real packets through the PR-3/PR-8 datapath and a
:class:`~repro.core.deployment.telemetry.TelemetryFeed` derives rates
from ``packets_total`` deltas.  Because measured == offered exactly
(integer packets per tick, interval 1.0), the autoscaler must take the
*same decision sequence*; the phase asserts sha256 digest equality over
the canonicalized event streams (deployment serial numbers are
world-local, so ids are normalized to their user before hashing) and
world-cost equality.  This closes ROADMAP item 3's "feed live datapath
telemetry into ``report_load``".

**Phase 2 — incident lifecycle.**  A smaller world with one latency
SLO (p-chain round trip <= 60 ms, 99% objective) and one availability
SLO (99.9% delivery).  At ``surge_tick`` a fixed user prefix multiplies
its traffic: shared-instance contention saturates, latency samples
blow the error budget, and the burn-rate alert FIREs (fast 5-tick +
slow 60-tick windows both over threshold).  The FIRING transition
freezes a flight-recorder incident bundle; the
:class:`~repro.health.overload.BurnRateCoupling` applies admission
pressure (attaches shed at a stricter floor) and trips the discovery
circuit breaker.  Meanwhile the telemetry-fed autoscaler — the same
closed loop — rebalances the hot instances, latency recovers, the fast
window drains, and the alert RESOLVEs.  The availability SLO never
fires (nothing was dropped), and an EWMA/z-score anomaly detector on
mean chain latency fires and resolves alongside the burn alert.
"""

from __future__ import annotations

import hashlib
import re

from repro.core.deployment.manager import DeploymentManager
from repro.core.deployment.orchestrator import (
    Autoscaler,
    AutoscalePolicy,
    CostModel,
    PlacementOptimizer,
    SharedMiddleboxPool,
)
from repro.core.deployment.telemetry import TelemetryFeed
from repro.experiments import exp19_orchestration as e19
from repro.experiments.harness import ExperimentResult, main
from repro.health.overload import (
    PRIORITY_ATTACH,
    PRIORITY_CRITICAL,
    AdmissionController,
    BurnRateCoupling,
    CircuitBreaker,
    SheddingPolicy,
)
from repro.netsim.packet import Packet
from repro.obs import runtime as obs_runtime
from repro.obs.alerts import AlertManager, EwmaDetector
from repro.obs.recorder import FlightRecorder, attach
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.spans import SpanTracer, inject

#: Chain round-trip SLO (seconds) — same bar as E19.
SLO_LATENCY = e19.SLO_LATENCY

#: Attach attempts offered to the admission controller per tick in the
#: incident phase (more than the bucket refills, so the floor bites).
ATTACHES_PER_TICK = 24

_ID_RE = re.compile(r"/pvn\d+")


def _int_rate(seed: int, user: int, base_rate: float) -> float:
    """E19's jittered per-user rate, rounded to whole packets per tick
    so a telemetry feed measuring real packets reproduces it exactly."""
    return float(max(1, int(round(e19._rate_for(seed, user, base_rate)))))


def _canonical_digest(events) -> str:
    """sha256 over the event stream with world-local deployment serial
    numbers stripped (``u3/pvn17`` -> ``u3``); everything else —
    tick, service, action, instance id, load units — must match."""
    canon = [
        (event.now, event.service, event.action, event.instance,
         _ID_RE.sub("", event.detail))
        for event in events
    ]
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def _build_opt_world(provider: str, max_members: int,
                     migrations_per_tick: int):
    topo, hosts = e19._build_world()
    optimizer = PlacementOptimizer(
        topo, hosts, model=CostModel(),
        pool=SharedMiddleboxPool(max_members=max_members),
    )
    manager = DeploymentManager(provider=provider, topo=topo, hosts=hosts,
                                compile_cache=None, optimizer=optimizer)
    autoscaler = Autoscaler(
        manager, optimizer,
        AutoscalePolicy(max_migrations_per_tick=migrations_per_tick))
    return topo, hosts, optimizer, manager, autoscaler


def _drive(manager, current: dict[int, str], rates: dict[int, float],
           now: float) -> tuple[int, int]:
    """Offer each user's rate as real packets; returns (good, bad)."""
    forwarded = dropped = 0
    for user in sorted(current):
        datapath = manager.deployment(current[user]).datapath
        packet_count = int(rates[user])
        for index in range(packet_count):
            outcome = datapath.process(
                Packet(src=f"10.0.{user % 256}.{index % 250 + 1}",
                       dst="198.51.100.5", dst_port=443,
                       owner=f"u{user}"),
                now,
            )
            if outcome.action == "forward":
                forwarded += 1
            else:
                dropped += 1
    return forwarded, dropped


def _probe(manager, deployment_id: str, user: int, now: float,
           tracer: SpanTracer | None = None) -> None:
    """One traced probe packet per tick: the probe span (and, with the
    ambient obs runtime on, the datapath's per-hop ``mbox.*`` spans)
    becomes the incident bundle's causal evidence.  Always sent (even
    with no tracer) so packet counts — and therefore the telemetry-fed
    decisions — are identical with observability on or off."""
    datapath = manager.deployment(deployment_id).datapath
    packet = Packet(src=f"10.0.{user % 256}.254", dst="198.51.100.5",
                    dst_port=443, owner=f"u{user}")
    if tracer is not None:
        with tracer.span("e22.probe", lambda: now, user=f"u{user}",
                         tick=now) as span:
            inject(packet.metadata, span)
            datapath.process(packet, now)
    else:
        datapath.process(packet, now)


def _phase_parity(seed: int, users: int, base_rate: float,
                  flash_users: int, flash_factor: float,
                  ticks: int) -> dict[str, float]:
    rates = {user: _int_rate(seed, user, base_rate)
             for user in range(users)}
    surged = dict(rates)
    for user in list(range(users))[:flash_users]:
        surged[user] = float(int(rates[user] * flash_factor))

    # -- reference: experiment-supplied rates (E19 mechanics) -------------
    topo_ref, hosts_ref, opt_ref, mgr_ref, scaler_ref = _build_opt_world(
        "isp-ref", e19.MAX_MEMBERS, migrations_per_tick=16)
    placed_ref, nacks_ref = e19._deploy_population(mgr_ref, users, seed)
    for user, deployment_id in placed_ref.items():
        opt_ref.report_load(deployment_id, surged[user])
    for tick in range(1, ticks + 1):
        scaler_ref.tick(float(tick))

    # -- telemetry: nobody reports; the feed measures ---------------------
    topo_tel, hosts_tel, opt_tel, mgr_tel, scaler_tel = _build_opt_world(
        "isp-tel", e19.MAX_MEMBERS, migrations_per_tick=16)
    placed_tel, nacks_tel = e19._deploy_population(mgr_tel, users, seed)
    feed = TelemetryFeed(mgr_tel, opt_tel, interval=1.0)
    for tick in range(1, ticks + 1):
        now = float(tick)
        current = e19._current_ids(mgr_tel, placed_tel)
        _drive(mgr_tel, current, surged, now)
        feed.tick()
        scaler_tel.tick(now)

    digest_ref = _canonical_digest(scaler_ref.events)
    digest_tel = _canonical_digest(scaler_tel.events)
    model = CostModel()
    return {
        "parity_digest_match": float(digest_ref == digest_tel),
        "parity_events_ref": float(len(scaler_ref.events)),
        "parity_events_tel": float(len(scaler_tel.events)),
        "parity_migrations": float(scaler_tel.migrations),
        "parity_nacks": float(nacks_ref + nacks_tel),
        "parity_cost_ref": model.world_cost(topo_ref, hosts_ref),
        "parity_cost_tel": model.world_cost(topo_tel, hosts_tel),
        "parity_feed_ticks": float(feed.ticks),
    }


def _phase_incident(seed: int, users: int, base_rate: float,
                    surge_tick: int, surge_factor: float,
                    horizon: int) -> tuple[dict[str, float], list]:
    max_members = max(2, users // 2)
    flash_users = max(1, users // 4)
    topo, hosts, optimizer, manager, autoscaler = _build_opt_world(
        "isp-loop", max_members, migrations_per_tick=4)
    placed, nacks = e19._deploy_population(manager, users, seed)
    feed = TelemetryFeed(manager, optimizer, interval=1.0)

    # The judgment layer: ambient obs handles when enabled (so the CLI
    # exports exactly what the run saw), private ones headless.
    obs = obs_runtime.current()
    if obs is not None:
        engine, alerts, recorder = obs.slo, obs.alerts, obs.recorder
        registry = obs.metrics
        tracer = obs.spans
    else:
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        engine = SloEngine(metrics=registry)
        alerts = AlertManager(metrics=registry)
        recorder = FlightRecorder()
        tracer = SpanTracer()   # probe spans as evidence even headless
        attach(alerts, recorder, tracer=tracer)
    # One chain round trip under the E19 SLO bar; offered packets that
    # were forwarded.
    engine.register(SloSpec(
        name="chain_latency", objective=0.99, kind="latency",
        threshold=SLO_LATENCY))
    engine.register(SloSpec(name="delivery_availability", objective=0.999))
    alerts.burn_rate(engine, "chain_latency")
    alerts.burn_rate(engine, "delivery_availability")
    latency_mean = {"value": 0.0}
    alerts.anomaly(
        "latency_anomaly", lambda: latency_mean["value"],
        detector=EwmaDetector(alpha=0.3, warmup=4, std_floor=0.005),
        consecutive=1)

    # Burn-rate state drives the health plane: stricter admission floors
    # and a tripped discovery breaker while any alert fires.
    admission = AdmissionController(
        SheddingPolicy(capacity=32.0, refill_rate=16.0,
                       floors=(0.0, 0.25, 0.5, 0.9)))
    breaker = CircuitBreaker(failure_threshold=3, cooldown=2.0)
    coupling = BurnRateCoupling(admission=admission, breakers=(breaker,),
                                pressure_shift=1)
    alerts.listeners.append(coupling.on_alert)

    rates = {user: _int_rate(seed, user, base_rate)
             for user in range(users)}
    surge_prefix = list(range(users))[:flash_users]
    probe_user = surge_prefix[0]

    fired_at = resolved_at = 0.0
    anomaly_fired = anomaly_resolved = 0.0
    availability_fired = 0.0
    violations_peak = 0
    shed_by_tick: dict[int, int] = {}
    critical_shed = 0
    for tick in range(1, horizon + 1):
        now = float(tick)
        offered = dict(rates)
        if tick >= surge_tick:
            for user in surge_prefix:
                offered[user] = float(int(rates[user] * surge_factor))
        current = e19._current_ids(manager, placed)
        good, bad = _drive(manager, current, offered, now)
        _probe(manager, current[probe_user], probe_user, now, tracer)
        feed.tick()
        autoscaler.tick(now)

        # Score this tick's SLIs from the world the loop produced.
        latencies = [e19._chain_latency(manager, optimizer, current[user])
                     for user in sorted(current)]
        for latency in latencies:
            engine.observe("chain_latency", latency)
        engine.record("delivery_availability", good=good, bad=bad)
        latency_mean["value"] = sum(latencies) / len(latencies)
        violations = sum(1 for latency in latencies
                         if latency > SLO_LATENCY)
        violations_peak = max(violations_peak, violations)
        recorder.note("ticks", now, violations=violations,
                      mean_latency=round(latency_mean["value"], 6),
                      offered=sum(int(rate) for rate in offered.values()),
                      migrations=autoscaler.migrations)
        recorder.capture_metrics(
            registry, now,
            prefixes=("repro_telemetry", "repro_orchestrator",
                      "repro_slo", "repro_autoscale"))

        engine.tick(now)
        for event in alerts.tick(now):
            if event.name == "burn_rate:chain_latency":
                if event.state == "firing":
                    fired_at = event.now
                else:
                    resolved_at = event.now
            elif event.name == "burn_rate:delivery_availability":
                availability_fired = 1.0
            elif event.name == "latency_anomaly":
                if event.state == "firing":
                    anomaly_fired = event.now
                else:
                    anomaly_resolved = event.now

        # Control-plane traffic rides the same burn-rate state: under
        # pressure the attach floor rises and the breaker fails fast.
        shed_before = sum(admission.shed.values())
        for _ in range(ATTACHES_PER_TICK):
            admission.admit(now, PRIORITY_ATTACH)
        for _ in range(2):
            if not admission.admit(now, PRIORITY_CRITICAL):
                critical_shed += 1
        shed_by_tick[tick] = sum(admission.shed.values()) - shed_before
        if breaker.allow(now):
            breaker.record_success(now)

    current = e19._current_ids(manager, placed)
    violations_final = e19._violations(manager, optimizer, current,
                                       SLO_LATENCY)
    incident_ticks = {tick for tick in shed_by_tick
                      if fired_at and resolved_at
                      and fired_at <= tick < resolved_at}
    calm_ticks = set(shed_by_tick) - incident_ticks
    shed_during = (sum(shed_by_tick[t] for t in sorted(incident_ticks))
                   / max(1, len(incident_ticks)))
    shed_calm = (sum(shed_by_tick[t] for t in sorted(calm_ticks))
                 / max(1, len(calm_ticks)))
    bundle = recorder.incidents[0] if recorder.incidents else None
    metrics = {
        "incident_fired_at": fired_at,
        "incident_resolved_at": resolved_at,
        "anomaly_fired_at": anomaly_fired,
        "anomaly_resolved_at": anomaly_resolved,
        "availability_alert_fired": availability_fired,
        "incident_bundles": float(len(recorder.incidents)),
        "bundle_records": float(len(bundle.records) if bundle else 0),
        "bundle_spans": float(len(bundle.spans) if bundle else 0),
        "violations_peak": float(violations_peak),
        "violations_final": float(violations_final),
        "loop_migrations": float(autoscaler.migrations),
        "shed_per_tick_incident": shed_during,
        "shed_per_tick_calm": shed_calm,
        "critical_shed": float(critical_shed),
        "breaker_trips": float(breaker.trips),
        "breaker_fast_failures": float(breaker.fast_failures),
        "coupling_engagements": float(coupling.engagements),
        "incident_nacks": float(nacks),
    }
    return metrics, alerts.history


def run(
    seed: int = 0,
    parity_users: int = 96,
    parity_flash: int = 24,
    parity_ticks: int = 8,
    incident_users: int = 96,
    surge_tick: int = 8,
    surge_factor: float = 6.0,
    incident_horizon: int = 28,
) -> ExperimentResult:
    parity_rate = 8.0
    parity_flash_factor = 6.0
    incident_rate = 8.0
    parity = _phase_parity(seed, parity_users, parity_rate, parity_flash,
                           parity_flash_factor, parity_ticks)
    incident, timeline = _phase_incident(seed, incident_users,
                                         incident_rate, surge_tick,
                                         surge_factor, incident_horizon)

    metrics = {**parity, **incident}
    rows = [
        ("parity", "decision digests match",
         "yes" if parity["parity_digest_match"] else "NO"),
        ("parity", "autoscale events (ref == telemetry)",
         f"{parity['parity_events_ref']:g} == "
         f"{parity['parity_events_tel']:g}"),
        ("parity", "world cost (ref / telemetry)",
         f"{parity['parity_cost_ref']:.1f} / "
         f"{parity['parity_cost_tel']:.1f}"),
        ("incident", "burn alert FIRING -> RESOLVED",
         f"t={incident['incident_fired_at']:g} -> "
         f"t={incident['incident_resolved_at']:g}"),
        ("incident", "anomaly alert FIRING -> RESOLVED",
         f"t={incident['anomaly_fired_at']:g} -> "
         f"t={incident['anomaly_resolved_at']:g}"),
        ("incident", "availability alert fired",
         "no" if not incident["availability_alert_fired"] else "YES"),
        ("incident", "incident bundle records",
         f"{incident['bundle_records']:g}"),
        ("incident", "SLO violations peak -> final",
         f"{incident['violations_peak']:g} -> "
         f"{incident['violations_final']:g}"),
        ("incident", "attach sheds/tick calm -> incident",
         f"{incident['shed_per_tick_calm']:.1f} -> "
         f"{incident['shed_per_tick_incident']:.1f}"),
        ("incident", "breaker trips / fast failures",
         f"{incident['breaker_trips']:g} / "
         f"{incident['breaker_fast_failures']:g}"),
    ]
    notes = [
        "parity: the telemetry world's optimizer is told nothing — a "
        "TelemetryFeed derives rates from datapath packets_total deltas, "
        "and the autoscaler's decision stream must digest-match the "
        "experiment-fed reference (deployment serials normalized to "
        "users)",
        "incident: a traffic surge saturates shared-instance contention; "
        "the chain-latency burn-rate alert fires (fast 5-tick + slow "
        "60-tick windows), freezes a flight-recorder bundle, tightens "
        "admission floors, and trips the discovery breaker; the "
        "telemetry-fed autoscaler rebalances and the alert resolves",
        f"SLO: chain round trip under {SLO_LATENCY * 1000:g} ms at 99%; "
        "delivery availability 99.9% (never fires: nothing is dropped)",
        "alert timeline entries: " + (", ".join(
            f"{event.name}:{event.state}@{event.now:g}"
            for event in timeline) or "none"),
    ]
    return ExperimentResult(
        experiment_id="E22",
        title="Closed-loop observability: telemetry-driven control "
              "and burn-rate alerting",
        columns=["phase", "aspect", "outcome"],
        rows=rows,
        metrics=metrics,
        notes=notes,
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
