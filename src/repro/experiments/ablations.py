"""Ablations of the design choices DESIGN.md §4 calls out.

A1  physical-middlebox reuse on/off — containers, memory, setup time.
A2  selective-tunnel fraction sweep — latency penalty vs needy share.
A3  chain placement: stretch-minimising vs first-fit host choice.
A4  negotiation strategy: time-to-connect and price across zones.
A5  audit probe budget: probes per round vs rounds-to-detection for a
    stealthy (intermittent) shaper.
"""

from __future__ import annotations

import numpy as np

from repro.core import DishonestyProfile, PvnSession, default_pvnc
from repro.core.auditor.measurements import differentiation_test
from repro.core.deployment.embedding import embed_pvn
from repro.core.pvnc import compile_pvnc
from repro.experiments.harness import ExperimentResult, main
from repro.netsim.topology import attach_device, build_access_network, build_wide_area
from repro.nfv.hypervisor import NfvHost
from repro.nfv.placement import place_chain


def placement_ablation() -> ExperimentResult:
    """A3: greedy stretch-minimising placement vs naive first-fit."""
    compiled = compile_pvnc(default_pvnc())
    topo = build_wide_area(build_access_network())
    attach_device(topo, "dev")

    hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
    greedy = place_chain(topo, list(compiled.placement_requests),
                         "dev", "gw", hosts, prefer_reuse=False)

    # First-fit: dump every middlebox on the first host with space.
    hosts_ff = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
    first = sorted(hosts_ff)[0]
    from repro.sdn.routing import path_stretch

    ff_waypoints = [first] * len(compiled.placement_requests)
    ff_stretch = path_stretch(topo, "dev", "gw", ff_waypoints)

    rows = [
        ("greedy (stretch-min)", f"x{greedy.stretch:.3f}"),
        ("first-fit", f"x{ff_stretch:.3f}"),
    ]
    return ExperimentResult(
        experiment_id="A3",
        title="Ablation: chain placement strategy vs path stretch",
        columns=["placement", "stretch"],
        rows=rows,
        metrics={
            "greedy_stretch": greedy.stretch,
            "first_fit_stretch": ff_stretch,
        },
    )


def audit_budget_ablation(seed: int = 0) -> ExperimentResult:
    """A5: probes per audit round vs detecting a stealthy shaper.

    The shaper only throttles a fraction of flows; a single-probe audit
    often misses it, more probes raise the per-round detection odds.
    """
    stealth_fraction = 0.5   # only half the video flows are throttled
    rounds = 40
    rows = []
    metrics: dict[str, float] = {}
    for budget in (1, 3, 5, 9):
        rng = np.random.default_rng(seed + budget)

        def throughput(kind: str) -> float:
            base = 40e6 * rng.uniform(0.9, 1.0)
            if kind == "video" and rng.random() < stealth_fraction:
                return min(base, 1.5e6)
            return base

        detections = sum(
            1 for _ in range(rounds)
            if differentiation_test(throughput, trials=budget).violated
        )
        rate = detections / rounds
        rows.append((budget, 2 * budget, f"{rate:.0%}"))
        metrics[f"detection_rate_probes_{budget}"] = rate
    return ExperimentResult(
        experiment_id="A5",
        title="Ablation: audit probe budget vs detection of a stealthy "
              "(50%-of-flows) shaper",
        columns=["probe pairs per round", "transfers per round",
                 "rounds detected"],
        rows=rows,
        metrics=metrics,
        notes=["detection uses the median, so >half the shaped kind's "
               "probes must hit the throttle for a round to flag"],
    )


def reuse_ablation() -> ExperimentResult:
    """A1: the Fig. 1(b) reuse knob, summarised (full table in F1B)."""
    compiled = compile_pvnc(default_pvnc())
    results = {}
    for label, prefer in (("reuse", True), ("fresh", False)):
        topo = build_wide_area(build_access_network())
        attach_device(topo, "dev")
        hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
        results[label] = embed_pvn(compiled, topo, hosts, "dev",
                                   prefer_reuse=prefer)
    rows = [
        (label, r.plan.fresh_containers, r.plan.fresh_containers * 6,
         f"x{r.stretch:.3f}")
        for label, r in results.items()
    ]
    return ExperimentResult(
        experiment_id="A1",
        title="Ablation: physical-middlebox reuse",
        columns=["mode", "fresh containers", "memory (MB)", "stretch"],
        rows=rows,
        metrics={
            "containers_reuse": float(results["reuse"].plan.fresh_containers),
            "containers_fresh": float(results["fresh"].plan.fresh_containers),
        },
    )


def wait_for_better_ablation() -> ExperimentResult:
    """A4b: accept-first vs waiting for a later, cheaper provider.

    A pricey provider is visible immediately; a cheap one appears 10 s
    into the dwell.  Waiting longer buys a better deal at the cost of
    unprotected dwell time.
    """
    from repro.core.discovery import (
        DeploymentAck,
        DiscoveryClient,
        DiscoveryService,
        PricingPolicy,
        negotiate_over_time,
    )
    from repro.core.session import default_pvnc

    pvnc = default_pvnc()
    estimate = compile_pvnc(pvnc).estimate

    def service(name, multiplier):
        return DiscoveryService(
            provider=name,
            supported_services=tuple(sorted(
                set(pvnc.used_services()) | {"classifier"}
            )),
            pricing=PricingPolicy(load_multiplier=multiplier),
            deploy=lambda request: DeploymentAck("x", "10.200.0.0/24"),
        )

    rows = []
    metrics: dict[str, float] = {}
    for deadline in (1.0, 5.0, 15.0, 30.0):
        pricey = service("pricey", 3.0)
        cheap = service("cheap", 1.0)
        outcome = negotiate_over_time(
            DiscoveryClient("alice:mac"),
            schedule=[(0.0, [pricey]), (10.0, [pricey, cheap])],
            pvnc=pvnc, estimate=estimate, deadline=deadline,
        )
        price = outcome.plan.price if outcome.accepted else float("nan")
        rows.append((f"{deadline:g}s", outcome.provider or "-", price,
                     outcome.rounds))
        metrics[f"price_deadline_{deadline:g}"] = price
    return ExperimentResult(
        experiment_id="A4b",
        title="Ablation: wait-for-better deadline vs price paid",
        columns=["dwell deadline", "provider", "price", "rounds"],
        rows=rows,
        metrics=metrics,
        notes=["the cheap provider appears 10s into the dwell: waiting "
               "past it cuts the price, at the cost of unprotected time"],
    )


def run(seed: int = 0) -> ExperimentResult:
    """Aggregate ablation report (A1, A3, A4b, A5; A2 lives in F1C,
    A4 in E10)."""
    parts = [reuse_ablation(), placement_ablation(),
             wait_for_better_ablation(), audit_budget_ablation(seed)]
    rows = []
    metrics: dict[str, float] = {}
    for part in parts:
        rows.append((part.experiment_id, part.title, ""))
        for row in part.rows:
            rows.append(("", *[str(v) for v in row][:1],
                         "  ".join(str(v) for v in row[1:])))
        metrics.update(metrics | part.metrics)
    return ExperimentResult(
        experiment_id="ABL",
        title="Design-choice ablations (A2 = F1C sweep, A4 = E10)",
        columns=["id", "what", "values"],
        rows=rows,
        metrics=metrics,
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
