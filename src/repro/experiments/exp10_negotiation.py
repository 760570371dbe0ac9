"""E10 — §3.1/§3.3 discovery and negotiation.

"We need a way to negotiate a compromise between what the network
provider allows and what the user requests."

A device with the canonical PVNC (required: tls_validator +
pii_detector; preferred: transcoder + tcp_proxy; budget 10) negotiates
in four provider zones — full-support, expensive, partial-support, and
a zone with no PVN support at all — under each strategy.  Report
acceptance, price, rounds, and the services obtained.
"""

from __future__ import annotations

from repro.core.discovery import (
    ALL_STRATEGIES,
    DeploymentAck,
    DiscoveryClient,
    DiscoveryService,
    PricingPolicy,
    negotiate,
)
from repro.core.pvnc import compile_pvnc
from repro.core.session import default_pvnc
from repro.experiments.harness import ExperimentResult, main

FULL = ("classifier", "tls_validator", "dns_validator", "pii_detector",
        "transcoder", "tcp_proxy", "prefetcher", "tracker_blocker")
PARTIAL = ("classifier", "tls_validator", "pii_detector")


def _service(name, services, multiplier=1.0):
    return DiscoveryService(
        provider=name,
        supported_services=services,
        pricing=PricingPolicy(load_multiplier=multiplier,
                              free_tier=("classifier",)),
        deploy=lambda request: DeploymentAck(
            deployment_id=f"{request.pvnc.user}/x"),
    )


def _zones():
    return {
        "full zone": [_service("isp-full", FULL)],
        "expensive zone": [_service("isp-pricey", FULL, multiplier=4.0)],
        "partial zone": [_service("isp-partial", PARTIAL)],
        "mixed zone": [
            _service("isp-partial", PARTIAL),
            _service("isp-full", FULL, multiplier=1.5),
        ],
        "no-pvn zone": [_service("isp-none", ())],
    }


def run(seed: int = 0) -> ExperimentResult:
    pvnc = default_pvnc()
    estimate = compile_pvnc(pvnc).estimate
    rows = []
    metrics: dict[str, float] = {}
    for zone_name, providers in _zones().items():
        for strategy in ALL_STRATEGIES:
            client = DiscoveryClient("alice:mac")
            outcome = negotiate(client, providers, pvnc, estimate,
                                now=0.0, strategy=strategy)
            if outcome.accepted:
                services = len(outcome.plan.services)
                dropped = len(outcome.plan.dropped)
                rows.append((
                    zone_name, strategy, outcome.provider,
                    services, dropped, outcome.plan.price,
                    outcome.rounds,
                ))
            else:
                rows.append((
                    zone_name, strategy, "-", 0, 0, 0.0, outcome.rounds,
                ))
            key = f"{zone_name.split(' ')[0].replace('-', '_')}_{strategy}"
            metrics[f"accepted_{key}"] = float(outcome.accepted)
            if outcome.accepted:
                metrics[f"price_{key}"] = outcome.plan.price
                metrics[f"rounds_{key}"] = float(outcome.rounds)
                metrics[f"dropped_{key}"] = float(len(outcome.plan.dropped))

    # "Shopping around wins": in the mixed zone, best-of-zone achieves
    # strictly better coverage than taking the first (partial) offer.
    metrics["mixed_best_beats_first"] = float(
        metrics.get("dropped_mixed_best_of_zone", 9e9)
        < metrics.get("dropped_mixed_accept_first", 0.0)
        or metrics.get("accepted_mixed_accept_first") == 0.0
    )
    return ExperimentResult(
        experiment_id="E10",
        title="§3.1/§3.3 negotiation: acceptance/price/rounds by provider "
              "zone and device strategy",
        columns=["zone", "strategy", "provider", "services bought",
                 "dropped", "price", "rounds"],
        rows=rows,
        metrics=metrics,
        notes=[
            "the partial zone forces compromise: preferred services are "
            "dropped, required ones kept (or the device walks away)",
            "the no-PVN zone yields no offers — the device falls back to "
            "tunneling (F1C / repro.core.tunneling)",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
