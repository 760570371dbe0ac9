"""E6 — §4 HTTPS/TLS enhancements.

"A PVN middlebox can perform certificate validity checks beyond those
provided by mobile OSes and apps, and reject connections for those
using invalid certificates.  This protects against malicious servers
spoofing as their authentic ones, and can detect and prevent
unauthorized TLS interception."

A population of connections — some from careful apps, most from apps
that skip validation (the [23] measurement) — crosses a network where
a MITM intercepts a fraction of handshakes and some servers present
expired/revoked certificates.  Compare compromised-connection counts
with and without the PVN validator.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import fraction
from repro.experiments.harness import ExperimentResult, main
from repro.middleboxes.tls_validator import TlsValidator
from repro.netproto.tls import make_web_pki
from repro.netsim.packet import Packet
from repro.nfv.middlebox import ProcessingContext, VerdictKind
from repro.workloads.apps import BrowserApp, CarelessApp
from repro.workloads.adversary import mitm_scenario

NOW = 1_000_000.0


def run(
    seed: int = 0,
    n_connections: int = 600,
) -> ExperimentResult:
    mitm_fraction = 0.10
    careless_fraction = 0.7
    bad_cert_fraction = 0.05
    rng = np.random.default_rng(seed)
    root, store, servers = make_web_pki(NOW, ["bank.example.com"])
    server = servers["bank.example.com"]
    scenario = mitm_scenario(NOW)

    rows = []
    metrics: dict[str, float] = {}
    for pvn_on in (False, True):
        validator = TlsValidator(store, mode="block")
        compromised = 0
        blocked = 0
        attacks = 0
        for _ in range(n_connections):
            handshake = server.respond("bank.example.com")
            attacked = False
            if rng.random() < mitm_fraction:
                handshake = scenario.interceptor.intercept(handshake)
                attacked = True
            elif rng.random() < bad_cert_fraction:
                stale = root.issue("bank.example.com", now=NOW - 1e7,
                                   lifetime=100.0)
                handshake = type(handshake)(
                    sni="bank.example.com", presented_chain=(stale,),
                )
                attacked = True
            if attacked:
                attacks += 1

            if pvn_on:
                packet = Packet(src="10.10.0.2", dst="198.51.100.5",
                                dst_port=443, owner="alice",
                                payload=handshake)
                verdict = validator.process(
                    packet, ProcessingContext(now=NOW, owner="alice")
                )
                if verdict.kind is VerdictKind.DROP:
                    blocked += 1
                    continue

            careless = rng.random() < careless_fraction
            app = CarelessApp() if careless else BrowserApp(store)
            if app.connect(handshake, NOW).proceeded and attacked:
                compromised += 1

        label = "pvn validator" if pvn_on else "no pvn"
        rows.append((
            label, n_connections, attacks, blocked, compromised,
            f"{fraction(compromised, attacks):.0%}" if attacks else "-",
        ))
        key = "pvn" if pvn_on else "none"
        metrics[f"compromised_{key}"] = float(compromised)
        metrics[f"blocked_{key}"] = float(blocked)
        metrics[f"attacks_{key}"] = float(attacks)

    metrics["mitm_caught_by_pvn"] = float(
        metrics["blocked_pvn"] > 0 and metrics["compromised_pvn"] == 0
    )
    return ExperimentResult(
        experiment_id="E6",
        title="§4 TLS: compromised connections with/without the PVN "
              "certificate validator (70% of apps skip validation)",
        columns=["config", "connections", "attacked", "blocked by PVN",
                 "compromised", "attack success"],
        rows=rows,
        metrics=metrics,
        notes=[
            "without the PVN, every attacked connection from a careless "
            "app is compromised; the PVN blocks them app-agnostically",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
