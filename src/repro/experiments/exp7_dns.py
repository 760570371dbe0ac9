"""E7 — §4 DNS validation.

"Even if the ISP does not support DNSSEC, a PVN DNSSEC module can
provide secure DNS resolution on behalf of the user.  Further, when
accessing name entries that are not secured, the PVN can use a
collection of open resolvers to ensure that clients are not
maliciously sent to invalid addresses."

The device resolves a mixed workload (signed and unsigned names)
through a forging ISP resolver, with and without the PVN validator.
Report how many forged mappings the client ends up using, and how
many the validator corrected vs blocked.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import fraction
from repro.experiments.harness import ExperimentResult, main
from repro.middleboxes.dns_validator import DnsValidator
from repro.netproto.dns import (
    DnsQuery,
    ForgingResolver,
    Resolver,
    TrustAnchor,
    Zone,
    ZoneSigner,
)
from repro.netsim.packet import Packet
from repro.nfv.middlebox import ProcessingContext, VerdictKind


def _world():
    signer = ZoneSigner("secure.example", key=b"zk")
    signed_zone = Zone("secure.example", signer=signer)
    unsigned_zone = Zone("legacy.example")
    signed_names, unsigned_names, truth = [], [], {}
    for index in range(10):
        name = f"host{index}.secure.example"
        ip = f"198.51.100.{index + 1}"
        signed_zone.add(name, "A", ip)
        signed_names.append(name)
        truth[name] = ip
    for index in range(10):
        name = f"host{index}.legacy.example"
        ip = f"203.0.113.{index + 1}"
        unsigned_zone.add(name, "A", ip)
        unsigned_names.append(name)
        truth[name] = ip
    anchor = TrustAnchor()
    anchor.add_zone("secure.example", b"zk")
    zones = [signed_zone, unsigned_zone]
    return zones, anchor, signed_names, unsigned_names, truth


def run(
    seed: int = 0,
    n_queries: int = 500,
) -> ExperimentResult:
    forged_fraction = 0.3
    rng = np.random.default_rng(seed)
    zones, anchor, signed_names, unsigned_names, truth = _world()
    all_names = signed_names + unsigned_names
    forged_targets = {
        name: "6.6.6.6" for name in all_names
        if rng.random() < forged_fraction
    }
    evil_resolver = ForgingResolver("isp-dns", zones, forged=forged_targets)
    open_resolvers = [Resolver(f"open{i}", zones) for i in range(3)]

    rows = []
    metrics: dict[str, float] = {"forged_names": float(len(forged_targets))}
    for pvn_on in (False, True):
        validator = DnsValidator(anchor, open_resolvers)
        poisoned = 0
        corrected = 0
        blocked = 0
        lookups_of_forged = 0
        for _ in range(n_queries):
            name = all_names[int(rng.integers(len(all_names)))]
            response = evil_resolver.resolve(DnsQuery(name))
            is_forged = name in forged_targets
            if is_forged:
                lookups_of_forged += 1
            accepted = response.first_value()
            if pvn_on:
                packet = Packet(src="10.10.0.2", dst="10.10.0.1",
                                protocol="udp", src_port=53, dst_port=5353,
                                owner="alice", payload=response)
                verdict = validator.process(
                    packet, ProcessingContext(now=0.0, owner="alice")
                )
                if verdict.kind is VerdictKind.DROP:
                    blocked += 1
                    continue
                if verdict.kind is VerdictKind.REWRITE:
                    corrected += 1
                accepted = packet.payload.first_value()
            if accepted != truth[name]:
                poisoned += 1

        label = "pvn validator" if pvn_on else "no pvn"
        rows.append((
            label, n_queries, lookups_of_forged, poisoned,
            corrected, blocked,
            f"{fraction(poisoned, lookups_of_forged):.0%}"
            if lookups_of_forged else "-",
        ))
        key = "pvn" if pvn_on else "none"
        metrics[f"poisoned_{key}"] = float(poisoned)
        metrics[f"corrected_{key}"] = float(corrected)

    return ExperimentResult(
        experiment_id="E7",
        title="§4 DNS: forged mappings accepted with/without the PVN "
              "validator (DNSSEC + open-resolver cross-check)",
        columns=["config", "queries", "to forged names",
                 "poisoned answers used", "corrected", "blocked",
                 "forgery success"],
        rows=rows,
        metrics=metrics,
        notes=[
            "signed names are verified against the trust anchor; "
            "unsigned names fall back to the 3-resolver majority vote",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
