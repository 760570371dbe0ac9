"""E5 — §2.3/§4 PII detection and blocking, by enforcement point.

"Recent approaches that identify PII in network traffic show promising
results, but require either tunneling traffic to a remote network at
the cost of extra delay or analyzing network traffic on a device, at
the cost of battery life and network performance.  An alternative
approach is to deploy in-network functionality that provides improved
privacy without performance costs."

Run a labelled leak corpus through four enforcement points and report
detection recall, what an eavesdropper beyond the enforcement point
still saw, per-request added latency, and device energy.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import fraction
from repro.experiments.harness import ExperimentResult, main
from repro.middleboxes.pii_detector import PiiDetector
from repro.netproto.http import HttpRequest
from repro.netsim.packet import Packet
from repro.nfv.middlebox import ProcessingContext, VerdictKind
from repro.workloads.adversary import Eavesdropper
from repro.workloads.device_cost import (
    EnergyModel,
    cloud_tunnel_enforcement_cost,
    in_network_enforcement_cost,
    on_device_enforcement_cost,
)
from repro.workloads.pii import synth_request_stream, synth_user

#: Enforcement-point latency model (per request).
LATENCY = {
    "none": 0.0,
    "on-device": 0.004,        # DPI on a phone CPU, ~2KB at 2us/byte
    "pvn (in-network)": 45e-6, # one middlebox container hop
    "cloud tunnel": 0.080,     # hairpin RTT to the remote deployment
}


def _run_point(point: str, requests, detector_mode: str,
               model: EnergyModel) -> dict:
    eve = Eavesdropper()
    detector = PiiDetector(mode=detector_mode) if point != "none" else None
    blocked = 0
    detected = 0
    total_bytes = 0
    for labelled in requests:
        request = HttpRequest("POST", labelled.host, body=labelled.body,
                              https=False)
        total_bytes += request.size_bytes
        packet = Packet(src="10.10.0.2", dst="203.0.113.80", dst_port=80,
                        owner="alice", payload=request)
        if detector is not None:
            context = ProcessingContext(now=0.0, owner="alice")
            verdict = detector.process(packet, context)
            if verdict.kind is VerdictKind.DROP:
                blocked += 1
                continue
            if verdict.kind is VerdictKind.REWRITE:
                detected += 1
        eve.observe(packet)
    return {
        "eve": eve,
        "blocked": blocked,
        "detected": detected + blocked,
        "bytes": total_bytes,
    }


def run(seed: int = 0, n_requests: int = 400) -> ExperimentResult:
    leak_probability = 0.35
    rng = np.random.default_rng(seed)
    user = synth_user(rng, "alice")
    requests = synth_request_stream(user, rng, n_requests=n_requests,
                                    leak_probability=leak_probability,
                                    https_fraction=0.0)
    n_leaky = sum(1 for r in requests if r.leaks)
    pii_values = list(user.pii_values().values())
    model = EnergyModel()

    rows = []
    metrics: dict[str, float] = {"leaky_requests": float(n_leaky)}
    for point in ("none", "on-device", "pvn (in-network)", "cloud tunnel"):
        outcome = _run_point(point, requests, detector_mode="scrub",
                             model=model)
        leaked_values = sum(
            1 for value in pii_values if outcome["eve"].saw(value)
        )
        nbytes = outcome["bytes"]
        if point == "none":
            cost = in_network_enforcement_cost(nbytes, model)
            cost.cpu_joules = 0.0
        elif point == "on-device":
            cost = on_device_enforcement_cost(nbytes, model)
        elif point == "cloud tunnel":
            cost = cloud_tunnel_enforcement_cost(nbytes, model)
        else:
            cost = in_network_enforcement_cost(nbytes, model)
        detection = fraction(outcome["detected"], n_leaky)
        rows.append((
            point,
            f"{detection:.0%}" if point != "none" else "-",
            leaked_values,
            LATENCY[point] * 1e3,
            cost.total_joules,
            f"{model.battery_fraction(cost.total_joules) * 100:.4f}%",
        ))
        key = point.split(" ")[0].replace("-", "_")
        metrics[f"detection_{key}"] = detection
        metrics[f"leaked_values_{key}"] = float(leaked_values)
        metrics[f"latency_ms_{key}"] = LATENCY[point] * 1e3
        metrics[f"energy_j_{key}"] = cost.total_joules

    return ExperimentResult(
        experiment_id="E5",
        title="§2.3/§4 PII: detection, exposure, latency, and device "
              "energy by enforcement point",
        columns=["enforcement", "leaks handled", "PII values still "
                 "exposed", "added latency (ms)", "device energy (J)",
                 "battery"],
        rows=rows,
        metrics=metrics,
        notes=[
            "in-network PVN matches on-device/cloud detection while "
            "paying neither phone CPU energy nor tunnel latency",
            "'PII values still exposed' counts the user's distinct PII "
            "values an eavesdropper past the enforcement point observed",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
