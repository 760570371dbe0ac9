"""A/B (and A/A) comparison of two result files from ``python -m bench``.

For every workload x end-to-end metric: both medians, the ratio with
its base, the bound BENCHMARK.json fixes, and a verdict.  A metric
whose run-to-run quartile spread exceeds its bound on either side is
``unresolved``, not unchanged.
"""

from __future__ import annotations

import json


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``b`` against base ``a``: within | regressed | improved | unresolved."""
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    ratio = b["value"] / a["value"]
    gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "within"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print the comparison; returns the number of regressed metrics."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    regressed = 0
    print(f"base A = {path_a}\n     B = {path_b}")
    print(f"{'workload':<17}{'metric':<13}{'A':>13}{'B':>13}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            side_a = a["workloads"][name]["end_to_end"][metric["name"]]
            side_b = b["workloads"][name]["end_to_end"][metric["name"]]
            result = verdict(side_a, side_b, metric["better"],
                             metric["bound"])
            regressed += result == "regressed"
            print(f"{name:<17}{metric['name']:<13}"
                  f"{side_a['value']:>13.6g}{side_b['value']:>13.6g}"
                  f"{side_b['value'] / side_a['value']:>8.3f}"
                  f"{metric['bound']:>7.2f}  {result}")
        digest_a = a["workloads"][name]["sim_digest"]
        digest_b = b["workloads"][name]["sim_digest"]
        same = "identical" if digest_a == digest_b else "DIFFERENT"
        print(f"{name:<17}sim_digest   {same}")
    return regressed
