"""Benchmarks of the megaflow tier + batched execution (E21).

Runs the E21 scenario once — churning open-loop flows through the
linear, microflow-only, microflow+megaflow, and megaflow+batched
datapaths — and asserts the acceptance bars from the fast-path
refactor:

* the megaflow tier cuts full classifications >= 10x vs the
  microflow-only datapath at 1000 installed PVNs (under churn the
  exact-match tier cannot help, the wildcard tier collapses each
  subscriber onto one entry),
* batched pipeline execution is >= 2x packets/sec over per-packet
  :meth:`Pipeline.run` at batch size 32,
* every configuration's equivalence digest — winner match statistics,
  table misses, conservation counters — is byte-identical to the
  uncached linear scan.

Wall-clock throughput rows vary run to run; only the shape is
asserted, per the conftest convention.

``BENCH_datapath.json`` in the repo root records one dev-box run of
the same sweep (alongside ``BENCH_control_plane.json``) so the perf
trajectory is tracked in-repo: deterministic counters (scan counts,
classification cut, digests) must reproduce the recorded values
exactly; wall-clock pkts/s rows are only sanity-checked against the
recorded order of magnitude.
"""

import json
import pathlib

from repro.experiments.exp21_megaflow import run as run_e21

RULE_COUNTS = (100, 1000)

BASELINE_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_datapath.json")


def test_bench_megaflow_fast_path(run_once):
    result = run_once(run_e21, rule_counts=RULE_COUNTS, repeats=3)
    m = result.metrics

    for n_rules in RULE_COUNTS:
        assert m[f"digest_match_at_{n_rules}"] == 1.0, (
            f"megaflow/batch datapaths diverged from the linear scan "
            f"at {n_rules} rules"
        )

    cut = m["classification_cut_at_1000"]
    assert cut >= 10.0, (
        f"megaflow classification cut {cut:.1f}x below the 10x bar"
    )

    speedup = m["batch_speedup_at_32"]
    assert speedup >= 2.0, (
        f"batched execution speedup {speedup:.2f}x below the 2x bar"
    )

    # The point of the wildcard tier: churning flows must not pay the
    # linear scan, so megaflow throughput at 1000 PVNs should beat the
    # microflow-only path decisively (it is ~6x in practice; assert a
    # noise-tolerant 2x).
    assert m["micro_mega_pps_at_1000"] >= 2.0 * m["micro_pps_at_1000"], (
        "megaflow tier did not outperform microflow-only under churn: "
        f"{m['micro_mega_pps_at_1000']:,.0f} vs "
        f"{m['micro_pps_at_1000']:,.0f} pkts/s"
    )


def test_bench_megaflow_matches_recorded_baseline():
    """The BENCH_datapath.json perf-trajectory comparison.

    Runs the recorded sweep's parameters and holds the run to the
    recorded file: deterministic counters exactly, wall-clock loosely.
    """
    recorded = json.loads(BASELINE_PATH.read_text())
    params = recorded["params"]
    result = run_e21(seed=params["seed"],
                     rule_counts=tuple(params["rule_counts"]),
                     repeats=params["repeats"],
                     batch_packets=params["batch_packets"])
    m = result.metrics

    for n_rules, row in recorded["classification"].items():
        for config in ("linear", "micro", "micro_mega", "mega_batch"):
            assert m[f"{config}_scans_at_{n_rules}"] == row[f"{config}_scans"], (
                f"{config} full-classification count at {n_rules} rules "
                f"drifted from BENCH_datapath.json"
            )
        assert m[f"classification_cut_at_{n_rules}"] == row["classification_cut"]
        assert m[f"digest_match_at_{n_rules}"] == row["digest_match"]

    # Wall-clock rows: regression fence only — no slower than a third
    # of the recorded dev-box run (CI hosts are slower, never 3x).
    for n_rules, row in recorded["throughput_pps"].items():
        for config, pps in row.items():
            measured = m[f"{config}_pps_at_{n_rules}"]
            assert measured >= pps / 3.0, (
                f"{config} throughput at {n_rules} rules collapsed: "
                f"{measured:,.0f} pkts/s vs recorded {pps:,.0f}"
            )
    assert (m["batch_speedup_at_32"]
            >= recorded["batch_speedup_at_32"] / 3.0)


def test_cold_classification_does_not_grow_with_rules(monkeypatch):
    """The cold path as counts, so the bar holds on any host.

    One ``owner=`` rule per subscriber plus a default route — the
    table ``churn_reconfig`` rewrites — classifies in the same number
    of stage probes at 100, 1 000 and 5 000 subscribers, and an
    ``install`` evaluates one sort key (its own): no re-sort of the
    table, whatever its size.
    """
    from repro.netsim.packet import Packet
    from repro.sdn.actions import Output
    from repro.sdn.flowtable import FlowRule, FlowTable
    from repro.sdn.match import Match

    key_evaluations = 0
    sort_key = FlowRule.sort_key

    def counted(rule):
        nonlocal key_evaluations
        key_evaluations += 1
        return sort_key(rule)

    monkeypatch.setattr(FlowRule, "sort_key", counted)

    probes_per_classify = {}
    for subscribers in (100, 1000, 5000):
        table = FlowTable()
        table.install(FlowRule(Match(dst_cidr="0.0.0.0/0"),
                               (Output("core"),), priority=1))
        for i in range(subscribers):
            before = key_evaluations
            table.install(FlowRule(
                Match(owner=f"u{i}"), (Output("core"),), priority=200,
                pvn_id=f"u{i}/pvn"))
            assert key_evaluations - before <= 1
        # First, middle and last subscriber, and a stranger who falls
        # through to the default route.
        owners = ["u0", f"u{subscribers // 2}", f"u{subscribers - 1}",
                  "stranger"]
        for owner in owners:
            winner, _ = table.classify(Packet(
                src="10.0.0.1", dst="198.51.100.9", owner=owner))
            assert winner is not None
            assert (winner.match.owner or "stranger") == owner
        probes_per_classify[subscribers] = table.stage_probes / len(owners)
    assert len(set(probes_per_classify.values())) == 1, probes_per_classify
    assert probes_per_classify[5000] <= 2
