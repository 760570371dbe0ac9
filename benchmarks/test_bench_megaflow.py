"""Benchmarks of the megaflow tier (E21).

Runs the E21 scenario once — churning open-loop flows through the
switch and through a linear ``table.lookup`` reference over a twin
table — and asserts, exactly:

* full classifications: under churn every packet is a fresh
  five-tuple, so the linear reference scans once per packet (16 per
  subscriber) and the switch's megaflow tier once per subscriber, a
  classification cut of exactly 16x (>= the 10x bar of the fast-path
  refactor);
* the microflow hit rate is exactly 0: the exact-match tier alone
  could not cut a single scan under this churn;
* the switch's per-rule match statistics and table misses equal the
  linear reference's.
"""

from repro.experiments.exp21_megaflow import CHURN_FACTOR, run as run_e21

RULE_COUNTS = (100, 1000)


def test_bench_megaflow_fast_path(run_once):
    result = run_once(run_e21, rule_counts=RULE_COUNTS)
    m = result.metrics

    for n_rules in RULE_COUNTS:
        packets = CHURN_FACTOR * n_rules
        assert m[f"linear_scans_at_{n_rules}"] == packets
        assert m[f"switch_scans_at_{n_rules}"] == n_rules
        assert m[f"classification_cut_at_{n_rules}"] == 16.0
        assert m[f"micro_hit_rate_at_{n_rules}"] == 0.0
        assert m[f"digest_match_at_{n_rules}"] == 1.0, (
            f"megaflow datapath diverged from the linear scan "
            f"at {n_rules} rules"
        )


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
