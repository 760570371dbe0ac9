"""E16 — §4 scalability of the per-packet datapath itself.

The paper's §4 asks whether access ISPs can afford a virtual network
per device.  E1 answers for memory and instantiation latency; this
experiment answers for the *per-packet* cost: with one PVN steering
rule per subscriber installed at the ingress switch, a naive datapath
pays a linear scan over all installed rules for every packet — per-
packet cost grows with total PVN count, the opposite of what scaling
to millions of users needs.

The microflow cache (:mod:`repro.sdn.flowcache`) memoizes the winning
rule and its compiled action closure per exact flow, making the steady-
state cost O(1) in the rule count.  This experiment sweeps the
installed-PVN count and reports the cost of both as counts over the
same packet schedule:

* the rule comparisons per packet a linear scan makes (the winner's
  position in the priority order, or every rule on a miss), computed
  here with :meth:`~repro.sdn.flowtable.FlowTable.lookup`;
* the full classifications per packet the switch's cached datapath
  makes, plus the microflow cache's own counters (hits, misses,
  invalidations — a PVN teardown mid-run exercises the invalidation
  fence).

The host-time cost of the same datapath is measured end to end by the
``steady_mix`` and ``churn_reconfig`` workloads of ``python -m bench``.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, main
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.sdn.actions import Drop
from repro.sdn.flowtable import FlowRule, FlowTable
from repro.sdn.match import Match
from repro.sdn.switch import SdnSwitch

#: Distinct concurrent microflows in the replayed schedule.
FLOWS = 64
#: Packets per sweep point (each flow repeats PACKETS / FLOWS times).
PACKETS = 4096


def _build_switch(n_rules: int) -> SdnSwitch:
    switch = SdnSwitch(Simulator(), "ingress")
    for i in range(n_rules):
        switch.table.install(FlowRule(
            match=Match(owner=f"user{i}"),
            actions=(Drop(reason="bench"),),
            pvn_id=f"user{i}/pvn{i}",
        ))
    return switch

def _packet_schedule(n_rules: int) -> list[Packet]:
    packets = []
    for i in range(PACKETS):
        flow = i % FLOWS
        # Spread the flows evenly across the whole rule table so the
        # linear path's average scan depth tracks the installed count.
        owner = f"user{(flow * n_rules) // FLOWS % n_rules}"
        packets.append(Packet(
            src=f"10.0.{flow % 256}.1", dst="198.51.100.5",
            dst_port=443, owner=owner,
        ))
    return packets


def _replay(switch: SdnSwitch, packets: list[Packet]) -> None:
    process = switch.process
    for packet in packets:
        process(packet)


def _linear_comparisons(table: FlowTable, packets: list[Packet]) -> int:
    """Rule comparisons a linear scan makes over ``packets``: the
    winner's 1-based position in the priority order, or every rule on
    a miss."""
    rules = table.rules
    position = {id(rule): at for at, rule in enumerate(rules, 1)}
    total = 0
    for packet in packets:
        winner = table.lookup(packet, record=False)
        total += len(rules) if winner is None else position[id(winner)]
    return total


def run(
    seed: int = 0,
) -> ExperimentResult:
    rule_counts = (10, 100, 1000)
    rows = []
    metrics: dict[str, float] = {}
    for n_rules in rule_counts:
        packets = _packet_schedule(n_rules)
        switch = _build_switch(n_rules)
        linear = _linear_comparisons(switch.table, packets) / len(packets)

        _replay(switch, packets)
        # Exercise the invalidation fence: tearing down one PVN's rules
        # flushes the cache, and the replay after it refills per flow.
        switch.table.remove_pvn(f"user0/pvn{0}")
        _replay(switch, packets)
        switch.publish_counters()
        classifications = switch.full_classifications / (2 * len(packets))

        cache = switch.flow_cache
        hit_rate = cache.hit_rate
        invalidations = float(cache.invalidations)

        rows.append((
            n_rules,
            f"{linear:.2f}",
            f"{classifications:.4f}",
            f"{100 * hit_rate:.1f}%",
            int(invalidations),
        ))
        metrics[f"linear_comparisons_per_packet_at_{n_rules}"] = linear
        metrics[f"full_classifications_per_packet_at_{n_rules}"] = (
            classifications)
        metrics[f"cache_hit_rate_at_{n_rules}"] = hit_rate
        metrics[f"cache_invalidations_at_{n_rules}"] = invalidations

    return ExperimentResult(
        experiment_id="E16",
        title="§4 datapath fast path: microflow cache vs linear rule scan",
        columns=["installed PVN rules", "linear comparisons/pkt",
                 "full classifications/pkt", "cache hit rate",
                 "invalidations"],
        rows=rows,
        metrics=metrics,
        notes=[
            "a linear scan's comparisons per packet grow with the "
            "installed PVN count; the cached datapath classifies each "
            "flow at most once per table change, so its per-packet work "
            "stays flat as subscribers scale (§4)",
            "a PVN teardown mid-run flushes the cache (invalidations "
            "counter) and the next packet of each flow refills it — "
            "cached lookups never serve removed rules",
            "host time for the same datapath is measured by the "
            "steady_mix and churn_reconfig workloads of python -m bench",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
