"""Property: switch packet conservation holds under chaos, read
through the metrics registry (ISSUE 4 satellite).

For any packet schedule interleaved with control-plane chaos — rule
removals, cache flushes, punt-handler loss —
every packet the switch received must be accounted for exactly once::

    received == forwarded + dropped + punted + consumed

The assertion reads the published totals from the typed metrics
registry (``repro_switch_packets_total``), not the switch's attribute
dict, so it also pins the fold path.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.obs import runtime as obs_runtime
from repro.sdn.actions import Drop, Output
from repro.sdn.flowtable import FlowRule
from repro.sdn.match import Match
from repro.sdn.switch import SdnSwitch

N_USERS = 6

#: One chaos/traffic step: ("packet", user) | ("remove_pvn", user)
#: | ("flush",) | ("drop_punt_handler",)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("packet"), st.integers(0, N_USERS - 1)),
        st.tuples(st.just("remove_pvn"), st.integers(0, N_USERS // 2)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("drop_punt_handler")),
    ),
    min_size=1, max_size=60,
)


def _build_switch() -> SdnSwitch:
    sim = Simulator()
    switch = SdnSwitch(sim, "cons")
    Link(switch, Host(sim, "gw", "10.0.0.254"))   # real egress for Output
    for i in range(N_USERS - 1):      # last user always misses -> punt/drop
        action = (Drop(reason="policy"),) if i % 2 else (
            Output(neighbor="gw"),)
        switch.table.install(FlowRule(
            match=Match(owner=f"user{i}"), actions=action,
            pvn_id=f"user{i}/pvn",
        ))
    return switch


@settings(max_examples=60, deadline=None)
@given(script=steps)
def test_conservation_under_chaos_via_registry(script):
    with obs_runtime.enabled() as obs:
        switch = _build_switch()
        punts = []
        switch.set_packet_in_handler(lambda sw, pkt: punts.append(pkt))

        sent = 0
        for step in script:
            kind = step[0]
            if kind == "packet":
                user = step[1]
                packet = Packet(src="10.0.0.1", dst="198.51.100.5",
                                dst_port=80, owner=f"user{user}")
                switch.process(packet)
                sent += 1
            elif kind == "remove_pvn":
                switch.table.remove_pvn(f"user{step[1]}/pvn")
            elif kind == "flush":
                switch.invalidate_cache()
            elif kind == "drop_punt_handler":
                switch.set_packet_in_handler(None)

        switch.publish_counters()
        value = obs.metrics.value
        received = value("repro_switch_packets",
                         switch="cons", result="received")
        accounted = sum(
            value("repro_switch_packets", switch="cons", result=outcome)
            for outcome in ("forwarded", "dropped", "punted", "consumed")
        )
        assert received == accounted, switch.counters()
        assert received == sent
