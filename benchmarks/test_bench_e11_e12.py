"""Benches for E11 (harm containment) and E12 (time-to-connect)."""

from repro.experiments import exp11_harm, exp12_setup_time


def test_bench_e11_harm_containment(run_once):
    result = run_once(exp11_harm.run, seed=0)
    # Every §3.3 attack class is contained by its mechanism.
    assert result.metric("all_contained") == 1.0
    assert result.metric("snooped_packets") == 0
    assert result.metric("censored_packets") == 0
    assert result.metric("hog_killed") == 1.0
    # The hog got roughly its budget (50 packets) before the kill.
    assert 40 <= result.metric("hog_survived_packets") <= 50
    # Admission capped the greedy user at 25% of host memory.
    assert result.metric("greedy_containers") == 25


def test_bench_e12_setup_time(run_once):
    result = run_once(exp12_setup_time.run, seed=0)
    # PVN establishment adds a bounded, small join cost: ~3 RTTs + one
    # container instantiation over a plain attach.
    added = result.metric("pvn_added_ms")
    rtt = result.metric("rtt_ms")
    assert added < 4 * rtt + 30 + 1
    assert added > 30  # can't be cheaper than the instantiation
    # Total stays in captive-portal territory (<300 ms at 28 ms RTT).
    assert result.metric("pvn_attach_ms") < 300
    # Independent of module count: 6 services, still one instantiation.
    assert result.metric("services") == 6


def test_bench_e13_mobility(run_once):
    from repro.experiments import exp13_mobility

    result = run_once(exp13_mobility.run, seed=0)
    # §1: the network follows the user.  An intra-provider handoff is
    # cheaper than a full roam and keeps every service.  The paper
    # gives no factor; the stateful handoff pays instantiation plus
    # checkpoint transfer plus one commit RTT (58 ms against 170 ms).
    assert result.metric("handoff_ms") < result.metric("roam_full_ms")
    assert result.metric("handoff_keeps_all_services") == 1.0
    # A full-support roam restores the complete configuration.
    assert result.metric("roam_full_services") == result.metric(
        "services_at_home"
    )
    # A partial-support roam degrades but never loses the required core.
    assert result.metric("required_survive_partial_roam") == 1.0
    assert 0 < result.metric("roam_partial_services") < result.metric(
        "services_at_home"
    )
