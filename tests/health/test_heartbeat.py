"""Heartbeats over the simulated topology: the three failure signatures.

A crash, a partition, and a merely-slow host must each leave a
*different* trace in the detector — that separation is what the
reconciler's defer/evacuate decisions rest on.
"""

import pytest

from repro.errors import ConfigurationError
from repro.health import HealthService, HostState
from repro.health.heartbeat import HeartbeatPolicy
from repro.netsim.simulator import Simulator
from repro.netsim.topology import (
    AccessNetworkSpec,
    build_access_network,
)
from repro.nfv.hypervisor import NfvHost

INTERVAL = 0.1


@pytest.fixture()
def world():
    sim = Simulator()
    topo = build_access_network(
        AccessNetworkSpec(n_aps=1, n_nfv_hosts=2)
    )
    hosts = {name: NfvHost(name) for name in ("nfv0", "nfv1")}
    health = HealthService(sim, topo, hosts)
    health.start()
    return sim, topo, hosts, health


def sample_states(sim, health, host, until, step=0.05):
    """Record state_of(host) on a fine grid while the sim runs."""
    seen = []
    t = sim.now + step
    while t <= until:
        sim.schedule_at(
            t, lambda: seen.append(health.state_of(host, sim.now))
        )
        t += step
    sim.run(until=until)
    return seen


class TestSteadyState:
    def test_regular_beats_keep_hosts_alive(self, world):
        sim, _, _, health = world
        sim.run(until=2.0)
        for host in ("nfv0", "nfv1"):
            assert health.state_of(host, sim.now) is HostState.ALIVE
            assert health.monitor.delivered[host] >= 15

    def test_beats_arrive_one_path_latency_late(self, world):
        sim, topo, _, health = world
        sim.run(until=1.0)
        last = health.detector.last_heard("nfv0")
        # Beats go out on multiples of the interval and land strictly
        # later — the stream is routed, not teleported.
        assert last is not None
        offset = last % INTERVAL
        assert 0.0 < offset < INTERVAL / 2

    def test_start_is_idempotent(self, world):
        sim, _, _, health = world
        health.start()   # second call must not double the stream
        sim.run(until=1.0)
        assert health.monitor.delivered["nfv0"] <= 10


class TestCrash:
    def test_crash_silences_stream_and_reads_dead(self, world):
        sim, _, hosts, health = world
        sim.run(until=1.0)
        hosts["nfv0"].crash(sim.now)
        sim.run(until=2.0)
        assert health.state_of("nfv0", sim.now) is HostState.DEAD
        assert health.state_of("nfv1", sim.now) is HostState.ALIVE
        # The dead host stopped rescheduling itself: no beat after
        # the crash instant.
        assert health.detector.last_heard("nfv0") <= 1.0 + INTERVAL

    def test_resume_after_recovery_re_earns_trust(self, world):
        sim, _, hosts, health = world
        sim.run(until=1.0)
        hosts["nfv0"].crash(sim.now)
        sim.run(until=2.0)
        assert health.state_of("nfv0", sim.now) is HostState.DEAD

        hosts["nfv0"].recover()
        health.resume("nfv0")
        sim.run(until=3.0)
        assert health.state_of("nfv0", sim.now) is HostState.ALIVE
        # History was reset, not resumed: first post-recovery beat is
        # the oldest evidence.
        assert health.detector.last_heard("nfv0") > 2.0


class TestPartition:
    def test_window_drops_beats_then_heals(self, world):
        sim, _, _, health = world
        sim.run(until=1.0)
        heal = health.partition("nfv0", 0.5, sim.now)
        assert heal == pytest.approx(1.5)
        assert health.partitioned("nfv0", 1.2)
        assert not health.partitioned("nfv0", 1.6)
        assert not health.partitioned("nfv1", 1.2)

        sim.run(until=1.4)
        assert health.monitor.dropped.get("nfv0", 0) >= 3
        # Inside the window the detector can read DEAD — that is the
        # situation the reconciler's partition_grace defers on.
        assert health.phi("nfv0", sim.now) > 1.0

        sim.run(until=2.5)
        assert health.state_of("nfv0", sim.now) is HostState.ALIVE
        assert not health.partitioned("nfv0", sim.now)

    def test_star_partitions_every_host(self, world):
        sim, _, _, health = world
        sim.run(until=1.0)
        health.partition("*", 0.4, sim.now)
        assert health.partitioned("nfv0", 1.2)
        assert health.partitioned("nfv1", 1.2)

    def test_overlapping_windows_extend(self, world):
        sim, _, _, health = world
        health.partition("nfv0", 1.0, 0.0)
        health.partition("nfv0", 0.1, 0.5)   # shorter overlap: no-op
        assert health.partitioned("nfv0", 0.9)
        health.partition("nfv0", 1.0, 0.5)
        assert health.partitioned("nfv0", 1.4)

    def test_physical_cut_also_drops_beats(self, world):
        sim, topo, _, health = world
        sim.run(until=1.0)
        topo.set_link_down("nfv0", "agg")
        sim.run(until=1.5)
        assert health.monitor.dropped.get("nfv0", 0) >= 3
        # But the *declared-window* signal stays false: the reconciler
        # only defers on partitions the control plane knows about.
        assert not health.partitioned("nfv0", sim.now)
        topo.set_link_up("nfv0", "agg")
        before = health.monitor.delivered["nfv0"]
        sim.run(until=2.5)
        assert health.monitor.delivered["nfv0"] > before
        assert health.state_of("nfv0", sim.now) is HostState.ALIVE


class TestSlowHost:
    def test_two_lost_beats_never_read_dead(self, world):
        """The end-to-end calibration pin: HEARTBEAT_LOSS count=2 on a
        live host peaks at SUSPECT on the sim clock, DEAD never."""
        sim, _, _, health = world
        sim.run(until=1.0)
        health.drop_heartbeats("nfv0", 2)
        states = sample_states(sim, health, "nfv0", until=2.0)
        assert HostState.DEAD not in states
        assert HostState.SUSPECT in states
        assert states[-1] is HostState.ALIVE
        assert health.monitor.dropped.get("nfv0", 0) == 2


class TestPolicy:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            HeartbeatPolicy(interval=0.0)

    def test_stop_halts_the_stream(self, world):
        sim, _, _, health = world
        sim.run(until=1.0)
        health.stop()
        sim.run(until=1.2)   # drain beats already in flight
        count = dict(health.monitor.delivered)
        sim.run(until=2.0)
        assert health.monitor.delivered == count
