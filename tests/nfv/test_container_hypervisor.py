"""Tests for containers (the §3.3 cost model) and NFV hosts."""

import pytest

from repro.errors import CapacityError, SimulationError
from repro.netsim import Packet, Simulator
from repro.nfv import (
    Container,
    ContainerSpec,
    ContainerState,
    HostCapacity,
    Middlebox,
    NfvHost,
    ProcessingContext,
)


def ctx(owner="alice"):
    return ProcessingContext(now=0.0, owner=owner)


def pkt(owner="alice"):
    return Packet(src="10.0.0.1", dst="1.1.1.1", owner=owner)


class TestContainerSpec:
    def test_paper_defaults(self):
        """The ClickOS constants §3.3 cites: 30 ms / 45 µs / 6 MB."""
        spec = ContainerSpec()
        assert spec.instantiation_time == pytest.approx(0.030)
        assert spec.per_packet_delay == pytest.approx(45e-6)
        assert spec.memory_bytes == 6_000_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(instantiation_time=-1.0),
            dict(per_packet_delay=-1.0),
            dict(memory_bytes=0),
            dict(cpu_share=0.0),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(SimulationError):
            ContainerSpec(**kwargs)


class TestContainerLifecycle:
    def test_event_driven_start_takes_instantiation_time(self):
        sim = Simulator()
        container = Container(Middlebox("mb"))
        container.start(sim)
        assert container.state is ContainerState.INSTANTIATING
        sim.run()
        assert container.state is ContainerState.RUNNING
        assert container.instantiation_latency == pytest.approx(0.030)

    def test_cannot_start_twice(self):
        sim = Simulator()
        container = Container(Middlebox("mb"))
        container.start(sim)
        with pytest.raises(SimulationError):
            container.start(sim)

    def test_process_requires_running(self):
        container = Container(Middlebox("mb"))
        with pytest.raises(SimulationError):
            container.process(pkt(), ctx())

    def test_process_counts_and_charges_delay(self):
        container = Container(Middlebox("mb"))
        container.start_immediately(now=0.0)
        for _ in range(3):
            container.process(pkt(), ctx())
        assert container.packets_processed == 3
        assert container.busy_seconds == pytest.approx(3 * 45e-6)

    def test_stop_and_restart(self):
        sim = Simulator()
        container = Container(Middlebox("mb"))
        container.start(sim)
        sim.run()
        container.stop()
        assert container.state is ContainerState.STOPPED
        container.start(sim)
        sim.run()
        assert container.state is ContainerState.RUNNING

    def test_unique_ids_and_names(self):
        a = Container(Middlebox("x"))
        b = Container(Middlebox("x"))
        assert a.container_id != b.container_id
        assert a.name != b.name


class TestNfvHost:
    def test_admission_accounting(self):
        host = NfvHost("nfv0", HostCapacity(memory_bytes=20_000_000,
                                            cpu_cores=1.0))
        first = Container(Middlebox("a"))
        host.launch(first, now=0.0)
        assert host.memory_in_use == 6_000_000
        assert host.container_count == 1
        assert host.cpu_in_use == pytest.approx(0.1)

    def test_memory_exhaustion_rejects(self):
        host = NfvHost("nfv0", HostCapacity(memory_bytes=13_000_000,
                                            cpu_cores=10.0))
        host.launch(Container(Middlebox("a")), now=0.0)
        host.launch(Container(Middlebox("b")), now=0.0)
        with pytest.raises(CapacityError):
            host.launch(Container(Middlebox("c")), now=0.0)
        assert host.rejections == 1
        assert host.launches == 2

    def test_cpu_exhaustion_rejects(self):
        host = NfvHost("nfv0", HostCapacity(memory_bytes=10**12,
                                            cpu_cores=0.25))
        host.launch(Container(Middlebox("a")), now=0.0)
        host.launch(Container(Middlebox("b")), now=0.0)
        with pytest.raises(CapacityError):
            host.launch(Container(Middlebox("c")), now=0.0)

    def test_terminate_frees_capacity(self):
        host = NfvHost("nfv0", HostCapacity(memory_bytes=7_000_000,
                                            cpu_cores=1.0))
        container = host.launch(Container(Middlebox("a")), now=0.0)
        assert not host.can_admit(Container(Middlebox("b")))
        assert host.terminate(container.container_id)
        assert host.can_admit(Container(Middlebox("b")))
        assert not host.terminate(container.container_id)

    def test_terminate_owner_sweeps_pvn(self):
        host = NfvHost("nfv0")
        for _ in range(3):
            host.launch(Container(Middlebox("m"), owner="alice"), now=0.0)
        host.launch(Container(Middlebox("m"), owner="bob"), now=0.0)
        assert host.terminate_owner("alice") == 3
        assert host.container_count == 1

    def test_terminate_owner_matches_a_table_scan(self):
        """The per-owner id index answers what scanning the whole
        container table did: same ids, same (admission) order, through
        interleaved launches, single terminations and a crash."""
        host = NfvHost("nfv0", HostCapacity(memory_bytes=10**12,
                                            cpu_cores=10**6))
        terminated = []
        terminate = host.terminate
        host.terminate = lambda cid: terminated.append(cid) or terminate(cid)

        def scan(owner):
            return [c.container_id for c in host.containers()
                    if c.owner == owner]

        launched = [
            host.launch(Container(Middlebox("m"), owner=f"u{i % 3}"), now=0.0)
            for i in range(12)
        ]
        host.terminate(launched[3].container_id)       # one of u0's
        host.launch(launched[3], now=0.0)              # ... re-admitted last
        terminated.clear()
        expected = scan("u0")
        assert expected[-1] == launched[3].container_id
        assert host.terminate_owner("u0") == len(expected) == 4
        assert terminated == expected
        assert scan("u0") == [] and host.terminate_owner("u0") == 0
        assert len(scan("u1")) == len(scan("u2")) == 4
        host.crash(now=1.0)
        assert host.terminate_owner("u1") == 0
        host.recover()
        host.launch(Container(Middlebox("m"), owner="u1"), now=2.0)
        assert host.terminate_owner("u1") == 1
        assert host.container_count == 0

    def test_paper_scalability_claim_many_users_per_host(self):
        """With 6 MB per container an 8 GB host fits >1000 subscribers —
        the §3.3 feasibility argument."""
        host = NfvHost("nfv0", HostCapacity(memory_bytes=8_000_000_000,
                                            cpu_cores=200.0))
        spec = ContainerSpec(cpu_share=0.05)
        launched = 0
        for i in range(1400):
            container = Container(Middlebox(f"m{i}"), spec=spec)
            if host.can_admit(container):
                host.launch(container, now=0.0)
                launched += 1
        assert launched > 1000

    def test_invalid_capacity(self):
        with pytest.raises(CapacityError):
            HostCapacity(memory_bytes=0)
