"""Control-plane scaling benches (E18, DESIGN.md §9).

E18 reports the attach path's cost as counts, so these bars hold on any
host.  At any occupancy a further attach compiles nothing and searches
no placement (compile cache + embedding index), and admission reads
O(1) residual counters, where a rescanning admission would sum over a
container count that grows with the devices attached.  The host-time
attach rate is ``attach_storm``'s in ``python -m bench``.

The 40 000-device placement digest below was recorded from the sharded
run (``python -m repro run E18``) and is asserted exactly.
"""

from repro.core.device import Device
from repro.core.provider import AccessProvider
from repro.core.session import PvnSession, default_pvnc
from repro.experiments import exp18_control_plane
from repro.experiments.runner import run_sharded
from repro.nfv.hypervisor import HostCapacity

#: ``run_sharded("E18", seed=0, shards=1, params={"devices": 40000})``.
DIGEST_40K = ("placement digest 7e6e1d471432b0f8d9979edff2771e11"
              "fe09c2aae142439a6c040fcfe0ff41bc")


def test_bench_e18_control_plane(run_once):
    result = run_once(exp18_control_plane.run,
                      device_counts=(250, 1000), measure_batch=50)
    m = result.metrics
    for devices in (250, 1000):
        assert m[f"compile_cache_hit_rate_at_{devices}"] > 0.9
    # What a rescanning admission would pay grows with occupancy; the
    # counters the hosts answer from do not.
    assert (m["rescan_containers_per_launch_at_1000"]
            > 3 * m["rescan_containers_per_launch_at_250"])


def test_compile_hit_rate_at_10k_devices():
    result = exp18_control_plane.run(device_counts=(10_000,),
                                     measure_batch=50)
    assert result.metrics["compile_cache_hit_rate_at_10000"] > 0.99


def test_cached_attach_scans_nothing_at_any_occupancy():
    """A further attach recompiles nothing and re-runs no placement
    search, at 250 devices and at 10 000 alike."""
    result = exp18_control_plane.run(device_counts=(250, 10_000),
                                     measure_batch=50)
    for devices in (250, 10_000):
        assert result.metrics[f"batch_compiles_at_{devices}"] == 0.0
        assert result.metrics[f"batch_placement_searches_at_{devices}"] == 0.0
    assert (result.metrics["rescan_containers_per_launch_at_10000"]
            > result.metrics["rescan_containers_per_launch_at_250"])


def test_sharded_placement_digest_at_40k_devices():
    result = run_sharded("E18", seed=0, shards=1, params={"devices": 40_000})
    assert result.notes[0] == DIGEST_40K


def _route_searches_for(devices: int) -> int:
    """Dijkstra runs while ``devices`` real clients join one provider."""
    env = PvnSession.build(seed=0).device.env
    provider = AccessProvider(
        "isp", seed=0,
        nfv_capacity=HostCapacity(memory_bytes=10**12, cpu_cores=10**6))
    for i in range(devices):
        device = Device(f"u{i}", f"aa:bb:cc:00:00:{i:02x}", env)
        device.attach(provider, ap=f"ap{i % 2}")
        device.establish_pvn([provider], default_pvnc(f"u{i}"))
    return provider.topo.searches


def test_attach_runs_no_graph_search():
    """A device is a pendant node: its routes are its AP's plus one
    hop, and attaching it leaves the route table standing (DESIGN.md
    §9).  So the searches an access network ever runs are set by its
    core, not by how many devices joined — a deterministic count, where
    the throughput bars above are wall-clock."""
    few, many = _route_searches_for(20), _route_searches_for(200)
    assert few == many, (few, many)
    assert many <= 40
