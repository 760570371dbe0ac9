"""Control-plane scaling benches (E18, DESIGN.md §9).

The acceptance bar from the control-plane refactor: at 10k-device
occupancy, the optimized attach path (compile cache + embedding index
+ incremental admission) must deliver >= 5x the marginal attach
throughput of the uncached baseline.  The measured gap is asymptotic
(hundreds of x at 10k on the dev box) because the baseline pays
per-attach recompiles and O(containers) host rescans; 5x is the
regression fence, not the expectation.

``BENCH_control_plane.json`` in the repo root records one dev-box run
of the 1k/5k/10k sweep plus the shard speedup, seeding the perf
trajectory.
"""

from repro.core.device import Device
from repro.core.provider import AccessProvider
from repro.core.session import PvnSession, default_pvnc
from repro.experiments import exp18_control_plane
from repro.nfv.hypervisor import HostCapacity


def test_bench_e18_control_plane(run_once):
    result = run_once(exp18_control_plane.run,
                      device_counts=(250, 1000), measure_batch=50,
                      repeats=1)
    for devices in (250, 1000):
        assert result.metrics[f"speedup_at_{devices}"] >= 5.0
        assert result.metrics[f"compile_cache_hit_rate_at_{devices}"] > 0.9
    # The gap must widen with occupancy (the baseline is the one that
    # degrades): asymptotic, not constant-factor.
    assert (result.metrics["speedup_at_1000"]
            > result.metrics["speedup_at_250"])


def test_attach_speedup_bar_at_10k_devices():
    """ISSUE 5 acceptance: >= 5x attach throughput at 10k devices."""
    result = exp18_control_plane.run(device_counts=(10_000,),
                                     measure_batch=50, repeats=1)
    speedup = result.metrics["speedup_at_10000"]
    assert speedup >= 5.0, (
        f"control-plane speedup {speedup:.1f}x at 10k devices is below "
        f"the 5x bar "
        f"({result.metrics['attach_per_sec_cached_at_10000']:,.0f} vs "
        f"{result.metrics['attach_per_sec_base_at_10000']:,.0f} attach/s)"
    )
    assert result.metrics["compile_cache_hit_rate_at_10000"] > 0.99


def test_cached_attach_throughput_flat_in_occupancy():
    """Optimized marginal attach cost must not grow with N."""
    result = exp18_control_plane.run(device_counts=(250, 10_000),
                                     measure_batch=50, repeats=2)
    small = result.metrics["attach_per_sec_cached_at_250"]
    large = result.metrics["attach_per_sec_cached_at_10000"]
    # Generous noise allowance: 40x more devices may cost at most 3x
    # throughput; the baseline degrades ~26x over the same range.
    assert large >= small / 3.0, result.metrics


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
