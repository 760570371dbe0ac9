"""Population-scale benches (E23, DESIGN.md §15).

The acceptance bar from ROADMAP item 1: the hybrid fluid/packet
engine must simulate >= 50x more device-seconds per wall-second than
the pure-packet pipeline over identical churn, while keeping the
policy-ledger digest byte-identical.  At the full 10^5-device scale
the recorded gap is several times that (see ``BENCH_population.json``),
and wider still at the smoke scale here because packet mode degrades
with per-flow packet counts, not population, so 50x is the regression
fence.

Parity is asserted at *zero* tolerance: both modes share the same
packet-quantized per-tick progress arithmetic, so completion times
are exactly equal, not merely close.

The fluid side of that ratio admits and retires flows as columns; the
last test pins the count of ``HybridFlow`` objects a run builds, which
is what the per-flow Python cost scales with.
"""

from repro.experiments import exp23_population
from repro.netsim.fluid import MODE_FLUID, HybridFlow

SPEEDUP_BAR = 50.0


def test_bench_e23_population(run_once):
    result = run_once(exp23_population.run, seed=0)
    assert result.metrics["parity_digests_match"] == 1.0
    assert result.metrics["parity_max_completion_dt"] == 0.0
    assert result.metrics["fluid_vs_packet_speedup"] >= SPEEDUP_BAR
    # The fluid taps must actually reach the optimizer.
    assert result.metrics["telemetry_cells_reported"] > 0
    assert result.metrics["telemetry_total_pps"] > 0


def test_speedup_bar_at_smoke_scale():
    """ISSUE 10 acceptance, smoke-sized: >= 50x device-seconds/s."""
    check = exp23_population.speedup_check(10_000, 6.0, seed=0)
    assert check["counts_match"], "policy counts diverged between modes"
    assert check["speedup"] >= SPEEDUP_BAR, (
        f"fluid/packet speedup {check['speedup']:.1f}x is below the "
        f"{SPEEDUP_BAR:.0f}x bar "
        f"({check['fluid']['device_seconds_per_sec']:,.0f} vs "
        f"{check['packet']['device_seconds_per_sec']:,.0f} "
        f"device-seconds/s)"
    )


def test_fluid_cost_scales_with_churn_not_population():
    """10x devices at fixed per-device churn must cost ~10x, never
    the O(packets) blowup: throughput in device-seconds/s holds."""
    small = exp23_population.sweep_point(5_000, 8.0, seed=0)
    large = exp23_population.sweep_point(50_000, 8.0, seed=0)
    assert large["counters"]["packet_events"] == 0
    assert (large["device_seconds_per_sec"]
            >= small["device_seconds_per_sec"] / 3.0)


def test_fluid_run_builds_objects_only_for_leaky_flows(monkeypatch):
    """The `python -m bench` population (50k devices x 30 s, seed 0):
    64 764 flows opened, 5 229 of them leaky — and exactly that many
    ``HybridFlow`` objects built, not one per flow."""
    built = []
    init = HybridFlow.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HybridFlow, "__init__", counting)
    spec = exp23_population._spec(50_000, 30.0)
    engine = exp23_population.build_population(
        spec, seed=0, mode=MODE_FLUID, keep_records=False)
    engine.run(spec.horizon)
    assert engine.flows_opened == 64_764
    assert int(engine.workload._leaky.sum()) == 5_229
    assert len(built) == 5_229
