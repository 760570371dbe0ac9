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
are exactly equal, not merely close.  E23 itself reports only
simulated outcomes; the wall-clock bars time the engine through
``population_timing.py``, which ``record_population.py`` shares.

The fluid side of that ratio admits and retires flows as columns and
keeps them in canonical order instead of sorting each epoch; the last
tests pin, as counts that hold on any host, what its per-flow Python
cost scales with on the ``python -m bench`` population: ``HybridFlow``
objects built, sorts run and scalar leak derivations.
"""

import functools

import numpy as np
import pytest

from repro.experiments import exp23_population
from repro.netsim.fluid import MODE_FLUID, HybridFlow
from repro.workloads.population import PopulationWorkload

from population_timing import speedup_check, sweep_point

SPEEDUP_BAR = 50.0


def test_bench_e23_population(run_once):
    result = run_once(exp23_population.run, seed=0)
    assert result.metrics["parity_digests_match"] == 1.0
    assert result.metrics["parity_max_completion_dt"] == 0.0
    # The fluid taps must actually reach the optimizer.
    assert result.metrics["telemetry_cells_reported"] > 0
    assert result.metrics["telemetry_total_pps"] > 0


def test_speedup_bar_at_smoke_scale():
    """ISSUE 10 acceptance, smoke-sized: >= 50x device-seconds/s."""
    check = speedup_check(10_000, 6.0, seed=0)
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
    small = sweep_point(5_000, 8.0, seed=0)
    large = sweep_point(50_000, 8.0, seed=0)
    assert large["counters"]["packet_events"] == 0
    assert (large["device_seconds_per_sec"]
            >= small["device_seconds_per_sec"] / 3.0)


@functools.cache
def _bench_population_run():
    """Run the `python -m bench` population (50k devices x 30 s, seed
    0) once, counting calls to what the per-flow cost scales with."""
    calls = {"HybridFlow": 0, "lexsort": 0, "_leak_details": 0}

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    spec = exp23_population._spec(50_000, 30.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HybridFlow, "__init__",
                      counting("HybridFlow", HybridFlow.__init__))
        patch.setattr(PopulationWorkload, "_leak_details", counting(
            "_leak_details", PopulationWorkload._leak_details))
        engine = exp23_population.build_population(
            spec, seed=0, mode=MODE_FLUID, keep_records=False)
        # Compiling the schedule sorts it once; the run must not sort.
        patch.setattr(np, "lexsort", counting("lexsort", np.lexsort))
        engine.run(spec.horizon)
    return engine, calls


def test_fluid_run_builds_objects_only_for_leaky_flows():
    """64 764 flows opened, 5 229 of them leaky — and exactly that many
    ``HybridFlow`` objects built, not one per flow."""
    engine, calls = _bench_population_run()
    assert engine.flows_opened == 64_764
    assert int(engine.workload._leaky.sum()) == 5_229
    assert calls["HybridFlow"] == 5_229


def test_fluid_run_sorts_nothing_per_epoch():
    """300 epochs read the flows in canonical order off the index: no
    ``np.lexsort`` during the run (one per epoch before the index)."""
    engine, calls = _bench_population_run()
    assert engine.epochs == 300
    assert calls["lexsort"] == 0


def test_leak_details_are_compiled_not_derived_per_flow():
    """The 5 229 leaky flows read their leak positions and types off
    compiled columns: the scalar hash chain runs for none of them."""
    _, calls = _bench_population_run()
    assert calls["_leak_details"] == 0
