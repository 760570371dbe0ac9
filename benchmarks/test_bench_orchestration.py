"""Orchestration benches (E19, DESIGN.md §10).

The ISSUE-6 acceptance bar: optimized placement must *strictly
dominate* first-fit on at least one (load, SLO-violation, cost) sweep
point — lower cost without losing on SLO violations — and the
load-driven autoscaler must actually recover the flash crowd (the
pre-autoscale violation count falls to the post-autoscale one).

A second bench holds the online heuristic to the reference solver's
optimum on a small instance: within ``HEURISTIC_COST_BOUND`` (the same
fence the differential suite asserts over hundreds of random
instances).
"""

from repro.core.deployment.orchestrator import (
    HEURISTIC_COST_BOUND,
    CostModel,
    PlacementOptimizer,
    SharedMiddleboxPool,
    reference_solve,
)
from repro.experiments import exp19_orchestration
from repro.netsim.topology import attach_device, build_access_network
from repro.nfv import NfvHost
from repro.nfv.hypervisor import HostCapacity
from repro.nfv.placement import PlacementRequest


def test_bench_e19_orchestration(run_once):
    result = run_once(exp19_orchestration.run)
    users_swept = [users for users, _ in
                   ((60, 0), (180, 0), (300, 0))]

    # Strict dominance on at least one sweep point (acceptance bar).
    assert result.metrics["dominated_points"] >= 1.0, result.metrics

    # At the highest load point first-fit is saturated (NACKs) while
    # the optimized mode both serves everyone and costs less.
    high = users_swept[-1]
    assert (result.metrics[f"slo_violation_rate_opt_at_{high}"]
            < result.metrics[f"slo_violation_rate_ff_at_{high}"])
    assert (result.metrics[f"cost_opt_at_{high}"]
            < result.metrics[f"cost_ff_at_{high}"])
    assert result.metrics[f"nacks_opt_at_{high}"] == 0.0

    # The autoscaler earned its keep: the flash crowd produced
    # pre-autoscale violations, rebalancing (real make-before-break
    # migrations) cleared them.
    for users in users_swept:
        pre = result.metrics[f"slo_violations_opt_preautoscale_at_{users}"]
        post = result.metrics[f"slo_violation_rate_opt_at_{users}"] * users
        assert pre > 0.0, "flash crowd never went hot"
        assert post < pre, (users, pre, post)
        assert result.metrics[f"autoscale_migrations_at_{users}"] > 0.0

    # Sharing is real: far fewer instances than users.
    assert result.metrics[f"shared_instances_at_{high}"] < high / 4


def test_bench_heuristic_vs_reference_gap(run_once):
    """The online heuristic lands within HEURISTIC_COST_BOUND of the
    branch-and-bound optimum on a <=6-host instance."""
    topo = build_access_network()
    attach_device(topo, "dev_a")
    hosts = {
        n: NfvHost(n, HostCapacity(memory_bytes=60_000_000, cpu_cores=2.0))
        for n in topo.nodes_of_kind("nfv")
    }
    requests = tuple(
        PlacementRequest(f"svc{i}", allow_physical_reuse=(i % 2 == 0))
        for i in range(4)
    )
    pool = SharedMiddleboxPool(max_members=4)
    model = CostModel()
    optimizer = PlacementOptimizer(topo, hosts, model=model, pool=pool)

    def measure():
        plan = optimizer.place(requests, "dev_a", "gw")
        reference = reference_solve(topo, hosts, requests, "dev_a", "gw",
                                    model=model, pool=pool)
        return plan, reference

    plan, reference = run_once(measure)
    assert reference is not None
    heuristic_cost = optimizer.plan_cost(requests, "dev_a", "gw", plan)
    assert heuristic_cost <= HEURISTIC_COST_BOUND * reference.cost + 1e-9, (
        heuristic_cost, reference.cost,
    )
