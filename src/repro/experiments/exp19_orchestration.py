"""E19 — orchestration as optimization: offered load vs SLO and cost.

The §3.3 economics question: what does it cost a provider to honor
every subscriber's PVNC as the subscriber population (and its traffic)
grows?  Two provisioning modes are swept over the same offered-load
points:

* **first-fit** — the seed behaviour: every user gets dedicated
  containers, placed greedily by path stretch
  (``DeploymentManager(optimizer=None)``).  Cheap to compute, expensive
  to run: the container bill grows linearly with users, and once hosts
  fill, further deploys NACK (counted as SLO violations — the user got
  no service at all);
* **optimized** — the :mod:`repro.core.deployment.orchestrator` stack:
  multi-objective placement packs users onto *shared* middlebox
  instances, and the load-driven autoscaler splits hot instances
  (make-before-break via the PR-2 migration coordinator) when a flash
  crowd pushes per-instance utilization over the high watermark.

A user's SLO is one round trip through their chain under
``slo_latency`` seconds: the embedding's expected RTT plus two passes
of each shared instance's contention delay (the M/M/1-shaped penalty
from :class:`~repro.core.deployment.orchestrator.CostModel`).  Cost is
:meth:`CostModel.world_cost` — every live container reservation at its
host's rate plus an energy charge per powered host, identically priced
for both modes.

Everything is deterministic: per-user rates derive from
``derive_seed(seed, "rate:i")``, no wall-clock numbers appear, and the
flash-crowd phase doubles down on a fixed user prefix.  The bench bar
(``benchmarks/test_bench_orchestration.py``) asserts strict dominance:
at the highest load point the optimized mode must beat first-fit on
cost *and* not lose on SLO violations.
"""

from __future__ import annotations

from repro.core.deployment.manager import DeploymentManager
from repro.core.deployment.orchestrator import (
    Autoscaler,
    AutoscalePolicy,
    CostModel,
    PlacementOptimizer,
    SharedMiddleboxPool,
)
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc.compiler import UserEnvironment
from repro.core.pvnc.model import ClassRule, ModuleSpec, Pvnc
from repro.experiments.harness import ExperimentResult, main
from repro.netsim.randomness import derive_seed
from repro.netsim.topology import AccessNetworkSpec, build_access_network
from repro.nfv.hypervisor import HostCapacity, NfvHost

#: Access points users attach through.
N_APS = 4
#: NFV hosts the provider operates.
N_HOSTS = 3
#: Per-host memory: small enough that dedicated-container first-fit
#: saturates at the highest sweep point (3 x 1 GB = ~250 users at
#: 2 x 6 MB each, swept up to 300), while shared instances never come
#: close.
HOST_MEMORY = 1_000_000_000
#: One chain round trip must finish inside this (seconds).
SLO_LATENCY = 0.06
#: Users per shared instance (the isolation cap).
MAX_MEMBERS = 64


def _pvnc_for(user: str) -> Pvnc:
    # ``allow_physical_reuse=True`` is the user's consent to
    # provider-operated boxes — the flag that makes these chain
    # elements shareable (first-fit mode gains nothing from it: the
    # topology has no physical box for either service).
    return Pvnc(
        user=user,
        name="e19",
        modules=(
            ModuleSpec.make("malware_detector", allow_physical_reuse=True),
            ModuleSpec.make("tracker_blocker", allow_physical_reuse=True),
        ),
        class_rules=(
            ClassRule("default", ("malware_detector", "tracker_blocker")),
        ),
    )


def _ap_for(seed: int, user: int) -> str:
    return f"ap{derive_seed(seed, f'device:{user}') % N_APS}"


def _rate_for(seed: int, user: int, base_rate: float) -> float:
    """Deterministic per-user offered load: base +/- 25% jitter."""
    jitter = derive_seed(seed, f"rate:{user}") % 1000 / 1000.0
    return base_rate * (0.75 + 0.5 * jitter)


def _build_world():
    topo = build_access_network(
        AccessNetworkSpec(n_aps=N_APS, n_nfv_hosts=N_HOSTS)
    )
    hosts = {
        n: NfvHost(n, HostCapacity(memory_bytes=HOST_MEMORY, cpu_cores=64.0))
        for n in topo.nodes_of_kind("nfv")
    }
    return topo, hosts


def _deploy_population(manager, users: int, seed: int):
    """Deploy one PVN per user; returns (user -> deployment_id, nacks)."""
    env = UserEnvironment()
    placed: dict[int, str] = {}
    nacks = 0
    for user in range(users):
        pvnc = _pvnc_for(f"u{user}")
        request = DeploymentRequest(
            device_id=f"u{user}:mac", offer_id=1, pvnc=pvnc,
            accepted_services=pvnc.used_services(), payment=10.0,
        )
        ack = manager.deploy(request, env, _ap_for(seed, user), now=0.0)
        if isinstance(ack, DeploymentAck):
            placed[user] = ack.deployment_id
        else:
            nacks += 1
    return placed, nacks


def _chain_latency(manager, optimizer, deployment_id: str) -> float:
    """One round trip: embedding RTT + 2x each shared hop's contention."""
    deployment = manager.deployment(deployment_id)
    latency = deployment.embedding.expected_rtt
    if optimizer is not None:
        for instance in optimizer.pool.memberships(deployment_id):
            latency += 2.0 * optimizer.model.contention_delay(instance.load)
    return latency


def _violations(manager, optimizer, placed: dict[int, str],
                slo: float) -> int:
    return sum(
        1 for deployment_id in placed.values()
        if _chain_latency(manager, optimizer, deployment_id) > slo
    )


def _current_ids(manager, placed: dict[int, str]) -> dict[int, str]:
    """Follow migrations: map each user to their *surviving* PVN."""
    by_user = {
        d.user: d.deployment_id
        for d in manager.deployments.values()
        if d.state.value == "active"
    }
    return {
        user: by_user.get(f"u{user}", deployment_id)
        for user, deployment_id in placed.items()
    }


def run(
    seed: int = 0,
    sweep: tuple[tuple[int, float], ...] = ((60, 6.0), (180, 8.0),
                                            (300, 10.0)),
    flash_crowd_users: int = 32,
    autoscale_ticks: int = 12,
) -> ExperimentResult:
    flash_factor = 6.0
    model = CostModel()
    rows = []
    metrics: dict[str, float] = {}
    dominated = 0

    for users, base_rate in sweep:
        # -- first-fit: dedicated containers, greedy placement ------------
        topo_ff, hosts_ff = _build_world()
        manager_ff = DeploymentManager(provider="isp-ff", topo=topo_ff,
                                       hosts=hosts_ff, compile_cache=None)
        placed_ff, nacks_ff = _deploy_population(manager_ff, users, seed)
        slo_ff = nacks_ff + _violations(manager_ff, None, placed_ff,
                                        SLO_LATENCY)
        cost_ff = model.world_cost(topo_ff, hosts_ff)

        # -- optimized: shared instances + autoscaler ---------------------
        topo_opt, hosts_opt = _build_world()
        optimizer = PlacementOptimizer(
            topo_opt, hosts_opt, model=model,
            pool=SharedMiddleboxPool(max_members=MAX_MEMBERS),
        )
        manager_opt = DeploymentManager(provider="isp-opt", topo=topo_opt,
                                        hosts=hosts_opt, compile_cache=None,
                                        optimizer=optimizer)
        autoscaler = Autoscaler(manager_opt, optimizer,
                                AutoscalePolicy(max_migrations_per_tick=16))
        placed_opt, nacks_opt = _deploy_population(manager_opt, users, seed)
        for user, deployment_id in placed_opt.items():
            optimizer.report_load(
                deployment_id, _rate_for(seed, user, base_rate)
            )

        # Flash crowd: a fixed prefix of users multiplies its traffic,
        # driving their shared instances over the high watermark.
        for user in list(placed_opt)[:flash_crowd_users]:
            optimizer.report_load(
                placed_opt[user],
                flash_factor * _rate_for(seed, user, base_rate),
            )
        before = _violations(manager_opt, optimizer,
                             _current_ids(manager_opt, placed_opt),
                             SLO_LATENCY)
        for tick in range(autoscale_ticks):
            if not autoscaler.tick(float(tick + 1)):
                break
        current = _current_ids(manager_opt, placed_opt)
        slo_opt = nacks_opt + _violations(manager_opt, optimizer, current,
                                          SLO_LATENCY)
        cost_opt = model.world_cost(topo_opt, hosts_opt)

        total = float(users)
        dominates = (cost_opt < cost_ff and slo_opt <= slo_ff
                     and (slo_opt < slo_ff or cost_opt < cost_ff))
        dominated += int(dominates)
        rows.append((
            users,
            f"{base_rate:g}",
            f"{100 * slo_ff / total:.1f}%",
            f"{100 * slo_opt / total:.1f}%",
            f"{cost_ff:.1f}",
            f"{cost_opt:.1f}",
            optimizer.pool.stats()["instances"],
            autoscaler.migrations,
            "yes" if dominates else "no",
        ))
        metrics[f"slo_violation_rate_ff_at_{users}"] = slo_ff / total
        metrics[f"slo_violation_rate_opt_at_{users}"] = slo_opt / total
        metrics[f"slo_violations_opt_preautoscale_at_{users}"] = float(
            nacks_opt + before
        )
        metrics[f"cost_ff_at_{users}"] = cost_ff
        metrics[f"cost_opt_at_{users}"] = cost_opt
        metrics[f"nacks_ff_at_{users}"] = float(nacks_ff)
        metrics[f"nacks_opt_at_{users}"] = float(nacks_opt)
        metrics[f"shared_instances_at_{users}"] = float(
            optimizer.pool.stats()["instances"]
        )
        metrics[f"autoscale_migrations_at_{users}"] = float(
            autoscaler.migrations
        )
    metrics["dominated_points"] = float(dominated)

    return ExperimentResult(
        experiment_id="E19",
        title="§3.3 orchestration: offered load vs SLO violations and cost",
        columns=["users", "rate/user", "SLO viol (first-fit)",
                 "SLO viol (optimized)", "cost (first-fit)",
                 "cost (optimized)", "shared instances",
                 "autoscale migrations", "dominates"],
        rows=rows,
        metrics=metrics,
        notes=[
            "first-fit gives every user dedicated containers: cost grows "
            "linearly and deploys NACK once hosts fill (each NACK counts "
            "as an SLO violation — the user got nothing)",
            "optimized placement packs users onto shared instances "
            "(multi-objective cost model) and the autoscaler splits hot "
            "instances make-before-break when the flash crowd pushes "
            "utilization past the high watermark",
            f"SLO: one chain round trip (embedding RTT + 2x per shared "
            f"hop contention delay) under {SLO_LATENCY * 1000:g} ms",
            "all quantities are deterministic in the seed; no wall-clock "
            "numbers appear",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
