"""Orchestration as optimization: multi-objective placement, middlebox
sharing, and load-driven autoscaling.

The paper's economics only close if a provider can pack many users'
chains onto shared infrastructure cheaply while honoring per-user
policy (§3.3).  First-fit placement (:func:`repro.nfv.placement
.place_chain`) gets *a* feasible embedding; this module makes placement
an explicit optimization problem in the style of Bari et al., *On
Orchestrating Virtual Network Functions in NFV*:

* **Cost model** (:class:`CostModel`) — one objective with three terms:

  - *operational*: per-host resource cost of every container placed
    (hosts may carry a ``cost_rate`` topology attribute; wide-area
    sites are typically dearer),
  - *latency*: the one-way latency of the waypointed device->gateway
    path (the knob behind the user's latency SLO),
  - *energy/consolidation*: a fixed charge per host the plan powers
    on, so packing prefers already-active hosts.

* **Middlebox sharing as a packing decision** — a chain element whose
  PVNC allows provider-operated boxes (``allow_physical_reuse``) may
  *join* an existing shared container of the same service instead of
  launching its own.  Shared instances live in a
  :class:`SharedMiddleboxPool`, are capped at ``max_members`` users
  (the isolation constraint), and hold one container's reservation on
  their :class:`~repro.nfv.hypervisor.NfvHost` via the ordinary
  residual-capacity counters.

* **An online heuristic** (:class:`PlacementOptimizer`) — greedy
  best-candidate selection in chain order with depth-first
  backtracking on capacity dead-ends (so it finds a feasible plan
  whenever one exists in the candidate space) followed by bounded
  single-element improvement passes.

* **A reference solver** (:func:`reference_solve`) — exhaustive branch
  and bound over the same candidate space, usable on small (<=
  ``max_hosts``-host) topologies.  It is the correctness oracle: the
  differential suite asserts the heuristic is feasible whenever the
  reference is, and lands within :data:`HEURISTIC_COST_BOUND` of the
  optimal objective.

* **A load-driven autoscaler** (:class:`Autoscaler`) — watches
  per-instance load gauges published through :mod:`repro.obs`, spawns
  new shared instances when utilization crosses the high watermark,
  drains and retires cold ones, and rebalances members make-before-
  break by driving full PR-2 migration transactions
  (:class:`~repro.core.deployment.migration.MigrationCoordinator`), so
  every rebalance inherits the epoch-fence and rollback guarantees.

Everything here is **opt-in**: a :class:`~repro.core.deployment
.manager.DeploymentManager` without an ``optimizer`` behaves byte-for-
byte like the first-fit seed (pinned by the E18 digest regression
test).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools

from repro.errors import EmbeddingError, ReproError
from repro.netsim.topology import PhysicalTopology
from repro.nfv.container import Container, ContainerSpec, ContainerState
from repro.nfv.hypervisor import NfvHost
from repro.nfv.middlebox import Middlebox
from repro.nfv.placement import (
    PlacementDecision,
    PlacementPlan,
    PlacementRequest,
    _physical_box_for,
)
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.sdn.routing import path_stretch, waypointed_path

#: Multiplicative optimality bound the online heuristic is held to by
#: the differential suite: ``heuristic_cost <= HEURISTIC_COST_BOUND *
#: reference_cost`` on every instance the reference solver can close.
#: The backtracking-greedy + improvement-pass construction lands well
#: inside this on the test distribution (see the gap histogram the
#: suite logs); the bound is the regression fence, not the expectation.
HEURISTIC_COST_BOUND = 1.5

#: Gauge family the pool publishes per-instance load through; the
#: autoscaler reads the same family back (via :mod:`repro.obs` when
#: enabled, else the optimizer's private registry).
LOAD_GAUGE = "repro_orchestrator_instance_load"
MEMBER_GAUGE = "repro_orchestrator_instance_members"


# -- the cost model ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CostWeights:
    """Relative weights of the objective's terms.

    Defaults are tuned so the terms are commensurate on the canonical
    access networks: a fresh container ~0.25, powering on an idle host
    0.5, and each millisecond of one-way path latency 0.04.
    """

    operational: float = 2.0      # per resource unit placed
    latency: float = 40.0         # per second of one-way chain latency
    energy: float = 0.5           # per host the plan newly powers on
    balance: float = 0.2          # per unit utilization of a joined instance
    share_join_fraction: float = 0.15   # marginal cost of one more member


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Evaluates the multi-objective placement cost.

    The same model scores the online heuristic, the reference solver,
    and the E19 sweep, so "optimal" means one thing everywhere.
    """

    weights: CostWeights = CostWeights()
    #: Load units (e.g. packets/s) one shared instance absorbs before
    #: its contention delay diverges; the autoscaler's utilization
    #: denominator.
    instance_capacity: float = 1000.0
    #: Base service time the contention model scales (seconds).
    contention_base: float = 0.002

    def host_rate(self, topo: PhysicalTopology, node: str) -> float:
        """Operational cost multiplier of one host (topology attribute
        ``cost_rate``; wide-area sites default 4x)."""
        if not topo.has_node(node):
            return 1.0
        default = 4.0 if topo.node_attr(node, "wide_area") else 1.0
        return float(topo.node_attr(node, "cost_rate", default))

    def resource_units(self, request: PlacementRequest) -> float:
        """Normalize one request's footprint (100 MB ~ 1.6 cores ~ 1)."""
        return request.memory_bytes / 1e8 + request.cpu_share / 1.6

    def fresh_cost(self, topo: PhysicalTopology, node: str,
                   request: PlacementRequest) -> float:
        return (self.weights.operational * self.host_rate(topo, node)
                * self.resource_units(request))

    def join_cost(self, topo: PhysicalTopology, node: str,
                  request: PlacementRequest, load: float) -> float:
        """Marginal cost of one more member on an existing instance:
        a fraction of the dedicated cost plus a load-balancing term
        that steers joins toward cold instances."""
        return (self.weights.share_join_fraction
                * self.fresh_cost(topo, node, request)
                + self.weights.balance * load / self.instance_capacity)

    def latency_cost(self, latency: float) -> float:
        return self.weights.latency * latency

    def utilization(self, load: float) -> float:
        return load / self.instance_capacity

    def contention_delay(self, load: float) -> float:
        """Deterministic M/M/1-shaped queueing penalty of one instance
        at ``load`` (seconds, one way); saturates at rho = 0.98."""
        rho = min(self.utilization(load), 0.98)
        return self.contention_base * rho / (1.0 - rho)

    def world_cost(self, topo: PhysicalTopology,
                   hosts: dict[str, NfvHost]) -> float:
        """Operational + energy cost of the world as deployed (the E19
        "provider bill"): every live container reservation, on every
        powered host, at its host rate."""
        total = 0.0
        for name, host in sorted(hosts.items()):
            if host.container_count <= 0:
                continue
            rate = self.host_rate(topo, name)
            units = (host.memory_in_use / 1e8 + host.cpu_in_use / 1.6)
            total += self.weights.operational * rate * units
            total += self.weights.energy
        return total


# -- the shared-middlebox pool -----------------------------------------------


class InstanceState(enum.Enum):
    ACTIVE = "active"
    DRAINING = "draining"    # excluded from joins; autoscaler empties it
    RETIRED = "retired"


@dataclasses.dataclass
class SharedInstance:
    """One provider-operated shared middlebox container."""

    instance_id: str
    service: str
    node: str
    container: Container | None = None
    state: InstanceState = InstanceState.ACTIVE
    members: dict[str, float] = dataclasses.field(default_factory=dict)
    created_at: float = 0.0

    @property
    def load(self) -> float:
        return sum(self.members.values())

    @property
    def member_count(self) -> int:
        return len(self.members)


class SharedMiddleboxPool:
    """All shared instances one provider operates.

    Membership is keyed by deployment id, so make-before-break
    rebalancing works naturally: the migration target joins while the
    source is still a member, and the source's membership is released
    only at COMMIT (or the target's at ABORT).
    """

    def __init__(self, max_members: int = 16) -> None:
        if max_members < 1:
            raise EmbeddingError("shared instances need max_members >= 1")
        self.max_members = max_members
        self.instances: dict[str, SharedInstance] = {}
        self._counter = itertools.count(1)
        self.spawns = 0
        self.retires = 0

    def joinable(self, service: str) -> list[SharedInstance]:
        """ACTIVE instances of ``service`` with member headroom, in a
        deterministic order."""
        return [
            inst for _, inst in sorted(self.instances.items())
            if inst.service == service
            and inst.state is InstanceState.ACTIVE
            and inst.member_count < self.max_members
        ]

    def of_service(self, service: str) -> list[SharedInstance]:
        return [
            inst for _, inst in sorted(self.instances.items())
            if inst.service == service
            and inst.state is not InstanceState.RETIRED
        ]

    def spawn(self, service: str, node: str, hosts: dict[str, NfvHost],
              spec: ContainerSpec, sim=None, now: float = 0.0
              ) -> SharedInstance:
        """Launch a new shared container on ``node`` and register it."""
        instance_id = f"shared/{service}#{next(self._counter)}"
        container = Container(Middlebox(service), spec=spec,
                              owner=instance_id)
        host = hosts.get(node)
        if host is not None:
            host.launch(container, sim=sim, now=now)
        else:
            container.start_immediately(now)
        instance = SharedInstance(instance_id, service, node,
                                  container=container, created_at=now)
        self.instances[instance_id] = instance
        self.spawns += 1
        return instance

    def join(self, instance_id: str, deployment_id: str) -> SharedInstance:
        instance = self.instances.get(instance_id)
        if instance is None or instance.state is not InstanceState.ACTIVE:
            raise EmbeddingError(
                f"shared instance {instance_id!r} is not joinable"
            )
        if (deployment_id not in instance.members
                and instance.member_count >= self.max_members):
            raise EmbeddingError(
                f"shared instance {instance_id} is full "
                f"({instance.member_count}/{self.max_members} members)"
            )
        instance.members.setdefault(deployment_id, 0.0)
        return instance

    def release(self, deployment_id: str) -> int:
        """Drop ``deployment_id``'s membership everywhere (idempotent)."""
        dropped = 0
        for instance in self.instances.values():
            if deployment_id in instance.members:
                del instance.members[deployment_id]
                dropped += 1
        return dropped

    def memberships(self, deployment_id: str) -> list[SharedInstance]:
        return [
            inst for _, inst in sorted(self.instances.items())
            if deployment_id in inst.members
        ]

    def retire(self, instance_id: str, hosts: dict[str, NfvHost]) -> bool:
        """Stop an empty instance's container and free its reservation."""
        instance = self.instances.get(instance_id)
        if instance is None or instance.state is InstanceState.RETIRED:
            return False
        if instance.members:
            raise EmbeddingError(
                f"cannot retire {instance_id}: "
                f"{instance.member_count} members still attached"
            )
        if instance.container is not None:
            host = hosts.get(instance.node)
            if host is not None:
                host.terminate(instance.container.container_id)
            elif instance.container.state is not ContainerState.STOPPED:
                instance.container.stop()
        instance.state = InstanceState.RETIRED
        self.retires += 1
        return True

    def fail_node(self, node: str) -> list[str]:
        """A host died: retire every instance on ``node`` in place.

        Unlike :meth:`retire` this takes no care of the container (it
        crashed with the host) and does not require emptiness — the
        members lost their instance, which is precisely the point.
        Returns the sorted deployment ids that were members of any
        failed instance, so the reconciler knows who to re-place; the
        optimizer will never re-join a retired instance
        (:meth:`joinable` filters on ACTIVE).
        """
        affected: set[str] = set()
        for _, instance in sorted(self.instances.items()):
            if instance.node != node:
                continue
            if instance.state is InstanceState.RETIRED:
                continue
            affected.update(instance.members)
            instance.members.clear()
            instance.state = InstanceState.RETIRED
            self.retires += 1
        return sorted(affected)

    def stats(self) -> dict[str, int]:
        active = [i for i in self.instances.values()
                  if i.state is not InstanceState.RETIRED]
        return {
            "instances": len(active),
            "members": sum(i.member_count for i in active),
            "spawns": self.spawns,
            "retires": self.retires,
        }


# -- candidates (shared by the heuristic and the reference solver) -----------


@dataclasses.dataclass(frozen=True)
class _Candidate:
    """One way to realise one chain element."""

    kind: str                 # "physical" | "join" | "fresh"
    node: str
    instance_id: str = ""     # set for kind == "join"
    load: float = 0.0         # joined instance's current load

    def decision(self, service: str) -> PlacementDecision:
        if self.kind == "physical":
            return PlacementDecision(service, self.node,
                                     reused_physical=True)
        if self.kind == "join":
            return PlacementDecision(service, self.node,
                                     reused_physical=False,
                                     shared=True, instance=self.instance_id)
        return PlacementDecision(service, self.node, reused_physical=False,
                                 shared=self.kind == "fresh_shared")


class _Residuals:
    """Tentative capacity charges while a plan is being searched."""

    def __init__(self, hosts: dict[str, NfvHost]) -> None:
        self.hosts = hosts
        self.memory: dict[str, int] = {}
        self.cpu: dict[str, float] = {}

    def fits(self, node: str, request: PlacementRequest) -> bool:
        host = self.hosts.get(node)
        if host is None or not host.alive:
            return False
        return (
            host.memory_in_use + self.memory.get(node, 0)
            + request.memory_bytes <= host.capacity.memory_bytes
            and host.cpu_in_use + self.cpu.get(node, 0.0)
            + request.cpu_share <= host.capacity.cpu_cores
        )

    def charge(self, node: str, request: PlacementRequest) -> None:
        self.memory[node] = (self.memory.get(node, 0)
                             + request.memory_bytes)
        self.cpu[node] = self.cpu.get(node, 0.0) + request.cpu_share

    # Backtracking must restore the exact prior floats: reversing a
    # charge arithmetically (+x then -x) leaves ~1e-17 cpu residue that
    # makes a later boundary-exact fit (sum == capacity) read as over.
    def snapshot(self, node: str) -> tuple[int, float]:
        return (self.memory.get(node, 0), self.cpu.get(node, 0.0))

    def restore(self, node: str, saved: tuple[int, float]) -> None:
        self.memory[node], self.cpu[node] = saved


def _sharing_allowed(request: PlacementRequest) -> bool:
    """A PVNC that tolerates the provider's physical middleboxes also
    tolerates a provider-operated shared container (same trust
    boundary: the box is outside the user's sandbox)."""
    return request.allow_physical_reuse


class _PlacementProblem:
    """One chain-placement instance: candidate space + objective.

    The heuristic and the reference solver are both defined over this
    object, so "the same candidate space" is true by construction.
    """

    def __init__(
        self,
        topo: PhysicalTopology,
        hosts: dict[str, NfvHost],
        requests: tuple[PlacementRequest, ...],
        src: str,
        dst: str,
        model: CostModel,
        pool: SharedMiddleboxPool | None,
        prefer_reuse: bool = True,
    ) -> None:
        self.topo = topo
        self.hosts = hosts
        self.requests = tuple(requests)
        self.src = src
        self.dst = dst
        self.model = model
        self.pool = pool
        self.prefer_reuse = prefer_reuse
        self.nfv_nodes = [
            node for node in topo.nodes_of_kind("nfv") if node in hosts
        ]
        # Hosts already powered before this plan (energy baseline).
        self.active_hosts = frozenset(
            name for name, host in hosts.items() if host.container_count > 0
        )

    def candidates(self, request: PlacementRequest,
                   residuals: _Residuals,
                   powered: frozenset[str]) -> list[_Candidate]:
        """Every way to realise ``request`` given tentative charges."""
        found: list[_Candidate] = []
        if self.prefer_reuse and request.allow_physical_reuse:
            physical = _physical_box_for(self.topo, request.service)
            if physical is not None:
                found.append(_Candidate("physical", physical))
        sharing = self.pool is not None and _sharing_allowed(request)
        if sharing:
            for instance in self.pool.joinable(request.service):
                host = self.hosts.get(instance.node)
                if host is None or not host.alive:
                    continue
                found.append(_Candidate("join", instance.node,
                                        instance.instance_id,
                                        load=instance.load))
        for node in self.nfv_nodes:
            if residuals.fits(node, request):
                found.append(_Candidate(
                    "fresh_shared" if sharing else "fresh", node))
        return found

    # -- objective ---------------------------------------------------------

    def pick_cost(self, request: PlacementRequest, candidate: _Candidate,
                  powered: frozenset[str]) -> tuple[float, frozenset[str]]:
        """Non-latency cost of one pick, and the updated powered set."""
        if candidate.kind == "physical":
            return 0.0, powered
        if candidate.kind == "join":
            return (self.model.join_cost(self.topo, candidate.node, request,
                                         candidate.load), powered)
        cost = self.model.fresh_cost(self.topo, candidate.node, request)
        if candidate.node not in powered:
            cost += self.model.weights.energy
            powered = powered | {candidate.node}
        return cost, powered

    def latency(self, waypoints: list[str]) -> float:
        return self.topo.path_latency(
            waypointed_path(self.topo, self.src, self.dst, waypoints)
        )

    def total_cost(self, picks: list[_Candidate]) -> float:
        powered = self.active_hosts
        cost = 0.0
        for request, candidate in zip(self.requests, picks):
            pick, powered = self.pick_cost(request, candidate, powered)
            cost += pick
        cost += self.model.latency_cost(
            self.latency([c.node for c in picks])
        )
        return cost

    def feasible(self, picks: list[_Candidate]) -> bool:
        residuals = _Residuals(self.hosts)
        joins: dict[str, int] = {}
        for request, candidate in zip(self.requests, picks):
            if candidate.kind in ("fresh", "fresh_shared"):
                if not residuals.fits(candidate.node, request):
                    return False
                residuals.charge(candidate.node, request)
            elif candidate.kind == "join":
                joins[candidate.instance_id] = (
                    joins.get(candidate.instance_id, 0) + 1
                )
        if self.pool is not None:
            for instance_id, extra in joins.items():
                instance = self.pool.instances.get(instance_id)
                if (instance is None
                        or instance.state is not InstanceState.ACTIVE
                        or instance.member_count + extra
                        > self.pool.max_members):
                    return False
        return True

    def plan(self, picks: list[_Candidate]) -> PlacementPlan:
        decisions = tuple(
            candidate.decision(request.service)
            for request, candidate in zip(self.requests, picks)
        )
        waypoints = [d.node for d in decisions]
        path = waypointed_path(self.topo, self.src, self.dst, waypoints)
        stretch = (path_stretch(self.topo, self.src, self.dst, waypoints)
                   if waypoints else 1.0)
        return PlacementPlan(decisions=decisions, path=tuple(path),
                             stretch=stretch)


# -- the reference solver ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReferenceSolution:
    """The exhaustive solver's answer for one instance."""

    plan: PlacementPlan
    cost: float


def reference_solve(
    topo: PhysicalTopology,
    hosts: dict[str, NfvHost],
    requests: list[PlacementRequest] | tuple[PlacementRequest, ...],
    src: str,
    dst: str,
    model: CostModel | None = None,
    pool: SharedMiddleboxPool | None = None,
    prefer_reuse: bool = True,
    max_hosts: int = 6,
    max_nodes: int = 250_000,
) -> ReferenceSolution | None:
    """Branch-and-bound optimal placement, or None when infeasible.

    The oracle for the differential suite: exhaustive over the exact
    candidate space the online heuristic searches, pruned by the
    running best (every objective term is non-negative and the latency
    of a waypointed prefix is monotone in its extensions, so the
    partial cost is a valid lower bound).  Guarded to ``max_hosts``
    NFV hosts and ``max_nodes`` search nodes — this is a correctness
    tool for small topologies, not a production path.
    """
    model = model or CostModel()
    problem = _PlacementProblem(topo, hosts, tuple(requests), src, dst,
                                model, pool, prefer_reuse=prefer_reuse)
    if len(problem.nfv_nodes) > max_hosts:
        raise EmbeddingError(
            f"reference_solve is exhaustive; {len(problem.nfv_nodes)} NFV "
            f"hosts exceeds the max_hosts={max_hosts} guard"
        )
    best_cost = float("inf")
    best_picks: list[_Candidate] | None = None
    explored = 0

    def lower_bound(picks: list[_Candidate], spent: float) -> float:
        # Latency through the chosen prefix straight to the gateway
        # can only grow when more waypoints are appended (shortest-path
        # metrics obey the triangle inequality).
        return spent + model.latency_cost(
            problem.latency([c.node for c in picks])
        )

    def dfs(index: int, picks: list[_Candidate], spent: float,
            powered: frozenset[str], residuals: _Residuals,
            joins: dict[str, int]) -> None:
        nonlocal best_cost, best_picks, explored
        explored += 1
        if explored > max_nodes:
            raise EmbeddingError(
                f"reference_solve exceeded max_nodes={max_nodes}; "
                "shrink the instance"
            )
        if lower_bound(picks, spent) >= best_cost:
            return
        if index == len(problem.requests):
            cost = problem.total_cost(picks)
            if cost < best_cost:
                best_cost = cost
                best_picks = list(picks)
            return
        request = problem.requests[index]
        for candidate in problem.candidates(request, residuals, powered):
            if candidate.kind == "join":
                instance = pool.instances[candidate.instance_id]
                extra = joins.get(candidate.instance_id, 0)
                if instance.member_count + extra >= pool.max_members:
                    continue
                joins[candidate.instance_id] = extra + 1
                pick, new_powered = problem.pick_cost(request, candidate,
                                                      powered)
                picks.append(candidate)
                dfs(index + 1, picks, spent + pick, new_powered,
                    residuals, joins)
                picks.pop()
                joins[candidate.instance_id] = extra
            else:
                pick, new_powered = problem.pick_cost(request, candidate,
                                                      powered)
                if candidate.kind != "physical":
                    saved = residuals.snapshot(candidate.node)
                    residuals.charge(candidate.node, request)
                picks.append(candidate)
                dfs(index + 1, picks, spent + pick, new_powered,
                    residuals, joins)
                picks.pop()
                if candidate.kind != "physical":
                    residuals.restore(candidate.node, saved)

    dfs(0, [], 0.0, problem.active_hosts, _Residuals(hosts), {})
    if best_picks is None:
        return None
    return ReferenceSolution(plan=problem.plan(best_picks),
                             cost=best_cost)


# -- the online optimizer ----------------------------------------------------


class PlacementOptimizer:
    """Multi-objective online placement with middlebox sharing.

    ``place`` is pure (no pool or host mutation); the deployment
    manager calls :meth:`commit_plan` only once the install succeeds,
    and :meth:`release` on teardown/supersession, so aborted installs
    and rolled-back migrations leave no membership residue.
    """

    #: Improvement sweeps after the greedy construction.  Two passes
    #: close almost all of the greedy/optimal gap on small instances
    #: while keeping the online cost at O(passes * elements * candidates).
    improvement_passes = 2

    def __init__(
        self,
        topo: PhysicalTopology,
        hosts: dict[str, NfvHost],
        model: CostModel | None = None,
        pool: SharedMiddleboxPool | None = None,
        container_spec: ContainerSpec | None = None,
    ) -> None:
        self.topo = topo
        self.hosts = hosts
        self.model = model or CostModel()
        self.pool = pool or SharedMiddleboxPool()
        self.container_spec = container_spec or ContainerSpec()
        self._local_metrics = MetricsRegistry()

    # -- placement ---------------------------------------------------------

    def place(
        self,
        requests: tuple[PlacementRequest, ...],
        src: str,
        dst: str,
        prefer_reuse: bool = True,
    ) -> PlacementPlan:
        """One chain placement minimising the multi-objective cost.

        Greedy in chain order with DFS backtracking on capacity dead
        ends — the search visits candidates in marginal-cost order and
        returns the first feasible completion, so it finds a plan
        whenever :func:`reference_solve` does — then up to
        ``improvement_passes`` single-element improvement sweeps.
        Raises :class:`~repro.errors.EmbeddingError` when no feasible
        plan exists.
        """
        problem = _PlacementProblem(
            self.topo, self.hosts, tuple(requests), src, dst,
            self.model, self.pool, prefer_reuse=prefer_reuse,
        )
        picks = self._greedy(problem)
        if picks is None:
            raise EmbeddingError(
                "no feasible placement for chain "
                + ",".join(r.service for r in requests)
            )
        picks = self._improve(problem, picks)
        return problem.plan(picks)

    def _greedy(self, problem: _PlacementProblem
                ) -> list[_Candidate] | None:
        """First feasible completion in greedy marginal-cost order."""
        requests = problem.requests

        def extend(index: int, picks: list[_Candidate], spent: float,
                   powered: frozenset[str], residuals: _Residuals,
                   joins: dict[str, int]) -> list[_Candidate] | None:
            if index == len(requests):
                return list(picks)
            request = requests[index]
            scored = []
            for candidate in problem.candidates(request, residuals, powered):
                if candidate.kind == "join":
                    instance = problem.pool.instances[candidate.instance_id]
                    if (instance.member_count
                            + joins.get(candidate.instance_id, 0)
                            >= problem.pool.max_members):
                        continue
                pick, new_powered = problem.pick_cost(request, candidate,
                                                      powered)
                marginal = spent + pick + problem.model.latency_cost(
                    problem.latency([c.node for c in picks]
                                    + [candidate.node])
                )
                scored.append((marginal, candidate.kind, candidate.node,
                               candidate.instance_id, candidate, pick,
                               new_powered))
            for _, _, _, _, candidate, pick, new_powered in sorted(
                    scored, key=lambda item: item[:4]):
                if candidate.kind in ("fresh", "fresh_shared"):
                    saved = residuals.snapshot(candidate.node)
                    residuals.charge(candidate.node, request)
                if candidate.kind == "join":
                    joins[candidate.instance_id] = (
                        joins.get(candidate.instance_id, 0) + 1)
                picks.append(candidate)
                done = extend(index + 1, picks, spent + pick, new_powered,
                              residuals, joins)
                if done is not None:
                    return done
                picks.pop()
                if candidate.kind in ("fresh", "fresh_shared"):
                    residuals.restore(candidate.node, saved)
                if candidate.kind == "join":
                    joins[candidate.instance_id] -= 1
            return None

        return extend(0, [], 0.0, problem.active_hosts,
                      _Residuals(problem.hosts), {})

    def _improve(self, problem: _PlacementProblem,
                 picks: list[_Candidate]) -> list[_Candidate]:
        """Single-element improvement sweeps (strict descent only)."""
        best_cost = problem.total_cost(picks)
        for _ in range(self.improvement_passes):
            improved = False
            for index, request in enumerate(problem.requests):
                residuals = _Residuals(problem.hosts)
                for other_index, other in enumerate(picks):
                    if (other_index != index
                            and other.kind in ("fresh", "fresh_shared")):
                        residuals.charge(other.node,
                                         problem.requests[other_index])
                current = picks[index]
                for candidate in problem.candidates(request, residuals,
                                                    problem.active_hosts):
                    if candidate == current:
                        continue
                    trial = list(picks)
                    trial[index] = candidate
                    if not problem.feasible(trial):
                        continue
                    cost = problem.total_cost(trial)
                    if cost < best_cost - 1e-12:
                        picks, best_cost, improved = trial, cost, True
            if not improved:
                break
        return picks

    def plan_cost(
        self,
        requests: tuple[PlacementRequest, ...],
        src: str,
        dst: str,
        plan: PlacementPlan,
    ) -> float:
        """Evaluate an existing plan under the current objective (the
        number the differential suite compares against
        :func:`reference_solve`)."""
        problem = _PlacementProblem(
            self.topo, self.hosts, tuple(requests), src, dst,
            self.model, self.pool,
        )
        picks = []
        for decision in plan.decisions:
            if decision.reused_physical:
                picks.append(_Candidate("physical", decision.node))
            elif decision.shared and decision.instance:
                instance = self.pool.instances.get(decision.instance)
                picks.append(_Candidate(
                    "join", decision.node, decision.instance,
                    load=instance.load if instance is not None else 0.0,
                ))
            elif decision.shared:
                picks.append(_Candidate("fresh_shared", decision.node))
            else:
                picks.append(_Candidate("fresh", decision.node))
        return problem.total_cost(picks)

    # -- memoization support ------------------------------------------------

    def share_snapshot(
        self, requests: tuple[PlacementRequest, ...]
    ) -> tuple:
        """Everything :meth:`place` reads beyond topology + host
        feasibility: which instances each service could join (and at
        what load, which the balance term prices), and which hosts are
        currently powered (the energy term's baseline).  An
        :class:`~repro.core.deployment.embedding.EmbeddingIndex` must
        include this in its validation snapshot — a memo hit that
        ignored the sharing state could return a stale "join" plan
        that violates a later request's isolation cap (regression
        test: ``tests/core/test_orchestrator.py``)."""
        services = sorted({
            r.service for r in requests if _sharing_allowed(r)
        })
        return (
            tuple(
                (service, tuple(
                    (inst.instance_id, inst.member_count, inst.load)
                    for inst in self.pool.joinable(service)
                ))
                for service in services
            ),
            frozenset(
                name for name, host in self.hosts.items()
                if host.container_count > 0
            ),
        )

    # -- world mutation (install/teardown/migration hooks) ------------------

    def commit_plan(self, deployment_id: str, plan: PlacementPlan,
                    sim=None, now: float = 0.0) -> dict[str, str]:
        """Apply a plan's sharing decisions: join existing instances,
        spawn new shared containers for ``shared`` decisions that
        targeted no instance.  Returns service -> instance id."""
        joined: dict[str, str] = {}
        for decision in plan.decisions:
            if not decision.shared:
                continue
            if decision.instance:
                instance = self.pool.join(decision.instance, deployment_id)
            else:
                instance = self.pool.spawn(
                    decision.service, decision.node, self.hosts,
                    self.container_spec, sim=sim, now=now,
                )
                self.pool.join(instance.instance_id, deployment_id)
            joined[decision.service] = instance.instance_id
        if joined:
            self.publish_loads()
        return joined

    def release(self, deployment_id: str) -> int:
        """Forget a deployment's memberships (teardown/supersession)."""
        dropped = self.pool.release(deployment_id)
        if dropped:
            self.publish_loads()
        return dropped

    # -- load telemetry ------------------------------------------------------

    def _registry(self) -> MetricsRegistry:
        obs = obs_runtime.current()
        return obs.metrics if obs is not None else self._local_metrics

    def report_load(self, deployment_id: str, rate: float) -> None:
        """Attribute ``rate`` load units to every instance the
        deployment shares (the per-member contribution the autoscaler
        aggregates)."""
        for instance in self.pool.memberships(deployment_id):
            instance.members[deployment_id] = rate
        self.publish_loads()

    def publish_loads(self) -> None:
        """Fold per-instance load/membership into the metrics registry
        (:mod:`repro.obs` when enabled, else a private registry the
        autoscaler reads)."""
        registry = self._registry()
        load = registry.gauge(LOAD_GAUGE, "Shared-instance load units",
                              ("service", "instance"))
        members = registry.gauge(MEMBER_GAUGE, "Shared-instance members",
                                 ("service", "instance"))
        for instance_id, instance in sorted(self.pool.instances.items()):
            if instance.state is InstanceState.RETIRED:
                continue
            load.labels(service=instance.service,
                        instance=instance_id).set(instance.load)
            members.labels(service=instance.service,
                           instance=instance_id).set(instance.member_count)

    def instance_load(self, instance: SharedInstance) -> float:
        """One instance's load as the metrics registry last saw it —
        the autoscaler's view goes through :mod:`repro.obs`, not the
        pool's internal state."""
        return self._registry().value(
            LOAD_GAUGE, service=instance.service,
            instance=instance.instance_id,
        )


# -- the autoscaler ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AutoscalePolicy:
    """Watermarks and budgets for load-driven horizontal scaling."""

    high_watermark: float = 0.8    # utilization that triggers scale-up
    low_watermark: float = 0.2     # utilization that triggers drain
    target_utilization: float = 0.6
    max_instances_per_service: int = 16
    max_migrations_per_tick: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark < self.target_utilization \
                < self.high_watermark <= 1.0:
            raise EmbeddingError(
                "autoscale watermarks must satisfy 0 < low < target "
                "< high <= 1"
            )


@dataclasses.dataclass(frozen=True)
class AutoscaleEvent:
    """One autoscaler action, for the audit trail and E19's table."""

    now: float
    service: str
    action: str        # scale_up | drain | retire | rebalance
    instance: str
    detail: str = ""


class Autoscaler:
    """Load-driven horizontal scaling of shared middlebox instances.

    State machine per instance::

        ACTIVE --(util < low, members fit elsewhere)--> DRAINING
        DRAINING --(last member migrated off)--> RETIRED
        ACTIVE --(util > high, service under instance cap)--> ACTIVE
                 \\-> a sibling instance is spawned and members are
                     rebalanced onto it make-before-break

    Rebalancing is never a bare membership swap: each moved member is
    a full :class:`~repro.core.deployment.migration.MigrationCoordinator`
    transaction (PREPARE/TRANSFER/COMMIT-or-ABORT), so the epoch
    fence, the WAL journal, and the bridge-tunnel window all apply.
    An aborted migration leaves the member exactly where it was.
    """

    def __init__(
        self,
        manager,                           # DeploymentManager (duck-typed)
        optimizer: PlacementOptimizer,
        policy: AutoscalePolicy | None = None,
    ) -> None:
        self.manager = manager
        self.optimizer = optimizer
        self.policy = policy or AutoscalePolicy()
        self.events: list[AutoscaleEvent] = []
        self.migrations = 0
        self.failed_migrations = 0

    # -- helpers -----------------------------------------------------------

    def _utilization(self, instance: SharedInstance) -> float:
        return self.optimizer.model.utilization(
            self.optimizer.instance_load(instance)
        )

    def _coordinator(self):
        from repro.core.deployment.migration import ensure_coordinator

        return ensure_coordinator(self.manager)

    def _emit(self, now: float, service: str, action: str, instance: str,
              detail: str = "") -> None:
        self.events.append(
            AutoscaleEvent(now, service, action, instance, detail)
        )
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.counter(
                "repro_autoscale_actions",
                "Autoscaler actions by kind",
                ("service", "action"),
            ).labels(service=service, action=action).inc()

    def _spawn_node(self, service: str) -> str | None:
        """The cheapest feasible host for a new shared instance."""
        request = PlacementRequest(
            service=service,
            memory_bytes=self.optimizer.container_spec.memory_bytes,
            cpu_share=self.optimizer.container_spec.cpu_share,
        )
        residuals = _Residuals(self.optimizer.hosts)
        best: tuple[float, str] | None = None
        for node in sorted(self.optimizer.hosts):
            if not self.optimizer.topo.has_node(node):
                continue
            if self.optimizer.topo.kind_of(node) != "nfv":
                continue
            if not residuals.fits(node, request):
                continue
            cost = self.optimizer.model.fresh_cost(
                self.optimizer.topo, node, request
            )
            host = self.optimizer.hosts[node]
            if host.container_count == 0:
                cost += self.optimizer.model.weights.energy
            if best is None or (cost, node) < best:
                best = (cost, node)
        return best[1] if best else None

    def _migrate_member(self, deployment_id: str, rate: float,
                        now: float) -> str | None:
        """Re-place one member's whole chain make-before-break; with
        the optimizer active the re-embedding lands on the coldest
        joinable instance.  Returns the surviving deployment id on
        COMMIT (the member's load rate follows it), None on ABORT."""
        try:
            deployment = self.manager.deployment(deployment_id)
        except ReproError:
            return None
        result = self._coordinator().migrate(
            deployment_id, deployment.embedding.device_node, now,
        )
        if result.committed:
            self.migrations += 1
            self.optimizer.report_load(result.deployment_id, rate)
            return result.deployment_id
        self.failed_migrations += 1
        return None

    # -- the control loop --------------------------------------------------

    def tick(self, now: float) -> list[AutoscaleEvent]:
        """One autoscaling pass; returns the actions taken."""
        before = len(self.events)
        budget = self.policy.max_migrations_per_tick
        services = sorted({
            inst.service for inst in self.optimizer.pool.instances.values()
            if inst.state is not InstanceState.RETIRED
        })
        for service in services:
            budget = self._scale_service(service, now, budget)
        self._retire_empty(now)
        return self.events[before:]

    def _scale_service(self, service: str, now: float, budget: int) -> int:
        pool = self.optimizer.pool
        active = [i for i in pool.of_service(service)
                  if i.state is InstanceState.ACTIVE]
        if not active:
            return budget
        hot = [i for i in active
               if self._utilization(i) > self.policy.high_watermark]
        if hot and len(active) < self.policy.max_instances_per_service:
            node = self._spawn_node(service)
            if node is not None:
                instance = pool.spawn(
                    service, node, self.optimizer.hosts,
                    self.optimizer.container_spec,
                    sim=getattr(self.manager, "sim", None), now=now,
                )
                self._emit(now, service, "scale_up", instance.instance_id,
                           f"on {node}; {len(hot)} hot instance(s)")
                self.optimizer.publish_loads()
        # Rebalance the hottest instances down toward the target.
        for instance in sorted(
                hot, key=lambda i: (-self._utilization(i), i.instance_id)):
            budget = self._rebalance(instance, now, budget)
        # Drain cold instances whose members fit in the others' headroom.
        if len(active) > 1:
            cold = sorted(
                (i for i in active
                 if self._utilization(i) < self.policy.low_watermark
                 and i.state is InstanceState.ACTIVE),
                key=lambda i: (self._utilization(i), i.instance_id),
            )
            for instance in cold[:1]:    # at most one drain per tick
                headroom = sum(
                    pool.max_members - other.member_count
                    for other in pool.joinable(service)
                    if other.instance_id != instance.instance_id
                )
                if headroom < instance.member_count:
                    continue
                instance.state = InstanceState.DRAINING
                self._emit(now, service, "drain", instance.instance_id,
                           f"{instance.member_count} member(s) to move")
                budget = self._drain(instance, now, budget)
        return budget

    def _rebalance(self, instance: SharedInstance, now: float,
                   budget: int) -> int:
        """Move members off a hot instance until it cools to target."""
        model = self.optimizer.model
        target_load = self.policy.target_utilization * model.instance_capacity
        # Heaviest members first: fewest migrations to cool down.
        members = sorted(instance.members.items(),
                         key=lambda item: (-item[1], item[0]))
        for deployment_id, rate in members:
            if budget <= 0 or instance.load <= target_load:
                break
            # "Somewhere better to go" must exclude this instance: a
            # hot instance at max_members isn't joinable itself, but
            # its members still need an exit.
            if not any(
                other.instance_id != instance.instance_id
                for other in self.optimizer.pool.joinable(instance.service)
            ):
                break
            budget -= 1
            moved_to = self._migrate_member(deployment_id, rate, now)
            if moved_to is not None:
                self._emit(now, instance.service, "rebalance",
                           instance.instance_id,
                           f"moved {deployment_id} -> {moved_to} "
                           f"({rate:g} load units)")
        return budget

    def _drain(self, instance: SharedInstance, now: float,
               budget: int) -> int:
        for deployment_id, rate in sorted(instance.members.items()):
            if budget <= 0:
                break
            budget -= 1
            self._migrate_member(deployment_id, rate, now)
        return budget

    def _retire_empty(self, now: float) -> None:
        for instance_id, instance in sorted(
                self.optimizer.pool.instances.items()):
            if (instance.state is InstanceState.DRAINING
                    and not instance.members):
                self.optimizer.pool.retire(instance_id,
                                           self.optimizer.hosts)
                self._emit(now, instance.service, "retire", instance_id)
        self.optimizer.publish_loads()
