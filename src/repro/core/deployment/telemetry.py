"""The closed loop's sensor: measured datapath rates into the optimizer.

Until this module, every autoscaling experiment fed
:meth:`PlacementOptimizer.report_load` rates the *experiment script*
knew (ROADMAP item 3 called this out).  :class:`TelemetryFeed` closes
the loop: once per simulator tick it samples each ACTIVE deployment's
``datapath.packets_total`` tap (the plain ``int`` the hot path already
increments — sampling costs nothing per packet), converts the delta to
a rate, and reports it.  The control plane now reacts to what the
datapath actually carried, not to what the script promised.

Determinism notes:

* Rates are pure arithmetic over monotone counters on the simulated
  clock — a run that processes the same packets produces byte-identical
  rates, which is what lets E22 assert digest parity between
  telemetry-fed and experiment-fed autoscaling.
* Marks for deployments that disappear (migrated away, torn down) are
  pruned, so a superseded deployment can never pin stale load onto an
  instance; the migration coordinator already hands the member's rate
  to the surviving deployment id at commit.
* Optional EWMA smoothing (``alpha`` < 1) damps bursty workloads;  the
  default ``alpha=1.0`` reports raw deltas so measured == reported
  exactly.

Switch-level taps can be watched too (:meth:`watch_switch`); those
publish gauges for operators rather than feeding the optimizer, since
instance load is attributed per deployment, not per switch.

Fluid-model sources (:meth:`watch_fluid`) are the third tap kind: the
hybrid population engine (``repro.netsim.fluid``) exposes per-cell
*rates* directly — the fluid model's state variable is a rate, not a
packet counter — so those are reported as-is (no delta-over-interval
conversion) through the same EWMA/report_load path.  This is what lets
the placement optimizer steer off aggregate load at population scale
where no per-packet counter exists to difference.
"""

from __future__ import annotations

from repro.core.deployment.manager import DeploymentManager, DeploymentState
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry

#: Gauge: the measured per-deployment rate last reported to the optimizer.
RATE_GAUGE = "repro_telemetry_deployment_rate"
#: Gauge: the measured per-switch receive rate (operator visibility).
SWITCH_RATE_GAUGE = "repro_telemetry_switch_rate"
#: Gauge: the fluid-model per-deployment rate (packets/s, direct).
FLUID_RATE_GAUGE = "repro_telemetry_fluid_rate"
#: Counter: feed evaluations.
TICKS_COUNTER = "repro_telemetry_ticks"


class TelemetryFeed:
    """Per-tick fold of live datapath counters into ``report_load``."""

    def __init__(self, manager: DeploymentManager, optimizer=None,
                 interval: float = 1.0, alpha: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.manager = manager
        self.optimizer = (optimizer if optimizer is not None
                          else getattr(manager, "optimizer", None))
        self.interval = interval
        self.alpha = alpha
        self._marks: dict[str, int] = {}
        self._rates: dict[str, float] = {}
        self._switches: dict[str, object] = {}
        self._switch_marks: dict[str, int] = {}
        self._fluid: dict[str, tuple[object, int]] = {}
        self._local_metrics = MetricsRegistry()
        self.ticks = 0

    def _registry(self) -> MetricsRegistry:
        obs = obs_runtime.current()
        return obs.metrics if obs is not None else self._local_metrics

    def watch_switch(self, name: str, switch) -> None:
        """Track any object with a ``packets_total`` tap under ``name``."""
        self._switches[name] = switch

    def watch_fluid(self, deployment_id: str, engine, cell: int) -> None:
        """Attribute a hybrid-engine cell's fluid rate to a deployment.

        ``engine`` is anything with a ``cell_rate_pps(cell)`` tap (the
        :class:`~repro.netsim.fluid.HybridPopulationEngine`).  Unlike
        datapath and switch taps, the value is already a rate — the
        fluid model's state — so :meth:`tick` reports it directly
        (EWMA-smoothed like the counter path when ``alpha`` < 1).
        """
        self._fluid[deployment_id] = (engine, cell)

    def unwatch_fluid(self, deployment_id: str) -> None:
        """Stop attributing a cell's fluid rate (idempotent)."""
        self._fluid.pop(deployment_id, None)
        self._rates.pop(deployment_id, None)

    # -- the sensor --------------------------------------------------------

    def tick(self) -> dict[str, float]:
        """Sample every ACTIVE deployment and report measured rates.

        Returns ``{deployment_id: rate}`` for this tick.
        """
        self.ticks += 1
        registry = self._registry()
        rate_gauge = registry.gauge(
            RATE_GAUGE, "Measured per-deployment datapath rate",
            ("deployment",))
        rates: dict[str, float] = {}
        live: set[str] = set()
        for deployment_id, deployment in sorted(
                self.manager.deployments.items()):
            if deployment.state is not DeploymentState.ACTIVE:
                continue
            live.add(deployment_id)
            total = deployment.datapath.packets_total
            delta = total - self._marks.get(deployment_id, 0)
            self._marks[deployment_id] = total
            rate = self._smooth(deployment_id, delta / self.interval)
            rates[deployment_id] = rate
            rate_gauge.labels(deployment=deployment_id).set(rate)
            if self.optimizer is not None:
                self.optimizer.report_load(deployment_id, rate)
        # Prune marks for deployments that migrated away or tore down —
        # their load follows the surviving deployment id.
        for stale in set(self._marks) - live:
            del self._marks[stale]
            self._rates.pop(stale, None)
        self._sample_fluid(registry, rates)
        self._sample_switches(registry)
        registry.counter(
            TICKS_COUNTER, "Telemetry feed evaluations").inc()
        return rates

    def _smooth(self, deployment_id: str, raw: float) -> float:
        """EWMA fold of one raw sample into the per-deployment rate."""
        if self.alpha < 1.0 and deployment_id in self._rates:
            rate = (self.alpha * raw
                    + (1.0 - self.alpha) * self._rates[deployment_id])
        else:
            rate = raw
        self._rates[deployment_id] = rate
        return rate

    def _sample_fluid(self, registry: MetricsRegistry,
                      rates: dict[str, float]) -> None:
        if not self._fluid:
            return
        gauge = registry.gauge(
            FLUID_RATE_GAUGE,
            "Fluid-model per-deployment rate (packets/s)",
            ("deployment",))
        for deployment_id, (engine, cell) in sorted(self._fluid.items()):
            # Already a rate (the fluid model's state variable), not a
            # counter: no delta-over-interval conversion.
            rate = self._smooth(deployment_id, engine.cell_rate_pps(cell))
            rates[deployment_id] = rate
            gauge.labels(deployment=deployment_id).set(rate)
            if self.optimizer is not None:
                self.optimizer.report_load(deployment_id, rate)

    def _sample_switches(self, registry: MetricsRegistry) -> None:
        if not self._switches:
            return
        gauge = registry.gauge(
            SWITCH_RATE_GAUGE, "Measured per-switch receive rate",
            ("switch",))
        for name, switch in sorted(self._switches.items()):
            total = switch.packets_total
            delta = total - self._switch_marks.get(name, 0)
            self._switch_marks[name] = total
            gauge.labels(switch=name).set(delta / self.interval)

    def rate(self, deployment_id: str) -> float:
        """The last rate reported for a deployment (0.0 if never seen)."""
        return self._rates.get(deployment_id, 0.0)
