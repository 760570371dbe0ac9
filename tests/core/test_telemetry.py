"""TelemetryFeed: measured datapath rates into the placement optimizer."""

import types

import pytest

from repro.core.deployment.telemetry import (
    FLUID_RATE_GAUGE,
    RATE_GAUGE,
    SWITCH_RATE_GAUGE,
    TICKS_COUNTER,
    TelemetryFeed,
)
from repro.core.deployment.manager import DeploymentState


class _FakeDatapath:
    def __init__(self):
        self.packets_total = 0


class _FakeDeployment:
    def __init__(self, state=DeploymentState.ACTIVE):
        self.state = state
        self.datapath = _FakeDatapath()


class _FakeManager:
    def __init__(self, **deployments):
        self.deployments = dict(deployments)


class _FakeOptimizer:
    def __init__(self):
        self.reports = []

    def report_load(self, deployment_id, rate):
        self.reports.append((deployment_id, rate))


def _feed(**kwargs):
    manager = _FakeManager(**{
        name: _FakeDeployment() for name in ("u0/pvn1", "u1/pvn2")})
    optimizer = _FakeOptimizer()
    feed = TelemetryFeed(manager, optimizer, **kwargs)
    return manager, optimizer, feed


class TestRates:
    def test_delta_over_interval_is_exact(self):
        manager, optimizer, feed = _feed()
        manager.deployments["u0/pvn1"].datapath.packets_total = 12
        rates = feed.tick()
        assert rates == {"u0/pvn1": 12.0, "u1/pvn2": 0.0}
        manager.deployments["u0/pvn1"].datapath.packets_total = 30
        rates = feed.tick()
        assert rates["u0/pvn1"] == 18.0      # delta, not total
        assert feed.rate("u0/pvn1") == 18.0
        assert feed.rate("never-seen") == 0.0

    def test_interval_scales_rates(self):
        manager, _, feed = _feed(interval=0.5)
        manager.deployments["u0/pvn1"].datapath.packets_total = 10
        assert feed.tick()["u0/pvn1"] == 20.0

    def test_reports_rates_to_optimizer(self):
        manager, optimizer, feed = _feed()
        manager.deployments["u0/pvn1"].datapath.packets_total = 7
        feed.tick()
        # Sorted iteration: deterministic report order.
        assert optimizer.reports == [("u0/pvn1", 7.0), ("u1/pvn2", 0.0)]
        manager.deployments["u1/pvn2"].datapath.packets_total = 4
        feed.tick()
        assert optimizer.reports[2:] == [("u0/pvn1", 0.0), ("u1/pvn2", 4.0)]

    def test_ewma_smoothing_damps_bursts(self):
        manager, _, feed = _feed(alpha=0.5)
        dp = manager.deployments["u0/pvn1"].datapath
        dp.packets_total = 10
        assert feed.tick()["u0/pvn1"] == 10.0   # first sample: raw
        dp.packets_total = 30
        assert feed.tick()["u0/pvn1"] == 15.0   # 0.5*20 + 0.5*10

    def test_default_alpha_reports_raw_deltas(self):
        # measured == reported exactly is what makes E22's digest
        # parity possible; alpha defaults to no smoothing.
        assert TelemetryFeed(_FakeManager()).alpha == 1.0

    @pytest.mark.parametrize("kwargs", (dict(interval=0.0),
                                        dict(interval=-1.0),
                                        dict(alpha=0.0),
                                        dict(alpha=1.5)))
    def test_parameters_validated(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryFeed(_FakeManager(), **kwargs)


class TestLifecycle:
    def test_non_active_deployments_skipped(self):
        manager, optimizer, feed = _feed()
        manager.deployments["u1/pvn2"].state = DeploymentState.SUPERSEDED
        manager.deployments["u1/pvn2"].datapath.packets_total = 99
        rates = feed.tick()
        assert "u1/pvn2" not in rates
        assert all(r[0] != "u1/pvn2" for r in optimizer.reports)

    def test_marks_pruned_when_deployment_disappears(self):
        manager, _, feed = _feed()
        manager.deployments["u0/pvn1"].datapath.packets_total = 10
        feed.tick()
        del manager.deployments["u0/pvn1"]
        feed.tick()
        assert feed.rate("u0/pvn1") == 0.0
        assert "u0/pvn1" not in feed._marks

    def test_optimizer_defaults_to_managers(self):
        manager = _FakeManager()
        manager.optimizer = _FakeOptimizer()
        feed = TelemetryFeed(manager)
        assert feed.optimizer is manager.optimizer

    def test_no_optimizer_still_measures(self):
        manager = _FakeManager(d=_FakeDeployment())
        feed = TelemetryFeed(manager)          # no optimizer attr at all
        manager.deployments["d"].datapath.packets_total = 4
        assert feed.tick() == {"d": 4.0}


class TestMetricsPublication:
    def test_gauges_and_ticks_in_local_registry(self):
        manager, _, feed = _feed()
        manager.deployments["u0/pvn1"].datapath.packets_total = 5
        switch = types.SimpleNamespace(packets_total=8)
        feed.watch_switch("ingress", switch)
        feed.tick()
        registry = feed._local_metrics
        assert registry.value(RATE_GAUGE, deployment="u0/pvn1") == 5.0
        assert registry.value(SWITCH_RATE_GAUGE, switch="ingress") == 8.0
        assert registry.value(TICKS_COUNTER) == 1.0
        assert feed.ticks == 1

    def test_switch_rate_is_also_a_delta(self):
        manager, _, feed = _feed()
        switch = types.SimpleNamespace(packets_total=8)
        feed.watch_switch("ingress", switch)
        feed.tick()
        switch.packets_total = 11
        feed.tick()
        assert feed._local_metrics.value(
            SWITCH_RATE_GAUGE, switch="ingress") == 3.0


class _FakeFluidEngine:
    """Anything with a cell_rate_pps tap qualifies as a fluid source."""

    def __init__(self, rates):
        self.rates = dict(rates)

    def cell_rate_pps(self, cell):
        return self.rates[cell]


class TestFluidTaps:
    def test_fluid_rates_reported_directly(self):
        manager, optimizer, feed = _feed()
        engine = _FakeFluidEngine({0: 1500.0, 1: 250.0})
        feed.watch_fluid("pvn-cell-000", engine, 0)
        feed.watch_fluid("pvn-cell-001", engine, 1)
        rates = feed.tick()
        # Direct rates, no delta-over-interval conversion: the fluid
        # model's state variable is already packets/second.
        assert rates["pvn-cell-000"] == 1500.0
        assert rates["pvn-cell-001"] == 250.0
        assert ("pvn-cell-000", 1500.0) in optimizer.reports
        assert ("pvn-cell-001", 250.0) in optimizer.reports
        assert feed._local_metrics.value(
            FLUID_RATE_GAUGE, deployment="pvn-cell-000") == 1500.0

    def test_fluid_rate_not_divided_by_interval(self):
        manager, optimizer, feed = _feed(interval=0.5)
        feed.watch_fluid("cell", _FakeFluidEngine({3: 100.0}), 3)
        # A counter tap at interval 0.5 would double; a rate must not.
        assert feed.tick()["cell"] == 100.0

    def test_fluid_rates_ewma_smoothed_like_counters(self):
        manager, _, feed = _feed(alpha=0.5)
        engine = _FakeFluidEngine({0: 10.0})
        feed.watch_fluid("cell", engine, 0)
        assert feed.tick()["cell"] == 10.0     # first sample: raw
        engine.rates[0] = 30.0
        assert feed.tick()["cell"] == 20.0     # 0.5*30 + 0.5*10

    def test_unwatch_fluid_stops_reports_and_is_idempotent(self):
        manager, optimizer, feed = _feed()
        feed.watch_fluid("cell", _FakeFluidEngine({0: 5.0}), 0)
        feed.tick()
        feed.unwatch_fluid("cell")
        feed.unwatch_fluid("cell")
        rates = feed.tick()
        assert "cell" not in rates
        assert feed.rate("cell") == 0.0

    def test_fluid_and_counter_taps_coexist(self):
        manager, optimizer, feed = _feed()
        manager.deployments["u0/pvn1"].datapath.packets_total = 7
        feed.watch_fluid("pvn-cell-000", _FakeFluidEngine({0: 42.0}), 0)
        rates = feed.tick()
        assert rates["u0/pvn1"] == 7.0
        assert rates["pvn-cell-000"] == 42.0
        reported = {r[0] for r in optimizer.reports}
        assert {"u0/pvn1", "u1/pvn2", "pvn-cell-000"} <= reported

    def test_real_engine_feeds_report_load(self):
        """End to end: a HybridPopulationEngine cell drives the
        optimizer through watch_fluid (ROADMAP item 1's closing
        requirement)."""
        from repro.experiments.exp23_population import (
            build_population, _spec)

        engine = build_population(_spec(200, 4.0), seed=3,
                                  mode="fluid")
        engine.run(4.0)
        _, optimizer, feed = _feed()
        for cell in range(engine.n_cells):
            feed.watch_fluid(f"cell-{cell:03d}", engine, cell)
        rates = feed.tick()
        fluid_ids = [i for i in rates if i.startswith("cell-")]
        assert len(fluid_ids) == engine.n_cells
        reported = {r[0]: r[1] for r in optimizer.reports}
        for deployment_id in fluid_ids:
            assert reported[deployment_id] == rates[deployment_id]
        # The population keeps flows live through the horizon, so at
        # least one cell carries nonzero fluid load.
        assert sum(rates[i] for i in fluid_ids) > 0.0


class TestRealDatapathTaps:
    def test_packets_total_taps_exist(self):
        """The uniform tap the feed samples is present on all three
        datapath layers."""
        from repro.core.deployment.manager import PvnDataPath
        from repro.nfv.pipeline import Pipeline
        from repro.sdn.switch import SdnSwitch

        assert isinstance(getattr(PvnDataPath, "packets_total"), property)
        assert isinstance(getattr(SdnSwitch, "packets_total"), property)
        assert isinstance(getattr(Pipeline, "packets_total"), property)
