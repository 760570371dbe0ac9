"""Hybrid fluid/packet engine: fairness math, policy accounting, and
the load-bearing parity property.

The property that licenses the fluid abstraction (ROADMAP item 1):
over *any* seeded churn, the fluid engine and the per-packet engine
must produce byte-identical policy ledgers — same sha256 digest over
the sorted records — and identical flow completion times.  Both modes
share the same packet-quantized per-tick progress arithmetic, so the
completion agreement is exact, not approximate; the asserted tolerance
(one tick) is the documented contract, the measured gap is 0.0.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import runtime as obs
from repro.errors import ConfigurationError
from repro.experiments.exp23_population import measure_mode
from repro.netsim import Simulator
from repro.netsim.fluid import (
    MODE_FLUID,
    MODE_PACKET,
    NO_LEAK,
    FlowBatch,
    HybridFlow,
    HybridPopulationEngine,
    PolicyLedger,
    waterfill,
)
from repro.obs.metrics import MetricsRegistry
from repro.workloads.population import PopulationSpec, PopulationWorkload

TICK = 0.1


def make_engine(n_devices=8, n_cells=2, capacity=1e6, mode=MODE_FLUID,
                **kwargs):
    return HybridPopulationEngine(
        Simulator(), n_devices, n_cells, capacity, tick=TICK,
        mode=mode, **kwargs)


def attach_all(engine, cell=0):
    devices = np.arange(engine.n_devices)
    engine.attach_many(devices, np.full_like(devices, cell))


def open_flow(engine, spec):
    """Admit one flow as a batch of one; its slot, or None if refused."""
    slots = engine.admit(FlowBatch.of([spec]))
    return int(slots[0]) if slots.size else None


# -- max-min fairness ---------------------------------------------------------


def max_min_fair_share(caps, capacity):
    """Exact max-min rates for one link by progressive filling: flows
    capped below the fair share keep their cap, the rest split what is
    left evenly.  The reference :func:`waterfill` is checked against."""
    n = len(caps)
    order = sorted(range(n), key=lambda i: (caps[i], i))
    rates = [0.0] * n
    remaining = float(capacity)
    for left, index in zip(range(n, 0, -1), order):
        rates[index] = min(caps[index], remaining / left)
        remaining -= rates[index]
    return rates


class TestWaterfill:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_exact_reference_per_cell(self, data):
        n_cells = data.draw(st.integers(1, 4))
        n_flows = data.draw(st.integers(0, 24))
        caps = data.draw(st.lists(
            st.floats(1e3, 1e7), min_size=n_flows, max_size=n_flows))
        cells = data.draw(st.lists(
            st.integers(0, n_cells - 1),
            min_size=n_flows, max_size=n_flows))
        capacities = data.draw(st.lists(
            st.floats(1e4, 1e8), min_size=n_cells, max_size=n_cells))
        fair = waterfill(
            np.asarray(caps), np.asarray(cells, dtype=np.int64),
            np.asarray(capacities), iters=64)
        rates = (np.minimum(caps, fair[np.asarray(cells, dtype=np.int64)])
                 if n_flows else np.zeros(0))
        for cell in range(n_cells):
            members = [i for i in range(n_flows) if cells[i] == cell]
            reference = max_min_fair_share(
                [caps[i] for i in members], capacities[cell])
            for i, expected in zip(members, reference):
                assert rates[i] == pytest.approx(expected, rel=1e-6)

    def test_capped_flows_keep_caps_and_slack_redistributes(self):
        # One slow flow (cap 100) and two fast ones on a 1000-capacity
        # cell: the slow flow keeps its cap, the rest split the slack.
        caps = np.array([100.0, 1e6, 1e6])
        cells = np.zeros(3, dtype=np.int64)
        fair = waterfill(caps, cells, np.array([1000.0]))
        rates = np.minimum(caps, fair[cells])
        assert rates[0] == pytest.approx(100.0)
        assert rates[1] == pytest.approx(450.0)
        assert rates[2] == pytest.approx(450.0)

    def test_empty_cells_get_infinite_level(self):
        fair = waterfill(np.zeros(0), np.zeros(0, dtype=np.int64),
                         np.array([1e6, 1e6]))
        assert np.isinf(fair).all()


# -- policy ledger ------------------------------------------------------------


class TestPolicyLedger:
    def test_digest_is_order_independent(self):
        a, b = PolicyLedger(), PolicyLedger()
        a.record("flow_open", 1, 0, 10, 2)
        a.record("pii", 1, 0, 3, "email", 0, 1, 1)
        b.record("pii", 1, 0, 3, "email", 0, 1, 1)
        b.record("flow_open", 1, 0, 10, 2)
        assert a.digest() == b.digest()
        assert a.counts == b.counts

    def test_distinct_records_distinct_digests(self):
        a, b = PolicyLedger(), PolicyLedger()
        a.record("flow_open", 1, 0, 10, 2)
        b.record("flow_open", 1, 0, 11, 2)
        assert a.digest() != b.digest()

    def test_count_only_ledger_counts_but_cannot_digest(self):
        ledger = PolicyLedger(keep_records=False)
        ledger.record("audit", 3, 0, 1)
        ledger.bump("attach", 5)
        assert ledger.count("audit") == 1
        assert ledger.count("attach") == 5
        assert ledger.records is None
        with pytest.raises(ValueError):
            ledger.digest()

    def test_bump_of_zero_mints_no_key_and_negative_is_refused(self):
        ledger = PolicyLedger(keep_records=False)
        ledger.bump("tls", 0)
        assert ledger.counts == {}
        ledger.bump("tls", 2)
        ledger.bump("tls", 0)
        assert ledger.counts == {"tls": 2}
        with pytest.raises(ValueError):
            ledger.bump("tls", -1)
        assert ledger.counts == {"tls": 2}

    @settings(max_examples=50, deadline=None)
    @given(ticks=st.lists(st.lists(st.booleans(), max_size=6), max_size=8))
    def test_batch_driven_counts_equal_flow_by_flow_counts(self, ticks):
        # Each inner list is one tick's flows (True = HTTPS); ticks
        # with no flow, or no HTTPS flow, must leave no zero-valued key.
        batched = PolicyLedger(keep_records=False)
        scalar = PolicyLedger(keep_records=False)
        for flows in ticks:
            batched.bump("flow_open", len(flows))
            batched.bump("tls", sum(flows))
            for https in flows:
                scalar.record("flow_open", 0, 0, 1, 0)
                if https:
                    scalar.record("tls", 0, 0)
        assert batched.counts == scalar.counts
        assert list(batched.counts) == list(scalar.counts)


# -- engine unit behavior -----------------------------------------------------


def flow(device=0, seq=0, n_packets=4, cap_bps=1e6, **kwargs):
    return HybridFlow(device=device, seq=seq, n_packets=n_packets,
                      cap_bps=cap_bps, **kwargs)


class TestFlowBatch:
    def test_of_round_trips_flows_and_their_columns(self):
        flows = [flow(device=2, seq=1, https=True, dst_device=5),
                 flow(device=0, seq=4, n_packets=9, cap_bps=32e3,
                      leak_packets=(3,), leak_types=("email",))]
        batch = FlowBatch.of(flows)
        assert len(batch) == 2
        assert list(batch) == flows
        assert batch.device.tolist() == [2, 0]
        assert batch.seq.tolist() == [1, 4]
        assert batch.n_packets.tolist() == [4, 9]
        assert batch.cap_bps.tolist() == [1e6, 32e3]
        assert batch.https.tolist() == [True, False]
        assert batch.leaky.tolist() == [False, True]
        assert batch.dst_device.tolist() == [5, -1]


class TestEngineLifecycle:
    def test_flow_refused_for_detached_device(self):
        engine = make_engine()
        assert open_flow(engine, flow(device=3)) is None
        assert engine.ledger.count("flow_refused") == 1

    def test_batch_with_a_detached_device_refuses_only_that_flow(self):
        engine = make_engine()
        engine.attach_many(np.array([1, 2]), np.array([0, 1]))
        slots = engine.admit(FlowBatch.of([
            flow(device=1), flow(device=5, seq=3), flow(device=2)]))
        assert len(slots) == len(engine.flows) == 2
        assert engine.ledger.records.count(("flow_refused", 5, 3)) == 1
        assert engine.counters()["flows_opened"] == 2
        assert engine.flows.col("device")[slots].tolist() == [1, 2]

    def test_object_kept_only_for_flows_something_reads_it_from(self):
        plain = flow(device=0, seq=0)
        leaky = flow(device=1, seq=0, leak_packets=(2,),
                     leak_types=("email",))
        for kwargs, keeps_plain in (({}, False),
                                    ({"mode": MODE_PACKET}, True),
                                    ({"punt_hook": lambda p: None}, True)):
            engine = make_engine(**kwargs)
            attach_all(engine)
            a, b = engine.admit(FlowBatch.of([plain, leaky])).tolist()
            specs = engine.flows.col("spec")
            assert specs[b] == leaky
            assert specs[a] == (plain if keeps_plain else None)

    def test_detach_many_retires_all_aborted_flows_in_order(self):
        engine = make_engine()
        attach_all(engine)
        slots = engine.admit(FlowBatch.of(
            [flow(device=d, seq=s, n_packets=10**6)
             for d, s in ((3, 3), (1, 1), (3, 4))]))
        engine.detach_many([(3, 0), (6, 0), (1, 0), (3, 1)])
        assert len(engine.flows) == 0
        assert engine.flows._free[-3:] == sorted(
            slots[[0, 2]].tolist()) + [int(slots[1])]
        assert engine.counters()["flows_aborted"] == 3
        assert engine.ledger.count("detach") == 3
        assert engine.ledger.count("detach_noop") == 1

    def test_detach_aborts_live_flows_with_emitted_count(self):
        engine = make_engine()
        attach_all(engine)
        assert open_flow(engine, flow(device=2, n_packets=10**6)) is not None
        engine.detach_many([(2, 0)])
        assert len(engine.flows) == 0
        assert engine.ledger.count("flow_abort") == 1
        assert engine.counters()["flows_aborted"] == 1

    def test_migrate_moves_live_flows_between_cells(self):
        engine = make_engine(n_cells=3)
        attach_all(engine, cell=0)
        open_flow(engine, flow(device=1, n_packets=10**6))
        engine.migrate_many([(1, 2, 0)])
        assert engine.cell_count[0] == 0
        assert engine.cell_count[2] == 1
        assert engine.cell_dirty[0] and engine.cell_dirty[2]

    def test_tls_flow_records_handshake_and_counts_policy_packet(self):
        engine = make_engine()
        attach_all(engine)
        open_flow(engine, flow(device=0, https=True))
        assert engine.ledger.count("tls") == 1
        assert engine.counters()["policy_packets"] == 1

    def test_punt_hook_sees_first_packet_of_new_flow(self):
        punts = []
        engine = make_engine(punt_hook=punts.append)
        attach_all(engine)
        open_flow(engine, flow(device=4))
        assert len(punts) == 1
        assert punts[0].owner == "d4"

    def test_completion_produces_outbox_message_for_cross_flows(self):
        engine = make_engine(capacity=1e9)
        attach_all(engine)
        open_flow(engine, flow(device=0, seq=5, n_packets=3, dst_device=7,
                              leak_packets=(1,), leak_types=("email",)))
        engine.run(2.0)
        assert engine.outbox == [
            (7, ("xflow", 0, 7, 5, 3, 1))]

    def test_deliver_accounts_cross_shard_ingress(self):
        engine = make_engine()
        engine.deliver([("xflow", 0, 7, 5, 3, 1),
                        ("xflow", 2, 7, 1, 9, 0)])
        assert engine.ledger.count("xflow_in") == 2
        assert engine.ledger.count("xflow_pii") == 1

    def test_modes_and_parameters_validated(self):
        with pytest.raises(ValueError):
            make_engine(mode="quantum")
        with pytest.raises(ValueError):
            HybridPopulationEngine(Simulator(), 4, 1, 1e6, tick=0.0)
        with pytest.raises(ValueError):
            HybridPopulationEngine(Simulator(), 4, 1, -5.0)

    def test_migrate_many_moves_a_device_from_where_its_last_move_left_it(
            self):
        engine = make_engine(n_cells=3)
        attach_all(engine, cell=0)
        open_flow(engine, flow(device=1, n_packets=10**6))
        engine.migrate_many([(1, 2, 0), (5, 1, 0), (1, 1, 1)])
        assert engine.cell_count.tolist() == [0, 1, 0]
        assert engine.ledger.records[-3:] == [
            ("migrate", 1, 0, 0, 2), ("migrate", 5, 0, 0, 1),
            ("migrate", 1, 1, 2, 1)]

    def test_end_time_is_the_exact_last_boundary_float(self):
        # end_time must be the same float expression the sub-tick
        # events clamp to — (index + 1) * tick — or boundary events
        # strand behind a 1-ULP gap and digests diverge.
        engine = make_engine()
        engine.start(20.0)
        assert engine.end_time() == 200 * TICK

    def test_no_leak_sentinel_sorts_after_any_packet_index(self):
        assert NO_LEAK > 10**9


class TestInputBoundary:
    """Malformed population input raises ConfigurationError before
    anything changes; numpy never reads a negative device from the end
    of an array."""

    def engine(self):
        engine = make_engine()
        attach_all(engine)
        open_flow(engine, flow(device=2, seq=0, n_packets=10**6))
        return engine

    def unchanged(self, engine, call):
        before = (list(engine.ledger.records), engine.counters(),
                  engine._attached.tolist(), engine._device_cell.tolist(),
                  engine.cell_count.tolist(), engine._keys.tolist(),
                  engine._order.tolist(), list(engine.flows._free))
        with pytest.raises(ConfigurationError):
            call()
        assert before == (list(engine.ledger.records), engine.counters(),
                          engine._attached.tolist(),
                          engine._device_cell.tolist(),
                          engine.cell_count.tolist(), engine._keys.tolist(),
                          engine._order.tolist(), list(engine.flows._free))

    def test_open_flow_on_a_negative_device(self):
        engine = self.engine()
        self.unchanged(engine, lambda: open_flow(engine, flow(device=-1)))

    def test_admit_with_one_device_out_of_range(self):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.admit(FlowBatch.of(
            [flow(device=1), flow(device=8)])))

    @pytest.mark.parametrize("seq", [-1, 2 ** 32])
    def test_admit_with_a_seq_out_of_range(self, seq):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.admit(FlowBatch.of(
            [flow(device=1), flow(device=3, seq=seq)])))

    def test_admit_of_an_identity_already_live(self):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.admit(FlowBatch.of(
            [flow(device=1), flow(device=2, seq=0)])))

    def test_admit_of_an_identity_repeated_in_the_batch(self):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.admit(FlowBatch.of(
            [flow(device=4, seq=1), flow(device=1), flow(device=4, seq=1)])))

    def test_repeated_identity_on_a_detached_device(self):
        # Checked for the whole batch before any flow is refused.
        engine = self.engine()
        engine.detach_many([(5, 0)])
        self.unchanged(engine, lambda: engine.admit(FlowBatch.of(
            [flow(device=5, seq=1), flow(device=1), flow(device=5, seq=1)])))

    def test_attach_many_device_out_of_range(self):
        engine = make_engine()
        self.unchanged(engine, lambda: engine.attach_many(
            np.array([1, 8]), np.array([0, 0])))

    def test_attach_many_cell_out_of_range(self):
        engine = make_engine()
        self.unchanged(engine, lambda: engine.attach_many(
            np.array([2]), np.array([5])))
        self.unchanged(engine, lambda: engine.attach_many(
            np.array([2]), np.array([-1])))

    def test_detach_of_a_device_out_of_range(self):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.detach_many([(99, 0)]))
        self.unchanged(engine, lambda: engine.detach_many([(2, 0), (-1, 0)]))

    def test_migrate_many_device_out_of_range(self):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.migrate_many(
            [(2, 1, 0), (8, 1, 0)]))

    def test_migrate_many_cell_out_of_range(self):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.migrate_many(
            [(2, 1, 0), (3, 2, 0)]))
        self.unchanged(engine, lambda: engine.migrate_many([(2, -1, 0)]))

    def test_audit_probe_of_a_device_out_of_range(self):
        engine = self.engine()
        self.unchanged(engine, lambda: engine.audit_probe(-1))

    def test_population_too_large_for_a_flow_identity(self):
        with pytest.raises(ConfigurationError):
            HybridPopulationEngine(Simulator(), 2 ** 31, 1, 1e6)

    def test_a_retired_identity_can_be_admitted_again(self):
        engine = self.engine()
        engine.detach_many([(2, 0)])
        engine.attach_many(np.array([2]), np.array([1]))
        assert open_flow(engine, flow(device=2, seq=0)) is not None


class TestPublish:
    def run_small(self):
        engine = run_mode(MODE_FLUID, churn_spec(devices=40), 3)
        engine.publish()
        return engine

    def test_folds_counters_and_table_occupancy_into_the_registry(self):
        with obs.enabled() as handle:
            engine = self.run_small()
            metrics = handle.metrics
            counters = engine.counters()
            assert counters["flows_opened"] > 0
            for event in ("ticks", "epochs", "flows_opened",
                          "flows_completed", "policy_packets"):
                assert metrics.value(
                    "repro_fluid_events", mode=MODE_FLUID,
                    event=event) == counters[event]
            table = engine.flows
            for name, expected in (
                    ("repro_fluid_active_flows", len(table)),
                    ("repro_fluid_table_high_water", table.high_water),
                    ("repro_fluid_table_capacity", table.capacity),
                    ("repro_fluid_table_grows", table.grows)):
                assert metrics.value(name, mode=MODE_FLUID) == expected
            assert table.high_water > 0
        # Occupancy went to the registry, not into the digested dict.
        assert "high_water" not in counters and "grows" not in counters

    def test_e23_publishes_each_measured_run(self):
        with obs.enabled() as handle:
            measured = measure_mode(churn_spec(devices=40), 3, MODE_FLUID)
            assert handle.metrics.value(
                "repro_fluid_events", mode=MODE_FLUID,
                event="ticks") == measured["counters"]["ticks"] > 0

    def test_observability_off_publishes_and_imports_nothing(
            self, monkeypatch):
        assert obs.current() is None
        touched = []
        for name in ("fold_totals", "gauge", "counter"):
            monkeypatch.setattr(
                MetricsRegistry, name,
                lambda *args, **kwargs: touched.append(args))
        modules = set(sys.modules)
        self.run_small()
        assert not touched
        assert set(sys.modules) == modules


class TestFluidCompletion:
    def test_uncontended_flow_completes_at_quantized_instant(self):
        # One 4-packet flow at 1 Mbps, MTU 1500: each tick carries
        # 100_000 bits = 8.33 packets, so the flow completes inside
        # the first tick at (4 * 1500 * 8) / 1e6 seconds.
        engine = make_engine(capacity=1e9)
        attach_all(engine)
        open_flow(engine, flow(device=0, seq=0, n_packets=4, cap_bps=1e6))
        engine.run(1.0)
        assert engine.counters()["flows_completed"] == 1
        assert engine.completion_times[(0, 0)] == pytest.approx(
            4 * 1500 * 8 / 1e6)

    def test_contended_flows_share_the_cell_fairly(self):
        # Two identical flows on a cell of exactly one flow's cap:
        # each gets half the rate, so completion takes twice as long.
        engine = make_engine(capacity=1e6)
        attach_all(engine)
        open_flow(engine, flow(device=0, seq=0, n_packets=40, cap_bps=1e6))
        open_flow(engine, flow(device=1, seq=0, n_packets=40, cap_bps=1e6))
        engine.run(4.0)
        lone = make_engine(capacity=1e6)
        attach_all(lone)
        open_flow(lone, flow(device=0, seq=0, n_packets=40, cap_bps=1e6))
        lone.run(4.0)
        assert engine.completion_times[(0, 0)] == pytest.approx(
            2 * lone.completion_times[(0, 0)], rel=0.1)


# -- the parity property (fluid == packet) ------------------------------------


def churn_spec(devices):
    return PopulationSpec(
        devices=devices, cells=4, horizon=4.0, attach_ramp=1.0,
        flows_per_device_s=0.4, detach_rate=0.03, migrate_rate=0.08,
        audit_rate=0.05, cross_fraction=0.15, leak_probability=0.35,
        https_fraction=0.5, third_party_fraction=0.4,
        device_rate_bps=2e6,
    )


def run_mode(mode, spec, seed):
    engine = HybridPopulationEngine(
        Simulator(), spec.devices, spec.cells, 3e6,
        device_rate_bps=spec.device_rate_bps, tick=TICK, mode=mode)
    engine.bind(PopulationWorkload(spec, seed=seed, tick=TICK))
    engine.run(spec.horizon)
    return engine


class TestFluidPacketParity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_digest_parity_and_completion_times_under_churn(self, seed):
        spec = churn_spec(devices=60)
        fluid = run_mode(MODE_FLUID, spec, seed)
        packet = run_mode(MODE_PACKET, spec, seed)

        # Exact digest parity: the fluid abstraction may drop packet
        # events, never policy-relevant accounting.
        assert fluid.ledger.digest() == packet.ledger.digest()
        assert fluid.ledger.counts == packet.ledger.counts

        # Completion parity: same flows completed, within the stated
        # one-tick tolerance (measured gap is exactly zero because
        # both modes share the quantized progress arithmetic).
        assert set(fluid.completion_times) == set(packet.completion_times)
        for key, t_fluid in fluid.completion_times.items():
            assert abs(t_fluid - packet.completion_times[key]) <= TICK
            assert t_fluid == packet.completion_times[key]

        # Cross-shard outboxes are part of the observable surface too;
        # intra-tick emission order may differ (slot order vs event
        # order) but the runner sorts inboxes, so the multiset is the
        # contract.
        assert sorted(fluid.outbox) == sorted(packet.outbox)

    def test_fluid_mode_skips_packet_events(self):
        spec = churn_spec(devices=40)
        fluid = run_mode(MODE_FLUID, spec, 7)
        packet = run_mode(MODE_PACKET, spec, 7)
        assert fluid.counters()["packet_events"] == 0
        assert packet.counters()["packet_events"] > 0
        # Same macroscopic outcome regardless.
        assert (fluid.counters()["flows_completed"]
                == packet.counters()["flows_completed"])
        assert fluid.counters()["packets_total"] == (
            packet.counters()["packets_total"])
