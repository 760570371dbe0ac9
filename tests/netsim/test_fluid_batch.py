"""Batched flow admission/retirement against the per-flow loop it replaced.

``HybridPopulationEngine`` admits a tick's flows with one
``allocate_many`` and retires a tick's finished or aborted flows with
one ``release_many``; it keeps the live flows in a sorted ``(device,
seq)`` index that the epoch step reads without sorting and that
resolves a device's flows as one slice.  :class:`PerFlowEngine` below
is what used to live in ``src/`` — one ``HybridFlow`` object, one
one-row allocation and one release per flow, a dict of slot
sets per device, and a ``lexsort`` of the dirty cells' flows every
epoch — kept here as the oracle.  Both are driven tick by tick over
the same compiled workload and must agree on everything a later tick,
a digest or a shard peer can observe: ledger records and counts,
counters, completion instants (``==``), outbox order, and the flow
table down to every rate bit, slot numbering, generations and the free
list.  After every tick the engine's index must also equal the sort it
replaced.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.workloads.population import (
    PopulationSpec,
    PopulationWorkload,
    TickBatch,
)

TICK = 0.1
CELL_CAPACITY_BPS = 3e6


class PerFlowEngine(HybridPopulationEngine):
    """The engine with flows opened and closed one object at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._device_flows = {}

    def _recompute(self):
        if not self.cell_dirty.any():
            return
        self.epochs += 1
        self.cells_recomputed += int(self.cell_dirty.sum())
        live = self.flows.live_slots()
        if live.size:
            cell_col = self.flows.col("cell")
            in_dirty = self.cell_dirty[cell_col[live]]
            if in_dirty.any():
                sub = live[in_dirty]
                order = np.lexsort((self.flows.col("seq")[sub],
                                    self.flows.col("device")[sub]))
                sub = sub[order]
                caps = self.flows.col("cap")[sub]
                cells = cell_col[sub]
                fair = waterfill(caps, cells, self.cell_capacity)
                self.flows.col("rate")[sub] = np.minimum(caps, fair[cells])
        self.cell_dirty[:] = False

    def migrate_many(self, migrates):
        for device, new_cell, k in migrates:
            self.migrate(device, new_cell, k)

    def detach_many(self, detaches):
        for device, k in detaches:
            self.detach(device, k)

    def migrate(self, device, new_cell, k=0):
        device, new_cell = int(device), int(new_cell)
        if not self._attached[device]:
            self.ledger.bump("migrate_skipped")
            return
        old_cell = int(self._device_cell[device])
        self._device_cell[device] = new_cell
        self.ledger.record("migrate", device, int(k), old_cell, new_cell)
        slots = self._device_flows.get(device, ())
        if slots and new_cell != old_cell:
            cell_col = self.flows.col("cell")
            for slot in slots:
                cell_col[slot] = new_cell
            self.cell_count[old_cell] -= len(slots)
            self.cell_count[new_cell] += len(slots)
        self.cell_dirty[old_cell] = True
        self.cell_dirty[new_cell] = True

    def _apply(self, batch):
        self.attach_many(batch.attach_devices, batch.attach_cells)
        for spec in batch.flows:
            self.open_flow(spec)
        for device, new_cell, k in batch.migrates:
            self.migrate(device, new_cell, k)
        for device, k in batch.probes:
            self.audit_probe(device, k)
        for device, k in batch.detaches:
            self.detach(device, k)

    def open_flow(self, spec):
        device = int(spec.device)
        if not self._attached[device]:
            self.ledger.record("flow_refused", device, spec.seq)
            return None
        cell = int(self._device_cell[device])
        slot = int(self.flows.allocate_many(
            1, rate=0.0, carry=0.0, cap=spec.cap_bps / 8.0,
            remaining=spec.n_packets, emitted=0,
            cell=cell, device=device, seq=spec.seq, dst=spec.dst_device,
            next_leak=spec.leak_packets[0] if spec.leak_packets else NO_LEAK,
            leak_pos=0, spec=[spec],
        )[0])
        self.cell_count[cell] += 1
        self.cell_dirty[cell] = True
        self._device_flows.setdefault(device, set()).add(slot)
        self.flows_opened += 1
        self.ledger.record("flow_open", device, spec.seq,
                           spec.n_packets, cell)
        if spec.https:
            self.ledger.record("tls", device, spec.seq)
            self.policy_packets += 1
            if self.punt_hook is not None:
                self.punt_hook(self._materialize(spec, 0, handshake=True))
        elif self.punt_hook is not None:
            self.punt_hook(self._materialize(spec, 0))
        return slot

    def detach(self, device, k=0):
        device = int(device)
        if not self._attached[device]:
            self.ledger.bump("detach_noop")
            return
        self._attached[device] = False
        self.ledger.record("detach", device, int(k))
        emitted = self.flows.col("emitted")
        for slot in sorted(self._device_flows.get(device, ())):
            spec = self.flows.col("spec")[slot]
            self.ledger.record("flow_abort", device, spec.seq,
                               int(emitted[slot]))
            self._close_flow(slot, spec, completed=False)

    def _complete_fluid(self, now, boundary, live, n, carry_b, r, finished):
        specs = self.flows.col("spec")
        for i in np.nonzero(finished)[0].tolist():
            slot = int(live[i])
            spec = specs[slot]
            self.ledger.record("flow_complete", spec.device, spec.seq,
                               spec.n_packets)
            if self.ledger.keep_records:
                instant = min(now + float(
                    (n[i] * self._mtu_f - carry_b[i]) / r[i]), boundary)
                self.completion_times[(spec.device, spec.seq)] = instant
            self._close_flow(slot, spec, completed=True)

    def _retire(self, slots, completed):
        # Packet mode's last-packet event closes its flow through this.
        specs = self.flows.col("spec")
        for slot in slots.tolist():
            self._close_flow(slot, specs[slot], completed)

    def _close_flow(self, slot, spec, completed):
        cell = int(self.flows.col("cell")[slot])
        self.cell_count[cell] -= 1
        self.cell_dirty[cell] = True
        flows = self._device_flows.get(spec.device)
        if flows is not None:
            flows.discard(slot)
            if not flows:
                del self._device_flows[spec.device]
        self.flows.release_many([slot])
        if completed:
            self.flows_completed += 1
            if spec.dst_device >= 0:
                self.outbox.append((spec.dst_device, (
                    "xflow", spec.device, spec.dst_device, spec.seq,
                    spec.n_packets, len(spec.leak_packets))))
        else:
            self.flows_aborted += 1


NUMERIC_COLUMNS = ("rate", "carry", "cap", "remaining", "emitted", "cell",
                   "device", "seq", "dst", "next_leak", "leak_pos")


def observable(engine):
    """Everything a later tick, a digest or a shard peer can see."""
    table = engine.flows
    live = table.live_slots()
    ledger = engine.ledger
    return {
        "counts": ledger.counts,
        "records": ledger.records,
        "digest": ledger.digest() if ledger.keep_records else None,
        "counters": engine.counters(),
        "completion_times": engine.completion_times,
        "outbox": engine.outbox,
        "live": live.tolist(),
        "free": list(table._free),
        "generation": table._generation.tolist(),
        "table": (table.capacity, table.high_water, table.grows),
        "columns": {name: table.col(name)[live].tolist()
                    for name in NUMERIC_COLUMNS},
        "cell_count": engine.cell_count.tolist(),
        "cell_dirty": engine.cell_dirty.tolist(),
        "attached": engine._attached.tolist(),
        "device_cell": engine._device_cell.tolist(),
        "events": engine.sim.processed_events,
        "bytes": engine.bytes_total,
    }


def assert_index_is_the_sort(engine):
    """The engine's flow index equals the ``lexsort`` it replaced."""
    live = engine.flows.live_slots()
    device = engine.flows.col("device")[live]
    seq = engine.flows.col("seq")[live]
    assert engine._order.tolist() == live[np.lexsort((seq, device))].tolist()
    keys = engine._keys
    assert (keys[1:] > keys[:-1]).all()
    assert keys.tolist() == ((engine.flows.col("device")[engine._order] << 32)
                             | engine.flows.col("seq")[engine._order]).tolist()


def wire(packet):
    """A punted packet's content (the id is a process-global counter)."""
    fields = dataclasses.asdict(packet)
    del fields["packet_id"]
    return fields


def assert_objects_are_the_oracles(engine, oracle):
    """Where the engine kept a flow's object it is the oracle's; it
    kept one wherever one is read (every leaky flow at least), and
    dead rows pin none."""
    kept, reference = engine.flows.col("spec"), oracle.flows.col("spec")
    next_leak = engine.flows.col("next_leak")
    alive = engine.flows._alive
    for slot in range(engine.flows.capacity):
        if not alive[slot]:
            assert kept[slot] is None
        elif kept[slot] is not None:
            assert kept[slot] == reference[slot]
        else:
            assert not reference[slot].leak_packets
            assert next_leak[slot] == NO_LEAK


def lockstep(spec, seed, mode=MODE_FLUID, keep_records=True, punt=False):
    """Run engine and oracle a tick at a time, comparing after each.

    Returns the oracle, the packets punted to its hook, and the set of
    situations the run went through.
    """
    punted = ([], [])
    pair = []
    for cls, sink in zip((HybridPopulationEngine, PerFlowEngine), punted):
        engine = cls(
            Simulator(), spec.devices, spec.cells, CELL_CAPACITY_BPS,
            device_rate_bps=spec.device_rate_bps, tick=TICK, mode=mode,
            ledger=PolicyLedger(keep_records=keep_records),
            punt_hook=sink.append if punt else None)
        engine.bind(PopulationWorkload(spec, seed=seed, tick=TICK))
        engine.start(spec.horizon)
        pair.append(engine)
    engine, oracle = pair
    seen = set()
    for index in range(oracle._ticks_total):
        seen |= situations(oracle, oracle.workload.tick_events(index))
        sent, aborted = len(oracle.outbox), oracle.flows_aborted
        for each in pair:
            # The boundary float every engine event clamps to.
            each.sim.run(until=(index + 1) * TICK)
        assert observable(engine) == observable(oracle), f"tick {index}"
        assert_index_is_the_sort(engine)
        assert_objects_are_the_oracles(engine, oracle)
        assert list(map(wire, punted[0])) == list(map(wire, punted[1]))
        if len(oracle.outbox) > sent:
            seen.add("cross-shard completion")
        if oracle.flows_aborted > aborted:
            seen.add("abort")
    if oracle.flows.grows:
        seen.add("table growth")
    return oracle, punted[1], seen


def situations(oracle, batch):
    """What the tick about to be applied exercises."""
    seen = set()
    flows = batch.flows
    flow_devices = set(flows.device.tolist())
    leaving = {device for device, _ in batch.detaches}
    if set(batch.attach_devices.tolist()) & flow_devices & leaving:
        seen.add("attach+flow+detach in one tick")
    movers = [device for device, _, _ in batch.migrates]
    if any(oracle._device_flows.get(device) for device in movers):
        seen.add("migration with live flows")
    if len(set(movers)) < len(movers):
        seen.add("two migrations of one device in one tick")
    if len(flows) == 0:
        seen.add("tick without flows")
    else:
        if not flows.https.any():
            seen.add("tick without HTTPS")
        if not flows.leaky.any():
            seen.add("tick without leaky flows")
    return seen


def churn(devices=150, **overrides):
    """Seconds-long lifetimes, several migrations per device: every
    situation above inside 25 ticks."""
    base = dict(
        devices=devices, cells=4, horizon=2.5, attach_ramp=1.0,
        flows_per_device_s=3.0, detach_rate=2.5, migrate_rate=4.0,
        audit_rate=0.5, cross_fraction=0.4, leak_probability=0.5,
        https_fraction=0.4, third_party_fraction=0.4,
        device_rate_bps=2e6,
    )
    base.update(overrides)
    return PopulationSpec(**base)


ALL_SITUATIONS = {
    "attach+flow+detach in one tick", "migration with live flows",
    "two migrations of one device in one tick", "cross-shard completion",
    "abort", "tick without flows", "tick without HTTPS",
    "tick without leaky flows", "table growth",
}

#: A stream is off at rate 0; below 0.1/s it would be empty anyway.
rates = st.one_of(st.just(0.0), st.floats(0.1, 6.0))

specs = st.builds(
    churn,
    devices=st.integers(10, 90),
    cells=st.integers(1, 5),
    attach_ramp=st.floats(0.05, 2.0),
    flows_per_device_s=st.floats(0.3, 5.0),
    detach_rate=rates,
    migrate_rate=rates,
    audit_rate=rates,
    cross_fraction=st.floats(0.0, 1.0),
    leak_probability=st.floats(0.0, 1.0),
    https_fraction=st.floats(0.0, 1.0),
    device_rate_bps=st.sampled_from([2e5, 2e6]),
)


class TestBatchedEngineEqualsPerFlowLoop:
    def test_fixed_runs_go_through_every_situation(self):
        # The drawn runs below are only as good as what they reach;
        # these fixed ones are checked to reach all of it.
        seen = set()
        for seed, spec in ((1, churn()), (2, churn(devices=400, detach_rate=0.2)),
                           (3, churn(devices=40, flows_per_device_s=0.5,
                                     https_fraction=0.1,
                                     leak_probability=0.1))):
            seen |= lockstep(spec, seed)[2]
        assert seen == ALL_SITUATIONS

    @settings(max_examples=40, deadline=None)
    @given(spec=specs, seed=st.integers(0, 10_000),
           keep_records=st.booleans())
    def test_fluid_mode(self, spec, seed, keep_records):
        lockstep(spec, seed, keep_records=keep_records)

    @settings(max_examples=20, deadline=None)
    @given(spec=specs, seed=st.integers(0, 10_000),
           keep_records=st.booleans())
    def test_fluid_mode_with_a_punt_hook(self, spec, seed, keep_records):
        oracle, punted, _ = lockstep(spec, seed, keep_records=keep_records,
                                     punt=True)
        # The first packet of every flow, and every audit probe.
        assert len(punted) == (oracle.flows_opened
                               + oracle.ledger.count("audit"))

    @settings(max_examples=10, deadline=None)
    @given(spec=specs, seed=st.integers(0, 10_000), punt=st.booleans())
    def test_packet_mode(self, spec, seed, punt):
        lockstep(spec, seed, mode=MODE_PACKET, punt=punt)

    def test_count_only_ledger_mints_the_same_keys(self):
        # No HTTPS flow at all: a batch that bumped "tls" by zero would
        # leave a key the per-flow loop never creates.
        oracle, _, _ = lockstep(churn(https_fraction=0.0), 5,
                                keep_records=False)
        assert oracle.flows_opened > 0
        assert "tls" not in oracle.ledger.counts


def flow(device, seq, **kwargs):
    return HybridFlow(device=device, seq=seq, n_packets=40, cap_bps=1e6,
                      **kwargs)


class TestHandBuiltBatches:
    """What the compiled schedule never does, through the public API."""

    def pair(self, **kwargs):
        engines = [cls(Simulator(), 8, 2, CELL_CAPACITY_BPS, tick=TICK,
                       **kwargs)
                   for cls in (HybridPopulationEngine, PerFlowEngine)]
        for engine in engines:
            engine.attach_many(np.array([0, 1, 2, 3]),
                               np.array([0, 1, 0, 1]))
        return engines

    def batch(self, flows, detaches=()):
        return TickBatch(
            attach_devices=np.zeros(0, dtype=np.int64),
            attach_cells=np.zeros(0, dtype=np.int64),
            flows=FlowBatch.of(flows), migrates=[], probes=[],
            detaches=list(detaches))

    @pytest.mark.parametrize("mode", [MODE_FLUID, MODE_PACKET])
    def test_flows_on_detached_devices_are_refused_in_place(self, mode):
        flows = [flow(0, 0), flow(6, 0, https=True),
                 flow(1, 0, leak_packets=(3,), leak_types=("email",)),
                 flow(7, 1), flow(0, 1, dst_device=5)]
        engine, oracle = self.pair(mode=mode)
        for each in (engine, oracle):
            each._apply(self.batch(flows, detaches=[(1, 0), (6, 0)]))
        assert observable(engine) == observable(oracle)
        assert_index_is_the_sort(engine)
        assert engine.ledger.count("flow_refused") == 2
        assert len(engine.flows) == 2

    def test_open_flow_is_a_batch_of_one(self):
        engine, oracle = self.pair()
        opened = [flow(2, 0, https=True), flow(5, 0), flow(2, 1),
                  flow(3, 0, leak_packets=(1, 7),
                       leak_types=("ssn", "email"))]
        for spec in opened:
            slot = oracle.open_flow(spec)
            assert engine.admit(FlowBatch.of([spec])).tolist() == (
                [] if slot is None else [slot])
        for each in (engine, oracle):
            each.detach_many([(2, 0)])
        assert observable(engine) == observable(oracle)
        assert_index_is_the_sort(engine)

    def test_neighbouring_devices_stay_out_of_each_others_slice(self):
        # Device 2's flows sit between device 1's last and device 3's
        # seq 0 in the index; a detach or a migration of 2 touches
        # neither neighbour.  The admission order is not the key order.
        engine, oracle = self.pair()
        opened = [flow(3, 0), flow(2, 5), flow(1, 2 ** 32 - 1), flow(2, 0),
                  flow(1, 0)]
        for each in (engine, oracle):
            each._apply(self.batch(opened))
            each.migrate_many([(2, 1, 0)])
            each.migrate_many([(2, 0, 1)])
            each.migrate_many([(2, 1, 2)])
            each._recompute()
            each.detach_many([(2, 0)])
        assert observable(engine) == observable(oracle)
        assert_index_is_the_sort(engine)
        assert len(engine.flows) == 3
        assert engine.cell_count.tolist() == [0, 3]


class TestCompiledLeaks:
    @settings(max_examples=30, deadline=None)
    @given(spec=specs, seed=st.integers(0, 10_000))
    def test_leak_columns_equal_the_scalar_reference(self, spec, seed):
        workload = PopulationWorkload(spec, seed=seed, tick=TICK)
        _, devices, ks = workload._flows
        bounds = workload._leak_ptr.tolist()
        packets = workload._leak_packets.tolist()
        types = workload._leak_types.tolist()
        assert bounds[-1] == len(packets) == len(types)
        for i, (device, k) in enumerate(zip(devices.tolist(), ks.tolist())):
            reference = workload.flow_spec(device, k)
            start, end = bounds[i], bounds[i + 1]
            assert bool(workload._leaky[i]) == (end > start)
            assert tuple(packets[start:end]) == reference.leak_packets
            assert tuple(types[start:end]) == reference.leak_types


class TestObjectsBuilt:
    def test_fluid_run_builds_one_object_per_leaky_flow(self, monkeypatch):
        built = []
        init = HybridFlow.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HybridFlow, "__init__", counting)
        spec = churn(leak_probability=0.2)
        engine = HybridPopulationEngine(
            Simulator(), spec.devices, spec.cells, CELL_CAPACITY_BPS,
            tick=TICK, ledger=PolicyLedger(keep_records=False))
        workload = PopulationWorkload(spec, seed=4, tick=TICK)
        engine.bind(workload)
        engine.run(spec.horizon)
        leaky = int(workload._leaky.sum())
        assert 0 < leaky < engine.flows_opened == workload.counts()["flows"]
        assert len(built) == leaky
