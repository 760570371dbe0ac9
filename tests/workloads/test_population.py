"""PopulationWorkload: keyed determinism, shard invariance, and the
scalar/vectorized agreement that anchors the whole schedule.

Every event and flow attribute is a pure function of
``(seed, tag, device, k)``, so (a) recompiling reproduces the exact
schedule, (b) partitioning devices over shards never changes what any
device does, and (c) the scalar reference ``flow_spec`` must agree
bit-for-bit with the vectorized bulk table the engine consumes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.fluid import PII_TYPES, FlowBatch
from repro.workloads.population import (
    _WEYL,
    FLOW_KINDS,
    PopulationSpec,
    PopulationWorkload,
    _mix_int,
)

TICK = 0.1


def spec(**overrides):
    base = dict(
        devices=120, cells=6, horizon=6.0, attach_ramp=2.0,
        flows_per_device_s=0.3, detach_rate=0.02, migrate_rate=0.05,
        audit_rate=0.03, cross_fraction=0.2, leak_probability=0.3,
    )
    base.update(overrides)
    return PopulationSpec(**base)


def all_batches(workload):
    return [workload.tick_events(i) for i in range(workload.ticks_total)]


def all_flows(workload):
    return [flow for batch in all_batches(workload)
            for flow in batch.flows]


#: The columns of a FlowBatch and the HybridFlow field each one carries.
FLOW_COLUMNS = {
    "device": lambda f: f.device, "seq": lambda f: f.seq,
    "n_packets": lambda f: f.n_packets, "cap_bps": lambda f: f.cap_bps,
    "https": lambda f: f.https, "leaky": lambda f: bool(f.leak_packets),
    "dst_device": lambda f: f.dst_device,
}


def flow_rows(batch):
    """A FlowBatch's columns as one tuple per flow."""
    return list(zip(*(getattr(batch, name).tolist()
                      for name in FLOW_COLUMNS)))


class TestDeterminism:
    def test_same_seed_reproduces_schedule_exactly(self):
        a = PopulationWorkload(spec(), seed=11, tick=TICK)
        b = PopulationWorkload(spec(), seed=11, tick=TICK)
        for batch_a, batch_b in zip(all_batches(a), all_batches(b)):
            assert np.array_equal(batch_a.attach_devices,
                                  batch_b.attach_devices)
            assert np.array_equal(batch_a.attach_cells,
                                  batch_b.attach_cells)
            assert batch_a.flows == batch_b.flows
            assert batch_a.migrates == batch_b.migrates
            assert batch_a.probes == batch_b.probes
            assert batch_a.detaches == batch_b.detaches

    def test_different_seeds_differ(self):
        a = PopulationWorkload(spec(), seed=11, tick=TICK)
        b = PopulationWorkload(spec(), seed=12, tick=TICK)
        assert all_flows(a) != all_flows(b)

    def test_every_event_lands_inside_the_horizon(self):
        workload = PopulationWorkload(spec(), seed=3, tick=TICK)
        counted = workload.counts()
        collected = sum(len(b.flows) for b in all_batches(workload))
        assert collected == counted["flows"]
        assert counted["flows"] > 0


class TestScalarVectorAgreement:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flow_spec_matches_vectorized_table(self, seed):
        workload = PopulationWorkload(spec(devices=60), seed=seed,
                                      tick=TICK)
        flows = all_flows(workload)
        assert flows, "spec must schedule at least one flow"
        for flow in flows:
            reference = workload.flow_spec(flow.device, flow.seq)
            assert dataclasses.astuple(flow) == (
                dataclasses.astuple(reference))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_batch_columns_carry_what_the_flow_objects_say(self, seed):
        # The engine admits from the columns and builds the object only
        # for some flows, so the two must never disagree.
        workload = PopulationWorkload(spec(devices=60), seed=seed,
                                      tick=TICK)
        for batch in all_batches(workload):
            flows = list(batch.flows)
            assert isinstance(batch.flows, FlowBatch)
            assert len(batch.flows) == len(flows)
            assert flows == [batch.flows.flow_at(i)
                             for i in range(len(flows))]
            assert flow_rows(batch.flows) == [
                tuple(field(flow) for field in FLOW_COLUMNS.values())
                for flow in flows]
            assert batch.flows == FlowBatch.of(flows)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), cells=st.integers(1, 40))
    def test_compiled_migration_cells_match_the_scalar_hash(self, seed,
                                                            cells):
        workload = PopulationWorkload(
            spec(devices=60, cells=cells, migrate_rate=0.5), seed=seed,
            tick=TICK)
        migrates = [m for batch in all_batches(workload)
                    for m in batch.migrates]
        assert migrates
        for device, cell, k in migrates:
            assert cell == _mix_int(
                workload._flow_base ^ (device * _WEYL + k)) % cells

    def test_flow_attribute_domains(self):
        workload = PopulationWorkload(spec(), seed=5, tick=TICK)
        kinds = {kind for kind, *_ in FLOW_KINDS}
        for flow in all_flows(workload):
            assert flow.kind in kinds
            assert flow.n_packets >= 1
            assert flow.cap_bps > 0
            assert len(flow.leak_packets) == len(flow.leak_types)
            assert list(flow.leak_packets) == sorted(
                set(flow.leak_packets))
            for index in flow.leak_packets:
                assert 0 <= index < flow.n_packets
            for leak_type in flow.leak_types:
                assert leak_type in PII_TYPES
            if flow.dst_device >= 0:
                assert flow.dst_device < workload.spec.devices


class TestShardInvariance:
    @pytest.mark.parametrize("shard_count", [2, 3, 5])
    def test_shards_partition_the_unsharded_schedule(self, shard_count):
        whole = PopulationWorkload(spec(), seed=9, tick=TICK)
        shards = [
            PopulationWorkload(spec(), seed=9, tick=TICK,
                               shard_index=index,
                               shard_count=shard_count)
            for index in range(shard_count)
        ]
        for index in range(whole.ticks_total):
            batch = whole.tick_events(index)
            parts = [shard.tick_events(index) for shard in shards]
            # Devices land on exactly one shard, by device % count.
            for rank, part in enumerate(parts):
                for device in part.attach_devices.tolist():
                    assert device % shard_count == rank
            assert sorted(
                device for part in parts
                for device in part.attach_devices.tolist()
            ) == sorted(batch.attach_devices.tolist())
            merged = [flow for part in parts for flow in part.flows]
            assert sorted(
                merged, key=lambda f: (f.device, f.seq)) == sorted(
                batch.flows, key=lambda f: (f.device, f.seq))
            assert sorted(row for part in parts
                          for row in flow_rows(part.flows)) == sorted(
                flow_rows(batch.flows))
            assert sorted(m for part in parts
                          for m in part.migrates) == sorted(
                batch.migrates)
            assert sorted(d for part in parts
                          for d in part.detaches) == sorted(
                batch.detaches)

    def test_flow_attrs_do_not_depend_on_partitioning(self):
        whole = PopulationWorkload(spec(), seed=9, tick=TICK)
        half = PopulationWorkload(spec(), seed=9, tick=TICK,
                                  shard_index=1, shard_count=2)
        whole_by_key = {(f.device, f.seq): f for f in all_flows(whole)}
        sharded = all_flows(half)
        assert sharded
        for flow in sharded:
            assert whole_by_key[(flow.device, flow.seq)] == flow

    def test_invalid_shard_index_rejected(self):
        with pytest.raises(ValueError):
            PopulationWorkload(spec(), seed=0, tick=TICK,
                               shard_index=2, shard_count=2)


class TestSpecKnobs:
    def test_zero_rates_disable_their_streams(self):
        quiet = spec(detach_rate=0.0, migrate_rate=0.0, audit_rate=0.0)
        workload = PopulationWorkload(quiet, seed=1, tick=TICK)
        for batch in all_batches(workload):
            assert batch.migrates == []
            assert batch.probes == []
            assert batch.detaches == []

    def test_chain_depth_scales_with_rate_and_horizon(self):
        deep = spec(horizon=30.0).chain_depth(0.5)
        shallow = spec(horizon=5.0).chain_depth(0.05)
        assert deep > shallow >= 2
        assert spec(max_chain=7).chain_depth(10.0) == 7

    def test_cross_fraction_produces_cross_device_flows(self):
        workload = PopulationWorkload(
            spec(cross_fraction=1.0), seed=2, tick=TICK)
        flows = all_flows(workload)
        assert flows
        assert all(flow.dst_device >= 0 for flow in flows)
        none = PopulationWorkload(
            spec(cross_fraction=0.0), seed=2, tick=TICK)
        assert all(f.dst_device == -1 for f in all_flows(none))
