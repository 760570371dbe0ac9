"""SoaTable: slot lifecycle, generations, growth, column access, and
the batch calls' equivalence to one-row allocation and release."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.soa import OBJECT, SoaTable


def make_table(capacity=8):
    return SoaTable(
        {"rate": "f8", "owner": "i8", "flag": "b1", "spec": OBJECT},
        capacity=capacity,
    )


def allocate(table, **values):
    """One row, claimed the one-slot-at-a-time way (the reference the
    batch calls are checked against): pop the free list, growing first
    if it is empty."""
    if not table._free:
        table._grow()
    slot = table._free.pop()
    table._alive[slot] = True
    table._live += 1
    table.high_water = max(table.high_water, table._live)
    for name, value in values.items():
        table.col(name)[slot] = value
    return slot


def release(table, slot):
    """One row returned the one-slot-at-a-time way."""
    if not table._alive[slot]:
        raise KeyError(f"slot {slot} is not live")
    table._alive[slot] = False
    table._generation[slot] += 1
    table._live -= 1
    for column in table._objects.values():
        column[slot] = None
    table._free.append(slot)


def allocate_one(table, **values):
    """``allocate_many`` of a single row; returns its slot."""
    return int(table.allocate_many(
        1, **{name: [value] for name, value in values.items()})[0])


class TestLifecycle:
    def test_allocate_initialises_named_columns(self):
        table = make_table()
        slot = allocate_one(table, rate=2.5, owner=7, flag=True,
                            spec=("flow", 0))
        assert table.col("rate")[slot] == 2.5
        assert table.col("owner")[slot] == 7
        assert table.col("flag")[slot]
        assert table.col("spec")[slot] == ("flow", 0)
        assert len(table) == 1

    def test_release_frees_and_clears_object_refs(self):
        table = make_table()
        payload = object()
        slot = allocate_one(table, spec=payload)
        table.release_many([slot])
        assert len(table) == 0
        # Object columns must not pin released payloads.
        assert table.col("spec")[slot] is None

    def test_release_of_dead_slot_raises(self):
        table = make_table()
        slot = allocate_one(table, rate=1.0)
        table.release_many([slot])
        with pytest.raises(KeyError):
            table.release_many([slot])

    def test_lifo_reuse_of_freed_slots(self):
        table = make_table()
        first = allocate_one(table, rate=1.0)
        table.release_many([first])
        assert allocate_one(table, rate=2.0) == first

    def test_unknown_column_raises(self):
        table = make_table()
        with pytest.raises(KeyError):
            table.allocate_many(1, nope=[1])
        with pytest.raises(KeyError):
            table.col("nope")

    def test_high_water_tracks_peak_live_count(self):
        table = make_table()
        slots = table.allocate_many(5, rate=np.arange(5.0))
        table.release_many(slots)
        assert len(table) == 0
        assert table.high_water == 5


class TestGenerations:
    def test_release_bumps_generation(self):
        table = make_table()
        slot = allocate_one(table, rate=1.0)
        generation = table.generation(slot)
        assert table.is_current(slot, generation)
        table.release_many([slot])
        assert not table.is_current(slot, generation)
        # The recycled slot carries a newer generation: a stale
        # (slot, generation) capture can never alias the new row.
        again = allocate_one(table, rate=2.0)
        assert again == slot
        assert table.generation(slot) == generation + 1
        assert not table.is_current(slot, generation)
        assert table.is_current(slot, table.generation(slot))


class TestGrowth:
    def test_growth_preserves_contents(self):
        table = make_table(capacity=8)
        slots = [allocate_one(table, rate=float(i), owner=i, spec=i)
                 for i in range(50)]
        assert table.capacity >= 50
        for i, slot in enumerate(slots):
            assert table.col("rate")[slot] == float(i)
            assert table.col("owner")[slot] == i
            assert table.col("spec")[slot] == i

    def test_column_references_invalidated_by_growth(self):
        table = make_table(capacity=8)
        stale = table.col("rate")
        for i in range(20):
            allocate_one(table, rate=1.0)
        # Documented contract: re-read col() after growth.
        assert len(table.col("rate")) > len(stale)


def table_state(table):
    """Everything a later allocate/release can observe."""
    return (table._alive.tolist(), table._generation.tolist(),
            list(table._free), len(table), table.high_water,
            table.capacity, table.grows,
            table.col("owner").tolist(), list(table.col("spec")))


class TestBatchLifecycle:
    def test_allocate_many_fills_columns_from_vectors_and_scalars(self):
        table = make_table()
        slots = table.allocate_many(
            3, rate=np.array([1.0, 2.0, 3.0]), owner=7,
            spec=["a", None, ("c", 0)])
        assert slots.dtype == np.int64
        assert table.col("rate")[slots].tolist() == [1.0, 2.0, 3.0]
        assert table.col("owner")[slots].tolist() == [7, 7, 7]
        assert [table.col("spec")[s] for s in slots] == ["a", None, ("c", 0)]
        assert len(table) == table.high_water == 3

    def test_allocate_many_takes_the_slots_scalar_allocation_would(self):
        batched, scalar = make_table(), make_table()
        for table in (batched, scalar):
            held = [allocate(table, owner=i) for i in range(6)]
            for slot in (held[1], held[4], held[2]):
                release(table, slot)
        expected = [allocate(scalar, owner=9) for _ in range(5)]
        assert batched.allocate_many(5, owner=9).tolist() == expected
        assert table_state(batched) == table_state(scalar)

    def test_allocate_many_of_zero_rows_changes_nothing(self):
        table = make_table()
        before = table_state(table)
        assert table.allocate_many(0, rate=np.zeros(0)).size == 0
        assert table_state(table) == before

    def test_release_many_appends_to_the_free_list_in_argument_order(self):
        table = make_table()
        slots = table.allocate_many(4, spec=[object()] * 4)
        table.release_many(slots[[2, 0, 3]])
        assert table._free[-3:] == slots[[2, 0, 3]].tolist()
        assert table.live_slots().tolist() == [int(slots[1])]
        assert all(table.col("spec")[s] is None for s in slots[[2, 0, 3]])
        assert table.generation(int(slots[2])) == 1

    def test_grows_counts_doublings(self):
        table = make_table(capacity=8)
        table.allocate_many(8)
        assert table.grows == 0
        table.allocate_many(30)
        assert (table.capacity, table.grows) == (64, 3)


class TestBatchAllOrNothing:
    """A refused batch call leaves the table exactly as it found it."""

    def refused(self, table, exception, call, *args, **kwargs):
        before = table_state(table)
        with pytest.raises(exception):
            call(*args, **kwargs)
        assert table_state(table) == before

    def test_allocate_many_unknown_column(self):
        table = make_table()
        self.refused(table, KeyError, table.allocate_many, 3,
                     owner=1, nope=2)

    def test_allocate_many_wrong_length_or_negative_count(self):
        table = make_table()
        self.refused(table, ValueError, table.allocate_many, 3,
                     owner=[1, 2])
        self.refused(table, ValueError, table.allocate_many, 2,
                     spec=["only one"])
        self.refused(table, ValueError, table.allocate_many, -1)

    def test_release_many_dead_slot(self):
        table = make_table()
        slots = table.allocate_many(4, spec=["a", "b", "c", "d"])
        table.release_many(slots[1:2])
        self.refused(table, KeyError, table.release_many, slots)

    @pytest.mark.parametrize("bad", [-1, 8, 10**6])
    def test_release_many_out_of_range_slot(self, bad):
        table = make_table(capacity=8)
        slots = table.allocate_many(3)
        self.refused(table, KeyError, table.release_many,
                     [int(slots[0]), bad])

    def test_release_many_duplicate_slot(self):
        # One slot twice on the free list would hand it to two rows.
        table = make_table()
        slots = table.allocate_many(3, spec=["a", "b", "c"])
        self.refused(table, KeyError, table.release_many,
                     [int(slots[0]), int(slots[2]), int(slots[0])])


#: One step of a random table program; sizes are drawn past the
#: capacity-8 table's first two doublings.
table_ops = st.one_of(
    st.tuples(st.just("allocate")),
    st.tuples(st.just("allocate_many"), st.integers(0, 20)),
    st.tuples(st.just("release"), st.integers(0, 10**6)),
    st.tuples(st.just("release_many"),
              st.lists(st.integers(0, 10**6), max_size=12)),
)


class TestBatchScalarLockstep:
    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(table_ops, min_size=1, max_size=40))
    def test_batch_calls_equal_the_scalar_calls_they_stand_for(
            self, program):
        """Random allocate / allocate_many / release / release_many
        programs against a table driven only by one-row calls."""
        batched, scalar = make_table(capacity=8), make_table(capacity=8)
        tag = 0
        # Every program ends by outgrowing the table, whatever state
        # its free list is in by then.
        for op, *args in [*program, ("allocate_many", 40)]:
            live = scalar.live_slots().tolist()
            if op == "allocate":
                tag += 1
                assert allocate_one(batched, owner=tag, spec=tag) == (
                    allocate(scalar, owner=tag, spec=tag))
            elif op == "allocate_many":
                tags = list(range(tag + 1, tag + 1 + args[0]))
                tag += args[0]
                got = batched.allocate_many(
                    args[0], owner=np.array(tags, dtype=np.int64),
                    spec=tags)
                assert got.tolist() == [
                    allocate(scalar, owner=t, spec=t) for t in tags]
            elif op == "release" and live:
                slot = live[args[0] % len(live)]
                batched.release_many([slot])
                release(scalar, slot)
            elif op == "release_many" and live:
                # Distinct live slots, in a drawn (unsorted) order.
                picks = list(dict.fromkeys(
                    live[i % len(live)] for i in args[0]))
                batched.release_many(picks)
                for slot in picks:
                    release(scalar, slot)
            assert table_state(batched) == table_state(scalar)
        assert scalar.grows >= 2


class TestColumns:
    def test_live_slots_ascending(self):
        table = make_table()
        slots = table.allocate_many(6, rate=1.0).tolist()
        table.release_many([slots[2]])
        table.release_many([slots[4]])
        live = table.live_slots()
        assert list(live) == sorted(set(slots) - {slots[2], slots[4]})

    def test_vectorized_update_over_live_mask(self):
        table = make_table()
        for i in range(4):
            allocate_one(table, rate=float(i + 1))
        rate = table.col("rate")
        rate[table._alive] *= 2.0
        assert list(rate[table.live_slots()]) == [2.0, 4.0, 6.0, 8.0]

    def test_numeric_dtypes(self):
        table = make_table()
        assert table.col("rate").dtype == np.float64
        assert table.col("owner").dtype == np.int64
        assert table.col("flag").dtype == np.bool_
        assert isinstance(table.col("spec"), list)


class TestValidation:
    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            SoaTable({})

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            SoaTable({"x": "f4"})
