"""Hybrid fluid/packet population engine (DESIGN.md §15).

Event-simulating every packet caps the simulated population around
10^4 devices: per-flow cost is O(packets).  This engine advances
steady flows as *aggregate rate equations* — max-min fair shares
recomputed only at **epochs** (flow arrival, departure, completion,
or route change; tracked per cell via dirty flags) — and
event-simulates only the **policy-relevant** packets: PII emissions,
TLS handshakes, audit probes, and the first packet of every flow
(the megaflow-miss punt).  Per-flow cost becomes O(rate-change
epochs + policy packets) instead of O(packets).

Flow state lives in a struct-of-array table
(:class:`~repro.netsim.soa.SoaTable`): rate, byte carry, remaining
packets, owning cell, device, and destination are parallel ``numpy``
columns, so a tick advances the whole population with vector
arithmetic instead of per-packet object churn.  Flows also *enter and
leave* the table a tick at a time: the workload hands over a
:class:`FlowBatch` of columns, admitted with one
:meth:`~repro.netsim.soa.SoaTable.allocate_many`, and a tick's
finished flows are retired with one
:meth:`~repro.netsim.soa.SoaTable.release_many`.  A
:class:`HybridFlow` object exists only for the flows something reads
it from: leaky flows (their leak positions), and every flow when the
run materializes packets (``MODE_PACKET`` or a ``punt_hook``).

Beside the table the engine keeps the live flows in canonical
``(device, seq)`` order — a sorted array of packed identities and the
slot of each — updated as flows are admitted and retired.  The epoch
step reads its flows from it in that order without sorting, and a
device's live flows are one contiguous slice of it, so ``(device,
seq)`` is an enforced identity: admitting one that is already live is
an error.

Two modes share **identical progress arithmetic** (the same vectorized
per-tick budget/emission computation), so their policy-relevant
accounting is comparable record for record:

* ``MODE_FLUID`` — one vector operation per tick; only policy packets
  are materialized (as real :class:`~repro.netsim.packet.Packet`
  objects on the simulator, at their computed sub-tick emission
  times).
* ``MODE_PACKET`` — every emitted packet becomes a simulator event
  that materializes a ``Packet`` and runs the per-packet path; leaks
  and completions are detected *by the packet events themselves*, not
  by the vectorized crossing scan, which makes digest parity between
  the modes a genuine cross-check of the fluid abstraction rather
  than an identity.

All policy-relevant accounting flows into a :class:`PolicyLedger`
whose sha256 :meth:`~PolicyLedger.digest` is over *sorted, time-free*
records — byte-identical between modes and independent of shard
partitioning (records are keyed per device, never per shard; see
``repro.experiments.runner``).

Cross-shard traffic: flows may target a device owned by another shard
(``HybridFlow.dst_device``).  On completion the engine appends a
plain-data message to :attr:`outbox`; the sharded runner exchanges
outboxes between shards at deterministic round boundaries and the
receiving engine's :meth:`deliver` records ingress accounting — so
the receiving shard's digest proves the queue protocol ran.

Fair shares are genuine max-min: :func:`waterfill` is a vectorized
multi-cell progressive-filling fixed point over per-flow rate caps,
validated in the tests against exact per-cell progressive filling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.middleboxes.pii_detector import PII_PATTERNS
from repro.netproto.http import HttpRequest
from repro.netsim.events import EventPriority
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.soa import SoaTable
from repro.obs import runtime as obs_runtime

MODE_FLUID = "fluid"
MODE_PACKET = "packet"

#: Sentinel packet index meaning "no pending leak" (sorts after any flow).
NO_LEAK = 2 ** 62

#: The PII types the policy path can emit (keys of the detector library).
PII_TYPES = tuple(sorted(PII_PATTERNS))

#: A live flow's identity packs into one int64 as ``device << 32 | seq``.
_SEQ_BITS = 32


def _check_range(values: np.ndarray, bound: int, what: str) -> None:
    """Raise unless every value is in ``[0, bound)``.

    Without it numpy would read a negative device as one counted from
    the end of the array, and a too-large one as a bare ``IndexError``.
    """
    if values.size and (values.min() < 0 or values.max() >= bound):
        bad = values[(values < 0) | (values >= bound)][0]
        raise ConfigurationError(f"{what} {int(bad)} outside [0, {bound})")


def _splice(column: np.ndarray, taken: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """``column`` with ``values`` inserted so they land at ``taken``.

    ``taken`` is ascending and indexes the result; ``column`` fills the
    other positions in order.
    """
    out = np.empty(column.size + values.size, dtype=column.dtype)
    kept = np.ones(out.size, dtype=np.bool_)
    kept[taken] = False
    out[taken] = values
    out[kept] = column
    return out


@dataclasses.dataclass(frozen=True)
class HybridFlow:
    """One flow's immutable spec: identity, size, and policy events.

    ``leak_packets`` are ascending packet indices that carry PII
    (``leak_types`` is index-aligned); they are derived from the flow's
    own seed by the workload, so both simulation modes — and any shard
    partitioning — see the same policy events.
    """

    device: int
    seq: int
    n_packets: int
    cap_bps: float
    kind: str = "web"
    https: bool = False
    third_party: bool = False
    leak_packets: tuple[int, ...] = ()
    leak_types: tuple[str, ...] = ()
    dst_device: int = -1
    host: str = "app.example.com"


@dataclasses.dataclass(frozen=True, eq=False)
class FlowBatch:
    """Flows to admit together, as parallel columns.

    The columns are what admission writes into the flow table;
    ``flow_at(i)`` builds row ``i``'s full :class:`HybridFlow` for the
    consumers that need the object, and must agree with the columns
    (``leaky[i]`` is whether that flow has any ``leak_packets``).
    Iterating yields those objects, and two batches are equal when
    they yield equal flows.
    """

    device: np.ndarray
    seq: np.ndarray
    n_packets: np.ndarray
    cap_bps: np.ndarray
    https: np.ndarray
    leaky: np.ndarray
    dst_device: np.ndarray
    flow_at: Callable[[int], HybridFlow]

    @classmethod
    def of(cls, flows: Sequence[HybridFlow]) -> "FlowBatch":
        """The batch that admits ``flows``, in order."""
        return cls(
            device=np.array([f.device for f in flows], dtype=np.int64),
            seq=np.array([f.seq for f in flows], dtype=np.int64),
            n_packets=np.array([f.n_packets for f in flows],
                               dtype=np.int64),
            cap_bps=np.array([f.cap_bps for f in flows], dtype=np.float64),
            https=np.array([f.https for f in flows], dtype=np.bool_),
            leaky=np.array([bool(f.leak_packets) for f in flows],
                           dtype=np.bool_),
            dst_device=np.array([f.dst_device for f in flows],
                                dtype=np.int64),
            flow_at=flows.__getitem__,
        )

    def __len__(self) -> int:
        return len(self.device)

    def __iter__(self) -> Iterator[HybridFlow]:
        return map(self.flow_at, range(len(self)))


# -- max-min fair shares ------------------------------------------------------


def waterfill(
    caps: np.ndarray,
    cells: np.ndarray,
    capacities: np.ndarray,
    iters: int = 16,
) -> np.ndarray:
    """Vectorized per-cell max-min fair level with per-flow caps.

    Returns ``fair`` per cell such that each flow's rate is
    ``min(cap, fair[cell])``.  Fixed point of progressive filling:
    every iteration redistributes each cell's slack (capacity unused
    by capped flows) over the flows still held at the fair level, so
    it converges in at most ``#distinct cap classes`` iterations —
    the workload uses a handful of flow kinds, far below ``iters``.
    """
    n_cells = len(capacities)
    counts = np.bincount(cells, minlength=n_cells)
    fair = np.where(counts > 0, capacities / np.maximum(counts, 1), np.inf)
    for _ in range(iters):
        rates = np.minimum(caps, fair[cells])
        used = np.bincount(cells, weights=rates, minlength=n_cells)
        held = caps > fair[cells]
        n_held = np.bincount(cells[held], minlength=n_cells)
        slack = capacities - used
        adjustable = (n_held > 0) & (slack > capacities * 1e-12)
        if not adjustable.any():
            break
        fair = np.where(
            adjustable, fair + slack / np.maximum(n_held, 1), fair)
    return fair


# -- policy accounting --------------------------------------------------------


class PolicyLedger:
    """Deterministic, time-free accounting of policy-relevant events.

    ``keep_records=True`` retains every record for digesting (parity
    runs); ``False`` keeps only per-kind counts (perf sweeps at 10^6
    devices, where record retention would dominate memory).
    """

    def __init__(self, keep_records: bool = True) -> None:
        self.keep_records = keep_records
        self.counts: dict[str, int] = {}
        self.records: list[tuple] | None = [] if keep_records else None

    def bump(self, kind: str, n: int = 1) -> None:
        """Count ``n`` events of ``kind`` without a record.

        ``n == 0`` creates no key: a batch with no event of a kind
        leaves ``counts`` as if it had never been asked.
        """
        if n < 0:
            raise ValueError("cannot count a negative number of events")
        if n:
            self.counts[kind] = self.counts.get(kind, 0) + n

    def record(self, kind: str, *fields) -> None:
        """Account one event; fields must be plain ints/strs (no times)."""
        self.bump(kind)
        if self.records is not None:
            self.records.append((kind, *fields))

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def digest(self) -> str:
        """sha256 over the *sorted* records — order of arrival discarded,
        so two runs that account the same events digest identically
        regardless of event interleaving, mode, or shard count."""
        if self.records is None:
            raise ValueError("ledger was built with keep_records=False")
        canonical = sorted(self.records)
        return hashlib.sha256(
            json.dumps(canonical, sort_keys=True).encode()
        ).hexdigest()


def _pii_body(leak_type: str, device: int, seq: int) -> bytes:
    """A request body carrying one PII value of ``leak_type``.

    Values match the :data:`~repro.middleboxes.pii_detector.PII_PATTERNS`
    library so the real detector — not a parallel reimplementation —
    decides what counts as a leak.
    """
    if leak_type == "email":
        return b"action=sync&email=u%d@mail.example.com" % device
    if leak_type == "phone":
        return b"contact=%03d-%03d-%04d" % (
            200 + device % 700, 200 + seq % 700, 1000 + (device * 7 + seq) % 9000)
    if leak_type == "ssn":
        return b"id=%03d-%02d-%04d" % (
            100 + device % 700, 10 + seq % 89, 1000 + device % 8999)
    if leak_type == "location":
        return b"lat=%d.%04d&lon=%d.%04d" % (
            device % 90, device % 10000, seq % 180, (device + seq) % 10000)
    if leak_type == "password":
        return b"password=pw%dx%d" % (device, seq)
    # device_id
    return b"tag=1&ad_id=%08X" % (device & 0xFFFFFFFF)


# -- the engine ---------------------------------------------------------------


class HybridPopulationEngine:
    """Fluid/packet hybrid simulation of a device population.

    Topology model: each device attaches to one *cell* (an access
    aggregate with a shared backhaul of ``cell_capacity_bps``); a flow
    is rate-limited by min(its own cap, the cell's max-min fair
    level).  Rate recomputation happens only for cells whose flow set
    changed since the last tick (arrival/departure/completion/
    migration — the epochs), which is what makes per-flow cost
    independent of the packet count.
    """

    def __init__(
        self,
        sim: Simulator,
        n_devices: int,
        n_cells: int,
        cell_capacity_bps: float | np.ndarray,
        device_rate_bps: float = 2_000_000.0,
        tick: float = 0.1,
        mode: str = MODE_FLUID,
        ledger: PolicyLedger | None = None,
        punt_hook: Callable[[Packet], None] | None = None,
    ) -> None:
        if mode not in (MODE_FLUID, MODE_PACKET):
            raise ValueError(f"unknown mode {mode!r}")
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.sim = sim
        self.n_devices = int(n_devices)
        if self.n_devices >= 2 ** (63 - _SEQ_BITS):
            raise ConfigurationError("too many devices for a flow identity")
        self.n_cells = int(n_cells)
        # Rates enter in bits/s but all internal arithmetic is in
        # bytes (budgets are divided by the MTU in bytes), so convert
        # once at ingestion.
        self.cell_capacity = np.broadcast_to(
            np.asarray(cell_capacity_bps, dtype=np.float64) / 8.0,
            (self.n_cells,)).copy()
        if not (self.cell_capacity > 0).all():
            raise ValueError("cell capacities must be positive")
        self.device_rate_bps = float(device_rate_bps)
        self.tick = float(tick)
        self.mode = mode
        self.mtu = 1500
        self._mtu_f = 1500.0
        self.ledger = ledger if ledger is not None else PolicyLedger()
        self.punt_hook = punt_hook

        self.flows = SoaTable({
            "rate": "f8", "carry": "f8", "cap": "f8",
            "remaining": "i8", "emitted": "i8",
            "cell": "i8", "device": "i8", "seq": "i8", "dst": "i8",
            "next_leak": "i8", "leak_pos": "i8",
            # The HybridFlow, or None for a flow nothing reads it from.
            "spec": "obj",
        })
        self.cell_count = np.zeros(self.n_cells, dtype=np.int64)
        self.cell_dirty = np.ones(self.n_cells, dtype=np.bool_)
        self._cell_bytes = np.zeros(self.n_cells, dtype=np.float64)
        self._attached = np.zeros(self.n_devices, dtype=np.bool_)
        self._device_cell = np.zeros(self.n_devices, dtype=np.int64)
        # The canonical flow index: every live flow's identity
        # ``device << 32 | seq`` in ascending order, and its slot.
        self._keys = np.zeros(0, dtype=np.int64)
        self._order = np.zeros(0, dtype=np.int64)

        #: Cross-shard messages produced this round: (dst_device, payload).
        self.outbox: list[tuple[int, tuple]] = []
        #: Sub-tick completion instants, kept when the ledger keeps records.
        self.completion_times: dict[tuple[int, int], float] = {}

        self.workload = None
        self._ticks_total = 0
        # counters
        self.ticks = 0
        self.epochs = 0               # rate-recompute invocations
        self.cells_recomputed = 0     # cumulative dirty cells recomputed
        self.policy_packets = 0       # materialized policy-relevant packets
        self.packet_events = 0        # per-packet events (packet mode only)
        self.flows_opened = 0
        self.flows_completed = 0
        self.flows_aborted = 0
        self.bytes_total = 0.0
        self.packets_total = 0        # emitted-packet tap (telemetry duck type)

    # -- population operations (applied at tick boundaries) ---------------

    def attach_many(self, devices: np.ndarray, cells: np.ndarray) -> None:
        """Vectorized attach of a device batch to their cells."""
        if len(devices) == 0:
            return
        devices = np.asarray(devices, dtype=np.int64)
        cells = np.asarray(cells)
        _check_range(devices, self.n_devices, "device")
        _check_range(cells, self.n_cells, "cell")
        self._attached[devices] = True
        self._device_cell[devices] = cells
        if self.ledger.keep_records:
            for device, cell in zip(devices.tolist(), cells.tolist()):
                self.ledger.record("attach", device, 0, cell)
        else:
            self.ledger.bump("attach", len(devices))

    def detach_many(self, detaches: Iterable[tuple[int, int]]) -> None:
        """Detach ``(device, k)`` pairs in order.

        The live flows of all of them are aborted as one batch, each
        device's in ascending slot order.
        """
        detaches = [(int(device), int(k)) for device, k in detaches]
        if not detaches:
            return
        starts, ends = self._device_spans(
            np.array(detaches, dtype=np.int64)[:, 0])
        seq_col = self.flows.col("seq")
        emitted_col = self.flows.col("emitted")
        aborted: list[int] = []
        for (device, k), start, end in zip(detaches, starts, ends):
            if not self._attached[device]:
                self.ledger.bump("detach_noop")
                continue
            self._attached[device] = False
            self.ledger.record("detach", device, k)
            for slot in sorted(self._order[start:end].tolist()):
                self.ledger.record("flow_abort", device, int(seq_col[slot]),
                                   int(emitted_col[slot]))
                aborted.append(slot)
        if aborted:
            self._retire(np.array(aborted, dtype=np.int64), completed=False)

    def migrate_many(self, migrates: Iterable[tuple[int, int, int]]) -> None:
        """Apply ``(device, new_cell, k)`` migrations in order.

        A device that moves twice in one call moves from where the
        first move left it.
        """
        migrates = [(int(device), int(new_cell), int(k))
                    for device, new_cell, k in migrates]
        if not migrates:
            return
        columns = np.array(migrates, dtype=np.int64)
        _check_range(columns[:, 1], self.n_cells, "cell")
        starts, ends = self._device_spans(columns[:, 0])
        cell_col = self.flows.col("cell")
        for (device, new_cell, k), start, end in zip(migrates, starts, ends):
            if not self._attached[device]:
                self.ledger.bump("migrate_skipped")
                continue
            old_cell = int(self._device_cell[device])
            self._device_cell[device] = new_cell
            self.ledger.record("migrate", device, k, old_cell, new_cell)
            if end > start and new_cell != old_cell:
                cell_col[self._order[start:end]] = new_cell
                self.cell_count[old_cell] -= end - start
                self.cell_count[new_cell] += end - start
            # Route change is an epoch even with no live flows: the next
            # flow this device opens lands in the new cell.
            self.cell_dirty[old_cell] = True
            self.cell_dirty[new_cell] = True

    def _device_spans(self, devices: np.ndarray) -> tuple[list, list]:
        """Each device's live flows, as ``_order[start:end]`` bounds.

        A device's identities are the key range ``[d << 32,
        (d + 1) << 32)``, so one ``searchsorted`` resolves them all.
        """
        _check_range(devices, self.n_devices, "device")
        first = devices << _SEQ_BITS
        bounds = np.searchsorted(
            self._keys, np.concatenate((first, first + (1 << _SEQ_BITS))))
        return bounds[:devices.size].tolist(), bounds[devices.size:].tolist()

    def _placement(self, device: np.ndarray, seq: np.ndarray) -> tuple:
        """The index's keys with a batch's identities merged in.

        Returns the merged keys, the batch's order by identity, and the
        merged positions its identities take in that order.  Raises,
        before anything changes, for a device or ``seq`` out of range
        and for an identity already live or repeated in the batch (the
        merged keys would not be strictly increasing).
        """
        _check_range(device, self.n_devices, "device")
        _check_range(seq, 1 << _SEQ_BITS, "seq")
        keys = device.astype(np.int64) << _SEQ_BITS | seq
        by_key = np.argsort(keys)
        keys = keys[by_key]
        taken = np.searchsorted(self._keys, keys) + np.arange(keys.size)
        merged = _splice(self._keys, taken, keys)
        clash = merged[1:] == merged[:-1]
        if clash.any():
            device_seq = divmod(int(merged[1:][clash][0]), 1 << _SEQ_BITS)
            raise ConfigurationError(f"flow (device, seq) = {device_seq} "
                                     "is already live or repeated")
        return merged, by_key, taken

    def admit(self, batch: FlowBatch) -> np.ndarray:
        """Admit a batch of flows column to column; returns their slots.

        A flow whose device is not attached is refused (one
        ``flow_refused`` record, no slot).  A malformed batch — see
        :meth:`_placement` — is refused whole with a
        :class:`~repro.errors.ConfigurationError`.
        """
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        device = batch.device
        keys, by_key, taken = self._placement(device, batch.seq)
        if not self._attached[device].all():
            if n == 1:
                self.ledger.record("flow_refused", int(device[0]),
                                   int(batch.seq[0]))
                return np.zeros(0, dtype=np.int64)
            # The compiled schedule never opens a flow on a detached
            # device; a hand-built batch that does goes one by one.
            return np.concatenate(
                [self.admit(FlowBatch.of([spec])) for spec in batch])
        punt = self.punt_hook
        leaky = np.nonzero(batch.leaky)[0].tolist()
        if punt is not None or self.mode == MODE_PACKET:
            # Every flow is materialized as packets: all need the object.
            specs = list(batch)
        else:
            # Only a leaky flow's object is read (its leak positions).
            specs = [None] * n
            for i in leaky:
                specs[i] = batch.flow_at(i)
        next_leak = np.full(n, NO_LEAK, dtype=np.int64)
        if leaky:
            next_leak[leaky] = [specs[i].leak_packets[0] for i in leaky]
        cell = self._device_cell[device]
        slots = self.flows.allocate_many(
            n, rate=0.0, carry=0.0, cap=batch.cap_bps / 8.0,
            remaining=batch.n_packets, emitted=0,
            cell=cell, device=device, seq=batch.seq, dst=batch.dst_device,
            next_leak=next_leak, leak_pos=0, spec=specs,
        )
        self.cell_count += np.bincount(cell, minlength=self.n_cells)
        self.cell_dirty[cell] = True
        self._keys = keys
        self._order = _splice(self._order, taken, slots[by_key])
        self.flows_opened += n
        # The TLS handshake is policy-relevant: one packet per flow.
        handshakes = int(np.count_nonzero(batch.https))
        self.policy_packets += handshakes
        if self.ledger.keep_records or punt is not None:
            for i, (owner, seq, n_packets, home, https) in enumerate(zip(
                    device.tolist(), batch.seq.tolist(),
                    batch.n_packets.tolist(), cell.tolist(),
                    batch.https.tolist())):
                self.ledger.record("flow_open", owner, seq, n_packets, home)
                if https:
                    self.ledger.record("tls", owner, seq)
                if punt is not None:
                    # First packet of a new five-tuple: the megaflow
                    # miss that punts to the full pipeline (for HTTPS,
                    # the handshake).
                    punt(self._materialize(specs[i], 0, handshake=https))
        else:
            self.ledger.bump("flow_open", n)
            self.ledger.bump("tls", handshakes)
        return slots

    def audit_probe(self, device: int, k: int = 0) -> None:
        """One auditor probe through the device's cell (event-simulated)."""
        device = int(device)
        if not 0 <= device < self.n_devices:
            raise ConfigurationError(
                f"device {device} outside [0, {self.n_devices})")
        if not self._attached[device]:
            self.ledger.bump("audit_skipped")
            return
        cell = int(self._device_cell[device])
        self.ledger.record("audit", device, int(k), cell)
        self.policy_packets += 1
        if self.punt_hook is not None:
            probe = Packet(src=f"10.probe.{device % 250}.1",
                           dst="198.51.100.99", protocol="udp",
                           src_port=7, dst_port=7, size=64,
                           owner=f"d{device}")
            self.punt_hook(probe)

    def deliver(self, messages: list[tuple]) -> None:
        """Ingress accounting for cross-shard flows received this round."""
        for message in messages:
            kind, src, dst, seq, n_packets, leaks = message
            self.ledger.record("xflow_in", int(src), int(dst), int(seq),
                               int(n_packets))
            if leaks:
                self.ledger.record("xflow_pii", int(src), int(dst),
                                   int(seq), int(leaks))

    # -- driving -----------------------------------------------------------

    def bind(self, workload) -> None:
        """Attach a workload exposing ``tick_events(index)``."""
        self.workload = workload

    def start(self, horizon: float) -> None:
        """Schedule the tick chain up to ``horizon`` (lazy, one ahead).

        Tick events run at BACKGROUND priority so the sub-tick packet
        and policy events of the *previous* tick — some of which land
        exactly on the boundary — always fire first.
        """
        self._ticks_total = max(1, int(round(horizon / self.tick)))
        self.sim.schedule_at(0.0, self._on_tick, 0,
                             priority=EventPriority.BACKGROUND)

    def end_time(self) -> float:
        """The exact float instant of the last tick boundary.

        Computed as ``ticks_total * tick`` — the same expression every
        sub-tick event clamps to — so ``sim.run(until=end_time())``
        never strands a boundary event behind a 1-ULP float gap.
        """
        return self._ticks_total * self.tick

    def run(self, horizon: float) -> None:
        """Convenience: start, and run the simulator to horizon."""
        self.start(horizon)
        self.sim.run(until=self.end_time())

    def _on_tick(self, index: int) -> None:
        now = index * self.tick
        if self.workload is not None:
            self._apply(self.workload.tick_events(index))
        self._recompute()
        self._advance(now, (index + 1) * self.tick)
        self.ticks += 1
        if index + 1 < self._ticks_total:
            self.sim.schedule_at((index + 1) * self.tick, self._on_tick,
                                 index + 1,
                                 priority=EventPriority.BACKGROUND)

    def _apply(self, batch) -> None:
        """Apply one tick's population events in a fixed order.

        Attaches first (so same-tick flows can land), detaches last
        (so a same-tick flow still opens before its device leaves).
        """
        self.attach_many(batch.attach_devices, batch.attach_cells)
        self.admit(batch.flows)
        self.migrate_many(batch.migrates)
        for device, k in batch.probes:
            self.audit_probe(device, k)
        self.detach_many(batch.detaches)

    # -- the per-tick core -------------------------------------------------

    def _recompute(self) -> None:
        """Max-min fair shares for dirty cells only (the epoch step)."""
        if not self.cell_dirty.any():
            return
        self.epochs += 1
        self.cells_recomputed += int(self.cell_dirty.sum())
        # The dirty cells' flows in canonical (device, seq) order, read
        # off the index.  Slot order would not do: the two modes close
        # flows in different orders (event time vs slot scan), so the
        # LIFO free list hands the same flows different slots.  The
        # waterfill's bincount reductions sum in array order, and a
        # permuted sum can differ in the last ULP — enough to break
        # exact cross-mode completion-time equality.  Identity order
        # makes the fair level a function of the flow *set*.
        cell_col = self.flows.col("cell")
        sub = self._order[self.cell_dirty[cell_col[self._order]]]
        if sub.size:
            caps = self.flows.col("cap")[sub]
            cells = cell_col[sub]
            fair = waterfill(caps, cells, self.cell_capacity)
            self.flows.col("rate")[sub] = np.minimum(caps, fair[cells])
        self.cell_dirty[:] = False

    def _advance(self, now: float, boundary: float) -> None:
        """One tick of progress for every live flow (vectorized).

        Both modes run this identical arithmetic: per flow, a byte
        budget of ``rate * tick`` plus the fractional carry from the
        previous tick, emitted as whole packets.  The carry makes the
        per-tick emission count an exact function of the rate
        schedule, so fluid and packet runs agree packet-for-packet at
        every tick boundary.
        """
        live = self.flows.live_slots()
        self._cell_bytes[:] = 0.0
        if live.size == 0:
            return
        rate_col = self.flows.col("rate")
        carry_col = self.flows.col("carry")
        rem_col = self.flows.col("remaining")
        emit_col = self.flows.col("emitted")
        cell_col = self.flows.col("cell")

        r = rate_col[live]
        carry_b = carry_col[live]
        budget = r * self.tick + carry_b
        quota = np.floor_divide(budget, self._mtu_f).astype(np.int64)
        rem_b = rem_col[live]
        n = np.minimum(quota, rem_b)
        finished = rem_b == n
        carry_col[live] = np.where(finished, 0.0, budget - n * self._mtu_f)
        emit_b = emit_col[live]
        emit_col[live] = emit_b + n
        rem_col[live] = rem_b - n

        sent = n * self._mtu_f
        self._cell_bytes += np.bincount(
            cell_col[live], weights=sent, minlength=self.n_cells)
        self.bytes_total += float(sent.sum())
        self.packets_total += int(n.sum())

        if self.mode == MODE_PACKET:
            self._schedule_packet_events(now, boundary, live, n, carry_b, r,
                                         finished)
        else:
            self._emit_policy_crossings(now, boundary, live, n, emit_b,
                                        carry_b, r)
            self._complete_fluid(now, boundary, live, n, carry_b, r,
                                 finished)

    # -- fluid mode --------------------------------------------------------

    def _emit_policy_crossings(self, now, boundary, live, n, emit_b,
                               carry_b, r):
        """Materialize leak packets whose byte offset was crossed.

        Only flows whose next pending leak index dropped below the new
        emitted count are touched — a vectorized select, then a Python
        loop over the hits (leaky flows only, ≈8 % of the bench mix).
        """
        next_leak = self.flows.col("next_leak")
        emitted_after = emit_b + n
        hits = np.nonzero(next_leak[live] < emitted_after)[0]
        if hits.size == 0:
            return
        specs = self.flows.col("spec")
        leak_pos = self.flows.col("leak_pos")
        for i in hits.tolist():
            slot = int(live[i])
            spec = specs[slot]
            pos = int(leak_pos[slot])
            e_after = int(emitted_after[i])
            e_before = int(emit_b[i])
            while (pos < len(spec.leak_packets)
                    and spec.leak_packets[pos] < e_after):
                k = spec.leak_packets[pos]
                offset = (((k - e_before + 1) * self._mtu_f - carry_b[i])
                          / r[i])
                # Clamp to the exact boundary float ((index+1) * tick):
                # the instant the next tick event fires at, so a leak on
                # the boundary still precedes it (NORMAL < BACKGROUND).
                at = min(now + float(offset), boundary)
                self.sim.schedule_at(at, self._policy_packet, spec, k,
                                     spec.leak_types[pos])
                pos += 1
            leak_pos[slot] = pos
            next_leak[slot] = (spec.leak_packets[pos]
                               if pos < len(spec.leak_packets) else NO_LEAK)

    def _complete_fluid(self, now, boundary, live, n, carry_b, r,
                        finished):
        """Retire the flows that finished this tick, as one batch."""
        done = np.nonzero(finished)[0]
        if done.size == 0:
            return
        slots = live[done]
        if self.ledger.keep_records:
            # Clamp to the boundary float exactly like the packet
            # path clamps its last-packet event, or the two modes'
            # completion instants diverge by 1 ULP on flows that
            # finish precisely at a tick edge.
            instants = np.minimum(
                now + (n[done] * self._mtu_f - carry_b[done]) / r[done],
                boundary)
            # A finished flow has emitted all its packets.
            for device, seq, n_packets, instant in zip(
                    self.flows.col("device")[slots].tolist(),
                    self.flows.col("seq")[slots].tolist(),
                    self.flows.col("emitted")[slots].tolist(),
                    instants.tolist()):
                self.ledger.record("flow_complete", device, seq, n_packets)
                self.completion_times[(device, seq)] = instant
        else:
            self.ledger.bump("flow_complete", done.size)
        self._retire(slots, completed=True)

    def _policy_packet(self, spec: HybridFlow, pkt_index: int,
                       leak_type: str) -> None:
        """Event-simulate one policy-relevant packet (fluid mode)."""
        self.policy_packets += 1
        self._inspect_leak(spec, pkt_index, leak_type)

    # -- packet mode -------------------------------------------------------

    def _schedule_packet_events(self, now, boundary, live, n, carry_b, r,
                                finished):
        """One simulator event per emitted packet — the O(packets) cost."""
        idx = np.nonzero(n)[0]
        if idx.size == 0:
            return
        specs = self.flows.col("spec")
        for i in idx.tolist():
            slot = int(live[i])
            spec = specs[slot]
            generation = self.flows.generation(slot)
            count = int(n[i])
            rate = float(r[i])
            carried = float(carry_b[i])
            emitted_before = int(
                self.flows.col("emitted")[slot]) - count
            completes = bool(finished[i])
            for j in range(count):
                at = now + ((j + 1) * self._mtu_f - carried) / rate
                self.sim.schedule_at(
                    min(at, boundary), self._packet_event,
                    slot, generation, spec, emitted_before + j,
                    completes and j == count - 1)

    def _packet_event(self, slot: int, generation: int, spec: HybridFlow,
                      pkt_index: int, last: bool) -> None:
        """Fire one data packet: materialize, inspect if flagged, close."""
        self.packet_events += 1
        packet = self._materialize(spec, pkt_index)
        if spec.leak_packets and pkt_index in spec.leak_packets:
            self.policy_packets += 1
            leak_type = spec.leak_types[spec.leak_packets.index(pkt_index)]
            self._inspect_leak(spec, pkt_index, leak_type)
        else:
            # The pure-packet pipeline cannot know a priori which
            # packets carry PII — it inspects every payload.  (Fluid
            # mode is exempt precisely because the digest-parity gate
            # proves it accounts the same policy events without this.)
            self._scan_clear(spec, pkt_index)
        if last:
            self.ledger.record("flow_complete", spec.device, spec.seq,
                               spec.n_packets)
            if self.ledger.keep_records:
                self.completion_times[(spec.device, spec.seq)] = self.sim.now
            if self.flows.is_current(slot, generation):
                self._retire(np.array([slot], dtype=np.int64),
                             completed=True)

    # -- shared plumbing ---------------------------------------------------

    def _materialize(self, spec: HybridFlow, pkt_index: int,
                     handshake: bool = False) -> Packet:
        device = spec.device
        return Packet(
            src=f"10.{(device >> 8) % 250}.{device % 250}.2",
            dst="198.51.100.30" if spec.dst_device < 0
                else f"10.{(spec.dst_device >> 8) % 250}."
                     f"{spec.dst_device % 250}.2",
            protocol="tcp", src_port=40_000 + spec.seq % 20_000,
            dst_port=443 if spec.https else 80, size=self.mtu,
            flow_id=device * 1_000_003 + spec.seq, owner=f"d{device}",
            metadata={"handshake": True} if handshake else {},
        )

    def _scan_clear(self, spec: HybridFlow, pkt_index: int) -> None:
        """Honest per-packet DPI on a packet that carries no PII.

        Builds the request the app actually sent and runs the full
        pattern library over it; finds nothing, records nothing — but
        pays the inspection cost a real pipeline pays on every packet.
        """
        body = b"seg=%d&flow=%d" % (pkt_index, spec.seq)
        request = HttpRequest("POST", spec.host, "/data", body=body,
                              https=spec.https)
        for pattern in PII_PATTERNS.values():
            if pattern.search(request.body):  # pragma: no cover - benign
                raise AssertionError("clear-body packet matched PII")

    def _inspect_leak(self, spec: HybridFlow, pkt_index: int,
                      leak_type: str) -> None:
        """Run one flagged packet's payload past the real PII library."""
        body = _pii_body(leak_type, spec.device, spec.seq)
        request = HttpRequest("POST", spec.host, "/collect", body=body,
                              https=spec.https)
        hits = sorted({
            pii_type for pii_type, pattern in PII_PATTERNS.items()
            if pattern.search(request.body)
        })
        violation = bool(hits) and (spec.third_party or not spec.https)
        self.ledger.record(
            "pii", spec.device, spec.seq, int(pkt_index), ",".join(hits),
            int(spec.https), int(spec.third_party), int(violation))
        if violation:
            self.ledger.bump("pii_violation")

    def _retire(self, slots: np.ndarray, completed: bool) -> None:
        """Take live flows out of the table (completed or aborted)."""
        table = self.flows
        cell = table.col("cell")[slots]
        self.cell_count -= np.bincount(cell, minlength=self.n_cells)
        self.cell_dirty[cell] = True
        device = table.col("device")[slots]
        keep = np.ones(self._keys.size, dtype=np.bool_)
        keep[np.searchsorted(
            self._keys, device << _SEQ_BITS | table.col("seq")[slots])] = False
        self._keys = self._keys[keep]
        self._order = self._order[keep]
        if completed:
            self.flows_completed += slots.size
            dst = table.col("dst")[slots]
            cross = dst >= 0
            if cross.any():
                crossing = slots[cross]
                specs = table.col("spec")
                # A completed flow has emitted all its packets, and a
                # flow without an object has no leaks.
                for slot, src, to, seq, n_packets in zip(
                        crossing.tolist(), device[cross].tolist(),
                        dst[cross].tolist(),
                        table.col("seq")[crossing].tolist(),
                        table.col("emitted")[crossing].tolist()):
                    spec = specs[slot]
                    self.outbox.append((to, (
                        "xflow", src, to, seq, n_packets,
                        len(spec.leak_packets) if spec is not None else 0)))
        else:
            self.flows_aborted += slots.size
        table.release_many(slots)

    # -- telemetry taps ----------------------------------------------------

    def cell_rate_pps(self, cell: int) -> float:
        """Packet-equivalents per second carried by a cell, last tick."""
        return float(self._cell_bytes[cell]) / self._mtu_f / self.tick

    def counters(self) -> dict[str, float]:
        return {
            "ticks": self.ticks,
            "epochs": self.epochs,
            "cells_recomputed": self.cells_recomputed,
            "policy_packets": self.policy_packets,
            "packet_events": self.packet_events,
            "flows_opened": self.flows_opened,
            "flows_completed": self.flows_completed,
            "flows_aborted": self.flows_aborted,
            "packets_total": self.packets_total,
            "active_flows": len(self.flows),
        }

    def publish(self) -> None:
        """Fold the counters and flow-table occupancy into ``repro.obs``.

        Called at the end of a run, never per tick; with observability
        off it does nothing.  Table occupancy is published here rather
        than added to :meth:`counters`, whose key set is hashed into
        recorded digests.
        """
        obs = obs_runtime.current()
        if obs is None:
            return
        totals = self.counters()
        active = totals.pop("active_flows")
        obs.metrics.fold_totals(
            "repro_fluid_events", "Fluid-engine lifetime totals",
            ("mode",), {"mode": self.mode}, totals, extra_label="event")
        table = self.flows
        for name, help_text, value in (
                ("repro_fluid_active_flows", "Live flows", active),
                ("repro_fluid_table_high_water",
                 "Peak live flows in the flow table", table.high_water),
                ("repro_fluid_table_capacity",
                 "Allocated flow-table rows", table.capacity),
                ("repro_fluid_table_grows",
                 "Times the flow table doubled", table.grows)):
            obs.metrics.gauge(name, help_text, ("mode",)).labels(
                mode=self.mode).set(float(value))
