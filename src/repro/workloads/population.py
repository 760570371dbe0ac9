"""Open-loop Poisson population workloads for the hybrid engine.

Earlier experiments drove churn with *scripted batches*: a Python loop
deciding, per device, when to attach and what to send.  At 10^6
devices that loop IS the bottleneck, and its draws depend on visit
order — poison for shard determinism.  This module instead *compiles*
the whole population's event schedule up front with vectorized keyed
randomness:

* Every draw is a pure function of ``(seed, tag, device, k)`` via a
  splitmix64 finalizer over ``uint64`` arrays — no per-device
  generator objects, no order dependence.  The same device produces
  the same attach time, flow arrivals, migrations, and flow contents
  no matter which shard simulates it or which mode replays it; that
  is the invariant behind both fluid/packet digest parity and the
  shards-1 == shards-2 merge gate.
* Arrival processes are open-loop Poisson: per-device exponential
  inter-arrival chains of bounded depth ``K`` (events past the
  truncation or the horizon are dropped — the tail probability is
  negligible at the configured depths and identical everywhere).
* Schedules are flattened, bucketed by engine tick, and sorted by
  ``(tick, device, k)``; :meth:`PopulationWorkload.tick_events` is a
  pair of ``searchsorted`` slices per tick.

Flow *contents* (size, kind, HTTPS, leak gate, cross-shard
destination, and the variable-length leak positions and types) are
derived from the same keyed hash as bulk columns, for the flows this
shard owns; a tick's flows reach the engine as a
:class:`~repro.netsim.fluid.FlowBatch` of slices of those columns.
Only the :class:`~repro.netsim.fluid.HybridFlow` object itself is
built lazily — for the flows whose object something reads.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.netsim.fluid import PII_TYPES, FlowBatch, HybridFlow
from repro.netsim.randomness import derive_seed

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_WEYL = 0xD1B54A32D192ED03

#: Flow mix: (kind, weight, mean packets, device-rate cap multiplier).
#: Sizes are MTU-sized packets: api ~30KB exchanges, web ~300KB pages,
#: video ~3.75MB segments, iot ~9KB telemetry bursts.
FLOW_KINDS = (
    ("api", 0.40, 20, 1.0),
    ("web", 0.30, 200, 1.0),
    ("video", 0.15, 2500, 1.0),
    ("iot", 0.15, 6, 0.032),
)

#: Hard per-flow size cap as a multiple of the kind's mean (keeps the
#: packet-mode baseline's event count bounded).
_SIZE_CAP_MULTIPLE = 8


def _mix(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a ``uint64`` array."""
    z = (x + np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix_int(x: int) -> int:
    """Scalar splitmix64 finalizer (python ints, mod 2^64)."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _u01(bits: np.ndarray) -> np.ndarray:
    """Map 64-bit words to uniform floats in [0, 1)."""
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


@dataclasses.dataclass(frozen=True)
class PopulationSpec:
    """Shape of the simulated population (rates are per device)."""

    devices: int = 1000
    cells: int = 16
    horizon: float = 30.0
    attach_ramp: float = 5.0          # attach times ~ U[0, ramp)
    flows_per_device_s: float = 0.05  # Poisson flow arrivals after attach
    detach_rate: float = 0.0          # exp(rate) lifetime after attach
    migrate_rate: float = 0.004       # Poisson cell migrations
    audit_rate: float = 0.002         # Poisson auditor probes
    cross_fraction: float = 0.05      # flows targeting another device
    leak_probability: float = 0.08    # flows that emit PII packets
    https_fraction: float = 0.6
    third_party_fraction: float = 0.3
    device_rate_bps: float = 2_000_000.0
    max_chain: int = 0                # 0 = auto Poisson truncation depth

    def chain_depth(self, rate: float) -> int:
        """Truncation depth K for a per-device Poisson chain."""
        if self.max_chain:
            return self.max_chain
        lam = rate * self.horizon
        return max(2, int(math.ceil(lam * 2.5 + 3.0)))


@dataclasses.dataclass
class TickBatch:
    """One tick's population events, in the engine's apply order."""

    attach_devices: np.ndarray
    attach_cells: np.ndarray
    flows: FlowBatch
    migrates: list[tuple[int, int, int]]
    probes: list[tuple[int, int]]
    detaches: list[tuple[int, int]]


class PopulationWorkload:
    """Compiled per-tick event schedule for one shard of a population.

    ``shard_index``/``shard_count`` partition devices by
    ``device % shard_count``; every schedule and every flow attribute
    is keyed per device, so repartitioning never changes what any
    device does.
    """

    def __init__(self, spec: PopulationSpec, seed: int, tick: float,
                 shard_index: int = 0, shard_count: int = 1) -> None:
        if not 0 <= shard_index < shard_count:
            raise ValueError("shard_index must be in [0, shard_count)")
        self.spec = spec
        self.seed = int(seed)
        self.tick = float(tick)
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        self.ticks_total = max(1, int(round(spec.horizon / tick)))
        self._flow_base = derive_seed(self.seed, "pop:flow-attrs")
        self._compile()

    # -- keyed randomness --------------------------------------------------

    def _bits(self, tag: str, idx: np.ndarray) -> np.ndarray:
        base = np.uint64(derive_seed(self.seed, f"pop:{tag}"))
        return _mix(idx.astype(np.uint64) * np.uint64(_WEYL) + base)

    def _uniform(self, tag: str, idx: np.ndarray) -> np.ndarray:
        return _u01(self._bits(tag, idx))

    def _exponential(self, tag: str, idx: np.ndarray,
                     rate: float) -> np.ndarray:
        return -np.log1p(-self._uniform(tag, idx)) / rate

    # -- schedule compilation ----------------------------------------------

    def _chain(self, tag: str, start: np.ndarray, rate: float,
               depth: int) -> np.ndarray:
        """Per-device Poisson arrival chains from ``start`` (N x K)."""
        n = len(start)
        gaps = np.empty((n, depth), dtype=np.float64)
        idx = np.arange(n, dtype=np.uint64)
        for k in range(depth):
            gaps[:, k] = self._exponential(f"{tag}:{k}", idx, rate)
        return start[:, None] + np.cumsum(gaps, axis=1)

    def _compile(self) -> None:
        spec = self.spec
        n = spec.devices
        idx = np.arange(n, dtype=np.uint64)
        mine = (np.arange(n, dtype=np.int64) % self.shard_count
                == self.shard_index)

        attach_t = self._uniform("attach", idx) * spec.attach_ramp
        self.cells = (self._bits("cell", idx)
                      % np.uint64(max(1, spec.cells))).astype(np.int64)
        if spec.detach_rate > 0:
            detach_t = attach_t + self._exponential(
                "detach", idx, spec.detach_rate)
        else:
            detach_t = np.full(n, np.inf)

        live = attach_t < spec.horizon
        self._attaches = self._bucket_events(
            attach_t, np.zeros(n, dtype=np.int64), live & mine)
        self._detaches = self._bucket_events(
            detach_t, np.zeros(n, dtype=np.int64),
            (detach_t < spec.horizon) & mine)

        self._flows = self._bucket_chain(
            "flows", attach_t, detach_t, spec.flows_per_device_s, mine)
        self._migrates = self._bucket_chain(
            "migrates", attach_t, detach_t, spec.migrate_rate, mine)
        # Each migration's target cell, keyed like the flow attributes.
        _, devices, ks = self._migrates
        self._migrates += ((_mix(
            np.uint64(self._flow_base)
            ^ (devices.astype(np.uint64) * np.uint64(_WEYL)
               + ks.astype(np.uint64)))
            % np.uint64(max(1, spec.cells))).astype(np.int64),)
        self._probes = self._bucket_chain(
            "probes", attach_t, detach_t, spec.audit_rate, mine)
        self._compile_flow_attrs()

    def _bucket_chain(self, tag, attach_t, detach_t, rate, mine):
        if rate <= 0:
            empty = np.zeros(0, dtype=np.int64)
            return (empty, empty.copy(), empty.copy())
        depth = self.spec.chain_depth(rate)
        times = self._chain(tag, attach_t, rate, depth)
        valid = ((times < self.spec.horizon)
                 & (times < detach_t[:, None]) & mine[:, None])
        devices, ks = np.nonzero(valid)
        return self._sort_bucketed(times[valid], devices.astype(np.int64),
                                   ks.astype(np.int64))

    def _bucket_events(self, times, ks, valid):
        devices = np.nonzero(valid)[0].astype(np.int64)
        return self._sort_bucketed(times[valid], devices,
                                   ks[valid].astype(np.int64))

    def _sort_bucketed(self, times, devices, ks):
        ticks = np.minimum((times / self.tick).astype(np.int64),
                           self.ticks_total - 1)
        order = np.lexsort((ks, devices, ticks))
        return (ticks[order], devices[order], ks[order])

    @staticmethod
    def _slice(bucketed, index):
        ticks, *columns = bucketed
        lo, hi = np.searchsorted(ticks, [index, index + 1])
        return [column[lo:hi] for column in columns]

    # -- per-flow attributes (vectorized, keyed) ---------------------------

    def _compile_flow_attrs(self) -> None:
        """Bulk-derive every scheduled flow's attributes as arrays.

        The draw schedule is FIXED (seven keyed draws per flow, in
        order: kind, size, https, third-party, leak gate, cross gate,
        destination) so the whole table vectorizes; the variable-length
        leak details continue the same hash chain, only for the (rare)
        leaky flows (:meth:`_compile_leaks`).  :meth:`flow_spec` is the
        scalar reference for the identical derivation — the tests
        assert equality.
        """
        spec = self.spec
        _, devices, ks = self._flows
        n = len(devices)
        key = (devices.astype(np.uint64) * np.uint64(_GOLDEN)
               + ks.astype(np.uint64) * np.uint64(_WEYL))
        h = _mix(key ^ np.uint64(self._flow_base))
        draws = []
        for _ in range(7):
            h = _mix(h)
            draws.append(h)
        us = [_u01(d) for d in draws[:6]]
        weights = np.cumsum([w for _, w, _, _ in FLOW_KINDS])
        means = np.array([m for _, _, m, _ in FLOW_KINDS], dtype=np.int64)
        mults = np.array([m for _, _, _, m in FLOW_KINDS])
        kind_idx = np.minimum(
            np.searchsorted(weights, us[0], side="right"),
            len(FLOW_KINDS) - 1)
        mean = means[kind_idx]
        n_packets = 1 + (mean * -np.log1p(-us[1])).astype(np.int64)
        self._n_packets = np.minimum(n_packets,
                                     mean * _SIZE_CAP_MULTIPLE + 1)
        self._kind_idx = kind_idx
        self._cap = spec.device_rate_bps * mults[kind_idx]
        self._https = us[2] < spec.https_fraction
        self._third_party = us[3] < spec.third_party_fraction
        self._leaky = us[4] < spec.leak_probability
        self._dst = np.where(
            us[5] < spec.cross_fraction,
            (draws[6] % np.uint64(max(1, spec.devices))).astype(np.int64),
            np.int64(-1)) if n else np.zeros(0, dtype=np.int64)
        self._compile_leaks(draws[6])

    def _compile_leaks(self, seeds: np.ndarray) -> None:
        """Every leaky flow's leak positions and types, as flat columns.

        :meth:`_leak_details` over all leaky flows at once: the chain
        continues from the flow's last draw with ``n_leaks = 1 + h1 %
        3``, positions ``h2 .. h(1 + n_leaks)`` mod ``n_packets``
        (sorted, deduplicated), then one type draw per unique position.
        Flow ``i``'s leaks are ``_leak_packets[_leak_ptr[i]:_leak_ptr[i
        + 1]]``, index-aligned with ``_leak_types`` (empty if it has
        none).
        """
        leaky = np.nonzero(self._leaky)[0]
        # One count draw, at most three position and three type draws.
        chain = np.empty((leaky.size, 7), dtype=np.uint64)
        h = seeds[leaky]
        for j in range(7):
            h = _mix(h)
            chain[:, j] = h
        n_leaks = 1 + (chain[:, 0] % np.uint64(3)).astype(np.int64)
        drawn = (chain[:, 1:4] % self._n_packets[leaky, None].astype(
            np.uint64)).astype(np.int64)
        # Draws past a flow's n_leaks become a sentinel that sorts last.
        unused = np.iinfo(np.int64).max
        drawn[np.arange(3) >= n_leaks[:, None]] = unused
        drawn.sort(axis=1)
        first = drawn != unused
        first[:, 1:] &= drawn[:, 1:] != drawn[:, :-1]
        rows, _ = np.nonzero(first)
        rank = (np.cumsum(first, axis=1) - 1)[first]
        type_draws = chain[rows, 1 + n_leaks[rows] + rank]
        self._leak_packets = drawn[first]
        self._leak_types = np.asarray(PII_TYPES)[
            (type_draws % np.uint64(len(PII_TYPES))).astype(np.int64)]
        per_flow = np.zeros(len(self._leaky), dtype=np.int64)
        per_flow[leaky] = first.sum(axis=1)
        self._leak_ptr = np.concatenate(([0], np.cumsum(per_flow)))

    def _leak_details(self, h: int,
                      n_packets: int) -> tuple[tuple, tuple]:
        """Leak positions/types: scalar continuation of the flow's chain
        (the reference :meth:`_compile_leaks` must match)."""
        def draw() -> int:
            nonlocal h
            h = _mix_int(h)
            return h

        n_leaks = 1 + draw() % 3
        positions = sorted({draw() % n_packets for _ in range(n_leaks)})
        types = tuple(PII_TYPES[draw() % len(PII_TYPES)] for _ in positions)
        return tuple(positions), types

    def _flow_at(self, position: int) -> HybridFlow:
        """Materialize the flow at one schedule position."""
        _, devices, ks = self._flows
        start, end = self._leak_ptr[position:position + 2].tolist()
        third_party = bool(self._third_party[position])
        return HybridFlow(
            device=int(devices[position]), seq=int(ks[position]),
            n_packets=int(self._n_packets[position]),
            cap_bps=float(self._cap[position]),
            kind=FLOW_KINDS[self._kind_idx[position]][0],
            https=bool(self._https[position]), third_party=third_party,
            leak_packets=tuple(self._leak_packets[start:end].tolist()),
            leak_types=tuple(self._leak_types[start:end].tolist()),
            dst_device=int(self._dst[position]),
            host="tracker.example.net" if third_party
                 else "app.example.com",
        )

    def flow_spec(self, device: int, k: int) -> HybridFlow:
        """Scalar reference: one flow's spec from ``(seed, device, k)``.

        Must match :meth:`_compile_flow_attrs` draw for draw — the
        property tests cross-check the two paths.
        """
        spec = self.spec
        h = _mix_int(((device * _GOLDEN + k * _WEYL) & _MASK)
                     ^ self._flow_base)
        draws = []
        for _ in range(7):
            h = _mix_int(h)
            draws.append(h)
        us = [(d >> 11) * (2.0 ** -53) for d in draws[:6]]
        acc = 0.0
        kind, mean, mult = FLOW_KINDS[-1][0], FLOW_KINDS[-1][2], \
            FLOW_KINDS[-1][3]
        for name, weight, kind_mean, kind_mult in FLOW_KINDS:
            acc += weight
            if us[0] < acc:
                kind, mean, mult = name, kind_mean, kind_mult
                break
        n_packets = 1 + int(mean * -math.log1p(-us[1]))
        n_packets = min(n_packets, mean * _SIZE_CAP_MULTIPLE + 1)
        https = us[2] < spec.https_fraction
        third_party = us[3] < spec.third_party_fraction
        leak_packets: tuple[int, ...] = ()
        leak_types: tuple[str, ...] = ()
        if us[4] < spec.leak_probability:
            leak_packets, leak_types = self._leak_details(
                draws[6], n_packets)
        dst_device = (draws[6] % max(1, spec.devices)
                      if us[5] < spec.cross_fraction else -1)
        return HybridFlow(
            device=int(device), seq=int(k), n_packets=int(n_packets),
            cap_bps=spec.device_rate_bps * mult, kind=kind, https=https,
            third_party=third_party, leak_packets=leak_packets,
            leak_types=leak_types, dst_device=int(dst_device),
            host="tracker.example.net" if third_party
                 else "app.example.com",
        )

    # -- the engine-facing surface -----------------------------------------

    def tick_events(self, index: int) -> TickBatch:
        """All population events landing in tick ``index``."""
        attach_devices, _ = self._slice(self._attaches, index)
        flow_lo, flow_hi = np.searchsorted(self._flows[0],
                                           [index, index + 1])
        migrate_devices, migrate_ks, migrate_cells = self._slice(
            self._migrates, index)
        probe_devices, probe_ks = self._slice(self._probes, index)
        detach_devices, detach_ks = self._slice(self._detaches, index)
        flows = slice(flow_lo, flow_hi)
        return TickBatch(
            attach_devices=attach_devices,
            attach_cells=self.cells[attach_devices],
            flows=FlowBatch(
                device=self._flows[1][flows], seq=self._flows[2][flows],
                n_packets=self._n_packets[flows], cap_bps=self._cap[flows],
                https=self._https[flows], leaky=self._leaky[flows],
                dst_device=self._dst[flows],
                flow_at=lambda i: self._flow_at(flow_lo + i)),
            migrates=list(zip(migrate_devices.tolist(),
                              migrate_cells.tolist(), migrate_ks.tolist())),
            probes=list(zip(probe_devices.tolist(), probe_ks.tolist())),
            detaches=list(zip(detach_devices.tolist(),
                              detach_ks.tolist())),
        )

    def counts(self) -> dict[str, int]:
        """Scheduled event totals for this shard (diagnostics/tests)."""
        return {
            "attaches": len(self._attaches[0]),
            "flows": len(self._flows[0]),
            "migrates": len(self._migrates[0]),
            "probes": len(self._probes[0]),
            "detaches": len(self._detaches[0]),
        }
