"""Flow caches for the SDN fast path (OVS-style): microflow + megaflow.

A :class:`FlowCache` memoizes, per exact packet key
(:meth:`~repro.netsim.packet.Packet.flow_key`: five-tuple + ``owner``),
the *winning* :class:`~repro.sdn.flowtable.FlowRule` of a priority flow
table together with its pre-resolved action closure.
The first packet of a flow pays the table classification and the action
compilation; every later packet of the same flow is a dict hit plus a
direct closure call, so per-packet cost no longer grows with the total
number of installed PVN rules (§4's "can access ISPs afford a virtual
network per device?" made O(1) instead of O(rules)).

A :class:`MegaflowCache` sits behind it for the flows the exact-match
tier cannot help with: the *first* packet of every new five-tuple.
Instead of one entry per microflow it holds one entry per
``(wildcard mask, masked key)`` — the minimal match superset derived
by rule cross-producting (:meth:`~repro.sdn.flowtable.FlowTable.classify`).
Under flow churn (new ports per connection) every new microflow whose
masked fields are unchanged hits the megaflow tier and never pays a
classification; the switch's lookup order is microflow -> megaflow ->
full classification, and both tiers are always on.  Soundness of
serving any megaflow hit comes from the mask derivation: two packets
with equal masked keys provably take the identical accept/reject path
through the rule table, so whichever entry matches first yields the
same winner.

Correctness rests on two fences:

* **Table generation** — :class:`~repro.sdn.flowtable.FlowTable` bumps
  a monotone ``generation`` counter on every ``install`` / ``remove`` /
  ``remove_pvn``.  A cache whose entries were filled under an older
  generation flushes itself before serving anything (lazy), and the
  controller flushes eagerly on rule pushes, so a cached winner can
  never shadow a newly installed higher-priority rule nor survive its
  own removal.
* **Epoch fence** — migration cutovers advance an epoch token
  (:meth:`fence`).  A token change flushes everything, so a cached
  pipeline closure compiled against a superseded deployment is never
  served after the cutover.

Misses are cached too (negative entries): a flow that punts to the
controller keeps punting without re-scanning the table.

The cache keeps ``hits`` / ``misses`` / ``invalidations`` /
``insertions`` / ``evictions`` counters; experiments read them off the
cache, and :meth:`FlowCache.publish` folds them into the
``repro_flowcache_events_total`` metric family.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable

from repro.netsim.packet import Packet
from repro.obs import runtime as obs_runtime
from repro.sdn.flowtable import FlowRule
from repro.sdn.match import MatchMask

#: What a cache entry executes: the pre-resolved action closure.
ActionClosure = Callable[[Packet], None]

#: Default entry bound; far above any experiment's concurrent flow count.
DEFAULT_CAPACITY = 65536

#: Megaflow lookups between mask-list re-sorts (see MegaflowCache).
MASK_RESORT_INTERVAL = 512


@dataclasses.dataclass(slots=True)
class CacheEntry:
    """One memoized lookup result.

    ``rule`` is ``None`` for a negative entry (table miss); ``closure``
    is then the punt/drop path.  ``generation`` records the table
    generation the entry was filled under.  Slotted, and built
    positionally on the miss path.
    """

    rule: FlowRule | None
    closure: ActionClosure
    generation: int


class FlowCache:
    """Exact-match memoization in front of a priority flow table."""

    def __init__(
        self,
        name: str = "flowcache",
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.name = name
        self.capacity = max(1, capacity)
        self._entries: "collections.OrderedDict[tuple, CacheEntry]" = (
            collections.OrderedDict()
        )
        self._generation = 0          # table generation entries are valid for
        self._epoch_token: object = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0        # entries dropped by flushes
        self.flushes = 0              # flush events
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- invalidation fences ------------------------------------------------

    def ensure_generation(self, generation: int) -> None:
        """Flush iff the table moved past the cached generation."""
        if generation != self._generation:
            self.flush()
            self._generation = generation

    def fence(self, token: object) -> None:
        """Adopt an epoch-fence token; a change flushes everything.

        Migration cutovers call this so closures compiled against the
        superseded deployment can never serve post-cutover traffic.
        """
        if token != self._epoch_token:
            if self._entries:
                self.flush()
            self._epoch_token = token

    def flush(self) -> int:
        """Drop every entry; returns how many were invalidated."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self.invalidations += dropped
        self.flushes += 1
        return dropped

    # -- the fast path ------------------------------------------------------

    def lookup(self, key: tuple, generation: int) -> CacheEntry | None:
        """The memoized entry for an exact-match key
        (:meth:`~repro.netsim.packet.Packet.flow_key`), or None on a
        miss.  The switch builds the key once per packet, for the lookup
        and for the :meth:`store` that follows a miss.

        Checks the table-generation fence first, so a stale cache never
        answers.
        """
        if generation != self._generation:
            self.ensure_generation(generation)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        # LRU, not FIFO: a hit refreshes the entry's position so hot
        # long-lived flows survive capacity pressure from bursts of
        # one-packet flows (which age out from the cold end instead).
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: tuple, entry: CacheEntry) -> None:
        """Memoize ``entry`` under an exact-match key; the switch
        shares the megaflow tier's entry object rather than allocating
        one per microflow."""
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = entry
        self.insertions += 1

    # -- observability ------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def publish(self) -> None:
        """Fold the counters into the metrics registry
        (``repro_flowcache_events_total`` counters plus a
        ``repro_flowcache_entries`` gauge); a no-op while observability
        is off."""
        obs = obs_runtime.current()
        if obs is not None:
            totals = self.counters()
            entries = totals.pop("entries")
            obs.metrics.fold_totals(
                "repro_flowcache_events",
                "Microflow-cache hit/miss/invalidation totals",
                ("cache",), {"cache": self.name}, totals, extra_label="event",
            )
            obs.metrics.gauge(
                "repro_flowcache_entries",
                "Live microflow-cache entries", ("cache",),
            ).labels(cache=self.name).set(entries)


class MegaflowCache:
    """Wildcard megaflow tier: one entry per (mask, masked key).

    Entries are produced by :meth:`~repro.sdn.flowtable.FlowTable.classify`
    — the winner plus the minimal mask whose bits pin the whole
    accept/reject path through the rule order — so a hit under *any*
    stored mask is guaranteed to yield the same winner a full
    classification would.  Lookup probes each distinct mask of the
    mask list (the OVS datapath's mask list); the number of distinct
    masks tracks the number of distinct field-combinations the rule
    table examines, which is small in practice and reported as a gauge.

    The mask list is kept sorted by *observed hit frequency*: every
    ``resort_interval`` lookups it is re-sorted by descending
    per-mask hit count (mask insertion order breaks ties, so the order
    is deterministic).  A lookup walks masks until one matches, so the
    expected probe count is minimized when the hottest masks sit at
    the front — the same trick the OVS kernel datapath plays with its
    per-CPU mask cache.  Because all matching entries agree on the
    winner (the derivation invariant above), probe order is
    unobservable in results; the megaflow test suite's equivalence
    property against a linear-scan reference switch pins that down.

    The same two fences as :class:`FlowCache` apply — table-generation
    (lazy) and epoch token (migration cutovers) — so a megaflow can
    never serve a stale winner or a superseded closure.  Eviction is
    LRU across all masks.
    """

    def __init__(
        self,
        name: str = "megaflow",
        capacity: int = DEFAULT_CAPACITY,
        resort_interval: int = MASK_RESORT_INTERVAL,
    ) -> None:
        self.name = name
        self.capacity = max(1, capacity)
        self.resort_interval = max(1, resort_interval)
        # Lookup stores, one dict per distinct mask, probed in
        # _mask_order (descending hit count, periodically re-sorted).
        self._by_mask: dict[MatchMask, dict[tuple, CacheEntry]] = {}
        self._mask_order: list[MatchMask] = []
        self._mask_hits: dict[MatchMask, int] = {}
        self._mask_seq: dict[MatchMask, int] = {}   # insertion tiebreak
        self._next_mask_seq = 0
        self._lookups_since_resort = 0
        # Recency order over (mask, key) pairs; value is unused.
        self._lru: "collections.OrderedDict[tuple, None]" = (
            collections.OrderedDict()
        )
        self._generation = 0
        self._epoch_token: object = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.flushes = 0
        self.insertions = 0
        self.evictions = 0
        self.resorts = 0              # re-sorts that changed the order

    def __len__(self) -> int:
        return len(self._lru)

    # -- invalidation fences ------------------------------------------------

    def ensure_generation(self, generation: int) -> None:
        """Flush iff the table moved past the cached generation."""
        if generation != self._generation:
            self.flush()
            self._generation = generation

    def fence(self, token: object) -> None:
        """Adopt an epoch-fence token; a change flushes everything."""
        if token != self._epoch_token:
            if self._lru:
                self.flush()
            self._epoch_token = token

    def flush(self) -> int:
        """Drop every entry (and every mask); returns the count."""
        dropped = len(self._lru)
        self._by_mask.clear()
        self._lru.clear()
        self._mask_order.clear()
        self._mask_hits.clear()
        self._mask_seq.clear()
        self._lookups_since_resort = 0
        if dropped:
            self.invalidations += dropped
        self.flushes += 1
        return dropped

    # -- the fast path ------------------------------------------------------

    def get(self, packet: Packet, generation: int) -> CacheEntry | None:
        """The first megaflow entry matching ``packet``, or None.

        Probes the mask list hottest-first; by the derivation
        invariant all matching entries agree on the winner, so the
        first suffices regardless of order.
        """
        if generation != self._generation:
            self.ensure_generation(generation)
        self._lookups_since_resort += 1
        if self._lookups_since_resort >= self.resort_interval:
            self._resort_masks()
        for mask in self._mask_order:
            key = mask.key_for(packet)
            entry = self._by_mask[mask].get(key)
            if entry is not None:
                self._mask_hits[mask] += 1
                self._lru.move_to_end((mask, key))
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def _resort_masks(self) -> None:
        """Reorder the mask list by descending observed hit count.

        Ties keep mask insertion order, so the result is a pure
        function of the lookup history — deterministic across runs.
        Counted only when the order actually changes.
        """
        self._lookups_since_resort = 0
        order = sorted(
            self._mask_order,
            key=lambda m: (-self._mask_hits[m], self._mask_seq[m]),
        )
        if order != self._mask_order:
            self._mask_order = order
            self.resorts += 1

    def put(
        self,
        packet: Packet,
        mask: MatchMask,
        rule: FlowRule | None,
        closure: ActionClosure,
        generation: int,
    ) -> CacheEntry:
        """Memoize one classification under its derived mask."""
        entry = CacheEntry(rule, closure, generation)
        while len(self._lru) >= self.capacity:
            (old_mask, old_key), _ = self._lru.popitem(last=False)
            store = self._by_mask.get(old_mask)
            if store is not None:
                store.pop(old_key, None)
                if not store:
                    self._drop_mask(old_mask)
            self.evictions += 1
        key = mask.key_for(packet)
        store = self._by_mask.get(mask)
        if store is None:
            # New mask enters at the tail of the probe order with a
            # zero hit count; re-sorts promote it if it turns out hot.
            store = self._by_mask[mask] = {}
            self._mask_order.append(mask)
            self._mask_hits[mask] = 0
            self._mask_seq[mask] = self._next_mask_seq
            self._next_mask_seq += 1
        store[key] = entry
        self._lru[(mask, key)] = None
        self.insertions += 1
        return entry

    def _drop_mask(self, mask: MatchMask) -> None:
        """Remove a mask whose last entry was evicted."""
        del self._by_mask[mask]
        self._mask_order.remove(mask)
        del self._mask_hits[mask]
        del self._mask_seq[mask]

    # -- observability ------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "mask_resorts": self.resorts,
            "entries": len(self._lru),
            "masks": len(self._by_mask),
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def publish(self) -> None:
        """Fold the counters into the metrics registry
        (``repro_megaflow_events_total`` plus entry and mask-count
        gauges) so hit rates ship as CI artifacts; a no-op while
        observability is off."""
        obs = obs_runtime.current()
        if obs is not None:
            totals = self.counters()
            entries = totals.pop("entries")
            masks = totals.pop("masks")
            obs.metrics.fold_totals(
                "repro_megaflow_events",
                "Megaflow-cache hit/miss/invalidation totals",
                ("cache",), {"cache": self.name}, totals, extra_label="event",
            )
            gauge = obs.metrics.gauge(
                "repro_megaflow_entries",
                "Live megaflow-cache entries", ("cache",),
            )
            gauge.labels(cache=self.name).set(entries)
            obs.metrics.gauge(
                "repro_megaflow_masks",
                "Distinct wildcard masks cached", ("cache",),
            ).labels(cache=self.name).set(masks)
