"""In-network prefetcher/cache middlebox (§4, "Offloading computation
and communication").

"Using PVNs, we can explore a middle ground, where we run code on the
middlebox that prefetches content to move it closer to users, without
consuming device resources."

The module keeps an LRU object cache keyed by URL.  On a request hit
it annotates the packet so the data plane serves the cached copy over
the short middlebox->device leg.  On a response it caches the object
and *prefetches* linked URLs (declared in an ``x-links`` header, the
simulation's stand-in for parsed HTML) using network bandwidth that —
crucially for the paper's energy argument — is charged to the
middlebox, not the device.
"""

from __future__ import annotations

import collections

from repro.netproto.http import HttpRequest, HttpResponse
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict


#: Constant verdicts, built once instead of per packet.
_NOT_HTTP = Verdict.passed("not HTTP")
_CACHE_MISS = Verdict.passed("cache miss")
_CACHED_AND_PREFETCHED = Verdict.passed("cached and prefetched")


class LruCache:
    """A byte-bounded LRU object cache."""

    def __init__(self, capacity_bytes: int = 50_000_000) -> None:
        self.capacity_bytes = capacity_bytes
        self._entries: collections.OrderedDict[str, bytes] = (
            collections.OrderedDict()
        )
        self.size_bytes = 0

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, url: str) -> bytes | None:
        if url not in self._entries:
            return None
        self._entries.move_to_end(url)
        return self._entries[url]

    def put(self, url: str, body: bytes) -> None:
        if len(body) > self.capacity_bytes:
            return
        if url in self._entries:
            self.size_bytes -= len(self._entries.pop(url))
        self._entries[url] = body
        self.size_bytes += len(body)
        while self.size_bytes > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.size_bytes -= len(evicted)

    def export_entries(self) -> list[tuple[str, bytes]]:
        """Entries in LRU order (least recent first)."""
        return list(self._entries.items())

    def import_entries(self, entries: list[tuple[str, bytes]]) -> None:
        """Replace the cache contents, preserving LRU order."""
        self._entries.clear()
        self.size_bytes = 0
        for url, body in entries:
            self.put(url, bytes(body))


class Prefetcher(Middlebox):
    """URL cache + link prefetch, charged to the network side."""

    service = "prefetcher"

    def __init__(
        self,
        cache: LruCache | None = None,
        fetch_callback=None,
        prefetch_depth: int = 8,
    ) -> None:
        super().__init__("prefetcher")
        self.cache = cache or LruCache()
        # fetch_callback(url) -> bytes | None; the deployment wires this
        # to the origin-facing side.  None = record intent only.
        self.fetch_callback = fetch_callback
        self.prefetch_depth = prefetch_depth
        self.hits = 0
        self.misses = 0
        self.prefetches_issued = 0
        self.prefetch_bytes = 0     # bytes moved on the network side
        self.bytes_served_from_cache = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def export_state(self) -> dict:
        state = super().export_state()
        state.update(
            cache_capacity=self.cache.capacity_bytes,
            cache_entries=[
                [url, body] for url, body in self.cache.export_entries()
            ],
            hits=self.hits,
            misses=self.misses,
            prefetches_issued=self.prefetches_issued,
            prefetch_bytes=self.prefetch_bytes,
            bytes_served_from_cache=self.bytes_served_from_cache,
        )
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self.cache.capacity_bytes = state.get(
            "cache_capacity", self.cache.capacity_bytes
        )
        self.cache.import_entries(
            [(url, body) for url, body in state.get("cache_entries", [])]
        )
        self.hits = state.get("hits", 0)
        self.misses = state.get("misses", 0)
        self.prefetches_issued = state.get("prefetches_issued", 0)
        self.prefetch_bytes = state.get("prefetch_bytes", 0)
        self.bytes_served_from_cache = state.get("bytes_served_from_cache", 0)

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        payload = packet.payload
        if isinstance(payload, HttpRequest):
            return self._on_request(packet, payload)
        if isinstance(payload, HttpResponse):
            return self._on_response(packet, payload)
        return _NOT_HTTP

    def _on_request(self, packet: Packet, request: HttpRequest) -> Verdict:
        cached = self.cache.get(request.url)
        if cached is None:
            self.misses += 1
            return _CACHE_MISS
        self.hits += 1
        self.bytes_served_from_cache += len(cached)
        packet.metadata["served_from_cache"] = True
        packet.metadata["cached_body"] = cached
        return Verdict.rewritten("served from cache", url=request.url)

    def _on_response(self, packet: Packet, response: HttpResponse) -> Verdict:
        url = packet.metadata.get("url", "")
        if url:
            self.cache.put(url, response.body)
        links = [
            link for link in response.header("x-links").split(",") if link
        ]
        for link in links[: self.prefetch_depth]:
            if link in self.cache:
                continue
            self.prefetches_issued += 1
            if self.fetch_callback is not None:
                body = self.fetch_callback(link)
                if body is not None:
                    self.cache.put(link, body)
                    self.prefetch_bytes += len(body)
        return _CACHED_AND_PREFETCHED
