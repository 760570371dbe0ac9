"""E8 — §4 offloading computation and communication.

"Many apps pre-fetch content to reduce user-perceived delays, but
this can be costly in terms of data quota and battery life if the
pre-fetched content is not used.  Using PVNs, we can explore a middle
ground, where we run code on the middlebox that prefetches content to
move it closer to users, without consuming device resources."

A browsing session walks a linked page graph.  Three prefetch
strategies are compared: none, on-device prefetching (every linked
object crosses the wireless link whether used or not), and the PVN
prefetcher (linked objects move to the in-network cache; only used
objects cross the wireless link).  Report mean fetch latency, device
bytes, and device energy.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult, main
from repro.middleboxes.prefetcher import LruCache, Prefetcher
from repro.workloads.device_cost import EnergyModel

#: Latency components.
RTT_DEVICE_TO_MBOX = 0.020     # device <-> in-network middlebox
RTT_DEVICE_TO_ORIGIN = 0.090   # device <-> origin server


def _page_graph(rng: np.random.Generator, n_pages: int,
                links_per_page: int, object_bytes: int):
    """Pages, each linking to ``links_per_page`` others."""
    pages = {f"http://site.example/p{i}": b"x" * object_bytes
             for i in range(n_pages)}
    links = {
        url: [f"http://site.example/p{int(rng.integers(n_pages))}"
              for _ in range(links_per_page)]
        for url in pages
    }
    return pages, links


def _browse(rng: np.random.Generator, pages, links, n_clicks: int,
            follow_link_prob: float) -> list[str]:
    """The user's click stream: mostly follows links, sometimes jumps."""
    urls = sorted(pages)
    current = urls[0]
    visited = [current]
    for _ in range(n_clicks - 1):
        if rng.random() < follow_link_prob and links[current]:
            current = links[current][int(rng.integers(len(links[current])))]
        else:
            current = urls[int(rng.integers(len(urls)))]
        visited.append(current)
    return visited


def run(
    seed: int = 0,
    n_clicks: int = 120,
) -> ExperimentResult:
    n_pages = 60
    object_bytes = 150_000
    links_per_page = 4
    follow_link_prob = 0.7
    rng = np.random.default_rng(seed)
    pages, links = _page_graph(rng, n_pages, links_per_page, object_bytes)
    clicks = _browse(np.random.default_rng(seed + 1), pages, links,
                     n_clicks, follow_link_prob)
    model = EnergyModel()

    rows = []
    metrics: dict[str, float] = {}
    for strategy in ("none", "on-device", "pvn prefetcher"):
        device_bytes = 0
        latencies = []
        if strategy == "pvn prefetcher":
            prefetcher = Prefetcher(cache=LruCache(capacity_bytes=10**9),
                                    fetch_callback=lambda url: pages[url],
                                    prefetch_depth=links_per_page)
        # Every strategy gets an ordinary browser cache for pages that
        # actually crossed the radio; the strategies differ only in
        # what happens speculatively.
        device_cache: set[str] = set()
        network_cache = (prefetcher.cache if strategy == "pvn prefetcher"
                         else None)
        for url in clicks:
            if url in device_cache:
                latencies.append(0.0)      # already on the device
            elif network_cache is not None and url in network_cache:
                latencies.append(RTT_DEVICE_TO_MBOX)
                device_bytes += len(pages[url])
                device_cache.add(url)
            else:
                latencies.append(RTT_DEVICE_TO_ORIGIN)
                device_bytes += len(pages[url])
                device_cache.add(url)
            # After the page loads, prefetch its links.
            if strategy == "on-device":
                for link in links[url]:
                    if link not in device_cache:
                        device_cache.add(link)
                        device_bytes += len(pages[link])  # over the radio!
            elif strategy == "pvn prefetcher":
                for link in links[url]:
                    if link not in network_cache:
                        network_cache.put(link, pages[link])
                        prefetcher.prefetches_issued += 1
                        prefetcher.prefetch_bytes += len(pages[link])
                network_cache.put(url, pages[url])

        energy = model.radio_energy(device_bytes)
        rows.append((
            strategy,
            float(np.mean(latencies)) * 1e3,
            device_bytes / 1e6,
            energy,
            f"{model.battery_fraction(energy) * 100:.4f}%",
        ))
        key = strategy.split(" ")[0].replace("-", "_")
        metrics[f"latency_ms_{key}"] = float(np.mean(latencies)) * 1e3
        metrics[f"device_mb_{key}"] = device_bytes / 1e6
        metrics[f"energy_j_{key}"] = energy

    return ExperimentResult(
        experiment_id="E8",
        title="§4 offloading: prefetch strategies — latency vs device "
              "bytes vs energy",
        columns=["strategy", "mean fetch latency (ms)",
                 "device bytes (MB)", "device energy (J)", "battery"],
        rows=rows,
        metrics=metrics,
        notes=[
            "on-device prefetch is fastest but moves every speculative "
            "object over the radio (quota + battery)",
            "the PVN prefetcher keeps speculative traffic on the network "
            "side: near-prefetch latency at no extra device cost",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
