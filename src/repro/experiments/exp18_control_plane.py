"""E18 — §4 control-plane attach cost at scale.

The paper needs PVNs cheap enough to instantiate "for each device that
connects" to an access network.  E16/E21 made the *datapath* O(1) per
packet; this experiment measures the *control plane* — compile + embed
+ admit per attach — which is where E1's per-device cost now lives.
The world is prefilled to the target device count, then a batch of
further attaches runs, and the batch's cost is reported as counts:

* the content-addressed :class:`CompileCache` shares one compiled
  artifact across all devices with the same policy (its hit rate, and
  the batch's compiles: none);
* the :class:`EmbeddingIndex` memoizes the placement against a
  feasibility snapshot (its hits, and the batch's placement searches:
  none), and a digest over the batch's placement decisions;
* hosts answer admission from O(1) residual counters.  A host's load
  is the sum over the containers admitted to it, so an admission that
  rescanned the container table would sum over every live container
  on the host; the batch reports that count per launch, which grows
  with occupancy.

The host-time cost of a full attach (``Device.attach`` +
``establish_pvn``) is measured end to end by the ``attach_storm``
workload of ``python -m bench``.

The module also exposes the sharded form used by
``python -m repro run E18 --shards N`` (see
:mod:`repro.experiments.runner`): :func:`run_shard` attaches one
round-robin slice of the device population in an isolated world with
its own simulator, :func:`open_session` wraps it as the runner's
session of zero rounds, and :func:`merge_shards` reassembles the per-device
records into an :class:`ExperimentResult` that is byte-identical
regardless of the shard count — every output-affecting quantity is
keyed per device, never per shard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.core.deployment.embedding import EmbeddingIndex, embed_pvn
from repro.core.pvnc.compiler import CompileCache, compile_pvnc
from repro.core.pvnc.model import ClassRule, ModuleSpec, Pvnc
from repro.experiments.harness import ExperimentResult, main
from repro.netsim.randomness import derive_seed, seed_default_streams, shard_seed
from repro.netsim.simulator import Simulator
from repro.netsim.topology import (
    AccessNetworkSpec,
    build_access_network,
)
from repro.nfv.container import Container
from repro.nfv.hypervisor import HostCapacity, NfvHost
from repro.nfv.middlebox import Middlebox

#: Access points devices attach through (placement is keyed on the
#: attachment point, so this bounds the distinct placement problems).
N_APS = 4
#: Default population for the sharded run (kept modest for CI smoke).
DEFAULT_DEVICES = 512


def _pvnc_for(user: str) -> Pvnc:
    """The per-device policy: identical across users (the store-app
    case the compile cache is built for), unique owner."""
    return Pvnc(
        user=user,
        name="e18",
        modules=(
            ModuleSpec.make("malware_detector"),
            ModuleSpec.make("tracker_blocker"),
        ),
        class_rules=(
            ClassRule("default", ("malware_detector", "tracker_blocker")),
        ),
    )


def _ap_for(seed: int, device: int) -> str:
    """The device's attachment point — keyed per *device*, never per
    shard, so partitioning cannot change it."""
    return f"ap{derive_seed(seed, f'device:{device}') % N_APS}"


def _build_world() -> tuple:
    """An access network with ample NFV capacity.

    Capacity never binds, so placement is independent of attach order
    and of how a sharded run partitions the population — the
    determinism contract of :func:`merge_shards` depends on this.
    """
    topo = build_access_network(AccessNetworkSpec(n_aps=N_APS, n_nfv_hosts=2))
    hosts = {
        n: NfvHost(n, HostCapacity(memory_bytes=10**12, cpu_cores=10**6))
        for n in topo.nodes_of_kind("nfv")
    }
    return topo, hosts


def _attach(
    device: int,
    seed: int,
    topo,
    hosts,
    cache: CompileCache | None,
    index: EmbeddingIndex | None,
    sim: Simulator | None = None,
):
    """One control-plane attach: compile -> embed -> admit containers.

    Returns the embedding and the containers a rescanning admission
    would have summed over: each target host's live count before each
    launch.
    """
    user = f"u{device}"
    compiled = compile_pvnc(_pvnc_for(user), cache=cache)
    embedding = embed_pvn(
        compiled, topo, hosts, device_node=_ap_for(seed, device), index=index,
    )
    rescanned = 0
    for decision in embedding.plan.decisions:
        host = hosts.get(decision.node)
        if host is None or decision.reused_physical:
            continue
        rescanned += host.container_count
        host.launch(Container(Middlebox(decision.service), owner=user),
                    sim=sim, now=0.0)
    return embedding, rescanned


def _decisions(embedding) -> list:
    return [[d.service, d.node, bool(d.reused_physical)]
            for d in embedding.plan.decisions]


def run(
    seed: int = 0,
    device_counts: tuple[int, ...] = (250, 1000),
    measure_batch: int = 100,
) -> ExperimentResult:
    rows = []
    metrics: dict[str, float] = {}
    for n_devices in device_counts:
        topo, hosts = _build_world()
        cache = CompileCache()
        index = EmbeddingIndex(topo, hosts)

        # Prefill to the target occupancy (the occupancy, not how it
        # was reached, is what the marginal attach cost depends on).
        for device in range(n_devices):
            _attach(device, seed, topo, hosts, cache, index)

        compiles, searches = cache.misses, index.misses
        live = sum(host.container_count for host in hosts.values())
        rescanned = 0
        batch = []
        for device in range(n_devices, n_devices + measure_batch):
            embedding, scanned = _attach(device, seed, topo, hosts,
                                         cache, index)
            rescanned += scanned
            batch.append([device, _ap_for(seed, device),
                          _decisions(embedding)])
        compiles = cache.misses - compiles
        searches = index.misses - searches
        launches = sum(h.container_count for h in hosts.values()) - live
        per_launch = rescanned / launches if launches else 0.0
        digest = hashlib.sha256(json.dumps(batch).encode()).hexdigest()

        rows.append((
            n_devices,
            f"{100 * cache.hit_rate:.2f}%",
            index.hits,
            compiles,
            searches,
            f"{per_launch:,.1f}",
            digest[:12],
        ))
        metrics[f"compile_cache_hit_rate_at_{n_devices}"] = cache.hit_rate
        metrics[f"embed_memo_hits_at_{n_devices}"] = float(index.hits)
        metrics[f"batch_compiles_at_{n_devices}"] = float(compiles)
        metrics[f"batch_placement_searches_at_{n_devices}"] = float(searches)
        metrics[f"rescan_containers_per_launch_at_{n_devices}"] = per_launch
    return ExperimentResult(
        experiment_id="E18",
        title="§4 control-plane fast path: attach cost vs device count",
        columns=["devices attached", "compile hit rate", "embed memo hits",
                 "batch compiles", "batch placement searches",
                 "rescan containers/launch", "batch placement digest"],
        rows=rows,
        metrics=metrics,
        notes=[
            "a further attach at any occupancy compiles nothing and "
            "searches no placement (compile cache + embedding memo), "
            "and admission reads O(1) residual counters (§4)",
            "a rescanning admission would sum over every live container "
            "on the target host per launch, a count that grows with the "
            "devices attached",
            "host time for a full attach is measured by the "
            "attach_storm workload of python -m bench",
        ],
    )


# -- the sharded form (python -m repro run E18 --shards N) -------------------


def run_shard(shard_index: int, shard_count: int, seed: int,
              params: dict | None = None) -> dict:
    """Attach one round-robin slice of the population; return records.

    The shard is fully isolated: its own topology, hosts, compile
    cache, embedding index, simulator, and stream factory (seeded via
    :func:`~repro.netsim.randomness.shard_seed`).  Records contain only
    per-device quantities — no wall-clock, no global counters, no
    cache statistics — because those are the things a different shard
    count would perturb.
    """
    params = params or {}
    devices = int(params.get("devices", DEFAULT_DEVICES))
    seed_default_streams(shard_seed(seed, shard_index))
    topo, hosts = _build_world()
    cache = CompileCache()
    index = EmbeddingIndex(topo, hosts)
    sim = Simulator()
    records = []
    for device in range(shard_index, devices, shard_count):
        embedding, _ = _attach(device, seed, topo, hosts, cache, index,
                               sim=sim)
        records.append([
            device,
            _ap_for(seed, device),
            _decisions(embedding),
            embedding.expected_rtt,
            embedding.plan.stretch,
        ])
    # Drive every container to RUNNING on this shard's own simulator.
    sim.run(until=1.0)
    running = sum(host.container_count for host in hosts.values())
    return {
        "shard_index": shard_index,
        "records": records,
        "running_containers": running,
    }


@dataclasses.dataclass(frozen=True)
class AttachSession:
    """One shard as a runner session.  Attaches send no cross-shard
    traffic, so it has no rounds and ``finish([])`` does the work:
    :func:`run_shard`'s payload."""

    shard_index: int
    shard_count: int
    seed: int
    params: dict | None
    rounds = 0

    def finish(self, inbox: list) -> dict:
        return run_shard(self.shard_index, self.shard_count, self.seed,
                         self.params)


def open_session(shard_index: int, shard_count: int, seed: int,
                 params: dict | None) -> AttachSession:
    return AttachSession(shard_index, shard_count, seed, params)


def merge_shards(payloads: list[dict], seed: int = 0,
                 params: dict | None = None) -> ExperimentResult:
    """Deterministic merge: byte-identical for any shard count.

    Records are re-keyed by device index (the partition order is
    discarded), coverage is verified to be exactly one record per
    device, and the result carries a content digest over the merged
    records so CI can assert ``--shards N`` == ``--shards 1`` with a
    plain diff.
    """
    params = params or {}
    devices = int(params.get("devices", DEFAULT_DEVICES))
    records = sorted(
        (record for payload in payloads for record in payload["records"]),
        key=lambda record: record[0],
    )
    indices = [record[0] for record in records]
    if indices != list(range(devices)):
        raise ValueError(
            f"shards did not cover the population exactly once: "
            f"{len(indices)} records for {devices} devices"
        )
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()
    ).hexdigest()

    per_ap: dict[str, int] = {}
    containers = 0
    for record in records:
        per_ap[record[1]] = per_ap.get(record[1], 0) + 1
        containers += sum(1 for _, _, reused in record[2] if not reused)
    running = sum(payload["running_containers"] for payload in payloads)

    rows = [
        (ap, count, f"{100 * count / devices:.1f}%")
        for ap, count in sorted(per_ap.items())
    ]
    metrics: dict[str, float] = {
        "devices": float(devices),
        "containers_admitted": float(containers),
        "containers_running": float(running),
        "mean_expected_rtt": sum(r[3] for r in records) / devices,
        "mean_stretch": sum(r[4] for r in records) / devices,
    }
    return ExperimentResult(
        experiment_id="E18",
        title="§4 control-plane attach: sharded population, merged",
        columns=["attachment point", "devices", "share"],
        rows=rows,
        metrics=metrics,
        notes=[
            f"placement digest {digest}",
            "every output-affecting quantity is keyed per device "
            "(derive_seed(root, 'device:i')), never per shard, so this "
            "merged result is byte-identical for any --shards N",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
