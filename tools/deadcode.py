"""Gate on the ``src/repro`` functions, parameters, fields and
re-exports that none of the repo's own entry points ever uses.

Run it from the repository root, with no flags::

    python tools/deadcode.py > deadcode.txt

It counts Python calls under ``sys.setprofile`` while it imports every
``repro`` module and then drives, in this one process:

* every experiment at seed 1 with the tier-1 ``FAST_PARAMS``, first with
  observability off and then with it on;
* the four ``bench`` workloads at smoke scale;
* the ``examples/`` scripts;
* each command-line interface: ``python -m repro`` (table and
  ``--json``), ``obs trace|metrics|slo|alerts`` and ``run E18|E23`` with
  ``--shards 1``, so the shard sessions run in-process where the
  profiler sees them.

It reports four kinds of finding, each keyed by its file relative to
``src/repro``:

* **unreached function** (``file:Qualname``): a function or method
  defined under ``src/repro`` that never ran;
* **unset parameter** (``file:Qualname(param)``): a defaulted parameter
  of a function that ran, bound to its default (``is``, then a guarded
  ``==``) on every call the profiler saw;
* **write-only field** (``file:Class.attr``): a dataclass field or a
  ``self.attr`` assignment whose name no load under ``src/``,
  ``bench/`` or ``examples/`` reads (``.append``-style calls, ``+=``
  and subscript stores write; a class that serialises ``self`` whole
  reads every field);
* **test-only re-export** (``package/__init__.py:__all__.Name``): a name
  (not a dunder such as ``__version__``) a package's ``__all__``
  re-exports that no module under ``src/``, ``bench/`` or ``examples/``
  and no README code block imports from that package.

A finding listed in :data:`KEEP` (key -> one-line reason) is justified:
an option a user's PVNC, a fault script or a CLI flag can set, a branch
the runs do not take, a body that runs only in a forked worker, a
middlebox a user's PVNC can name, a §3.3 check, a migration checkpoint
hook, or a reference the tests compare against.  The report prints
every other finding, grouped by kind and file, and the totals; the
script exits 1 if there is any, so what nothing uses must be deleted
or justified here before it lands.  ``tests/test_deadcode_keep.py``
fails on a stale entry.  Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import importlib
import io
import pathlib
import pkgutil
import re
import runpy
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Where a use counts: the package, the benchmark and the examples.
USERS = [SRC, ROOT / "bench", ROOT / "examples"]
#: Markdown files whose ```python blocks count as importers.
READMES = [ROOT / "README.md", ROOT / "bench" / "README.md"]
for path in (str(ROOT), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)


#: Findings that stay, key (the file relative to ``src/repro``: see the
#: module docstring for the four key forms) -> why.  Nothing the runs
#: reach, set, read or import belongs here.
KEEP: dict[str, str] = {
    # -- branches the runs do not take --------------------------------------
    "core/deployment/reconciler.py:Reconciler._degrade":
        "the reconciler calls it after max_evacuation_attempts failed "
        "evacuations; no run exhausts them",
    "core/deployment/reconciler.py:Reconciler._redeploy":
        "the reconciler calls it for a desired user with no observed "
        "deployment and no evacuation in flight; no run loses one",
    "core/deployment/reconciler.py:RepairRecord.repair_time":
        "repair_times() reads it; no run asks for repair times",
    "core/deployment/reconciler.py:DesiredState.forget":
        "the reconciler's way to drop a user who left; no run removes one",
    "core/deployment/reconciler.py:Reconciler.stop":
        "ends the reconcile loop; runs end with the simulator instead",
    "core/deployment/reconciler.py:Reconciler.repair_times":
        "E20 computes repair times from the records itself",
    "core/deployment/recovery.py:RobustnessSupervisor.stop":
        "ends the supervisor loop; the supervisor is ROADMAP item 3(a)'s "
        "to delete",
    "core/deployment/recovery.py:RobustnessSupervisor.events_for":
        "resolution_of() calls it",
    "core/deployment/recovery.py:RobustnessSupervisor.resolution_of":
        "the silent-hang check calls it for an ACTIVE deployment with "
        "crashed services; no run leaves one",
    "faults/injector.py:FaultInjector._host_up":
        "the host-up verb; no experiment script brings a host back",
    "health/__init__.py:HealthService.stop":
        "ends heartbeats; runs end with the simulator instead",
    "health/__init__.py:HealthService.resume":
        "re-admits a recovered host (README self-healing sketch); no run "
        "recovers one",
    "health/heartbeat.py:HeartbeatMonitor.stop":
        "HealthService.stop calls it",
    "health/heartbeat.py:HeartbeatMonitor.resume":
        "HealthService.resume calls it",
    "health/detector.py:PhiAccrualDetector.forget":
        "HeartbeatMonitor.resume calls it",
    "health/detector.py:PhiAccrualDetector.last_heard":
        "detector state for the health-plane tests",
    "health/detector.py:PhiAccrualDetector.snapshot":
        "detector state for the health-plane tests",
    "health/overload.py:CircuitBreaker.record_failure":
        "discovery calls it when a retried request fails; no run fails one",
    "health/overload.py:AdmissionController.stats":
        "shedding counters for the overload tests",
    "health/overload.py:BurnRateCoupling.engaged":
        "coupling state for the overload tests",
    "nfv/hypervisor.py:NfvHost.recover":
        "the host-up verb and the self-healing sketch bring a host back",
    "netsim/node.py:Node.link_to":
        "Node.send calls it to raise the typed error for an unknown peer",
    "netsim/link.py:Link._direction":
        "transmit() calls it when the sender is on neither end",
    "netsim/link.py:Link._loss_rng":
        "transmit() draws from it on a lossy link; no run's link is lossy",
    "netsim/topology.py:_partitioned":
        "the route search raises it when down links cut the graph",
    "netsim/randomness.py:default_streams":
        "Link._loss_rng reads it for a lossy link built without an rng",
    "netsim/fluid.py:FlowBatch.of":
        "admit() splits a batch with a detached device into batches of one",
    "sdn/controller.py:Controller._on_packet_in":
        "a switch punts a packet that misses every rule; no run's does",
    "sdn/flowcache.py:MegaflowCache._drop_mask":
        "eviction calls it when a mask's last entry goes",
    "sdn/flowcache.py:FlowCache.fence":
        "SdnSwitch.fence calls it on a migration cutover",
    "sdn/flowcache.py:MegaflowCache.fence":
        "SdnSwitch.fence calls it on a migration cutover",
    "sdn/switch.py:SdnSwitch.fence":
        "migration's cutover calls it when the manager has an SDN "
        "controller; no run migrates such a deployment",
    "sdn/match.py:_mask_ip":
        "MatchMask.key_for calls it for a mask with an IP prefix; no run "
        "caches one",
    "obs/metrics.py:_Metric._overflow_child":
        "labels() folds into it past the cardinality cap",
    "obs/metrics.py:MetricsRegistry._record_overflow":
        "_overflow_child reports through it",
    "experiments/harness.py:main":
        "each experiment module's __main__ body",
    "experiments/exp11_harm.py:SnoopingModule.inspect":
        "E11's sandbox refuses every foreign packet, so the snooper never "
        "inspects one: that is E11's result",
    "core/pvnc/compiler.py:_session_key":
        "the encryptor and decryptor factories derive their key with it",
    # -- forked-only shard bodies -------------------------------------------
    "experiments/runner.py:_fork_context":
        "run_sharded asks for it only with --shards > 1",
    "experiments/runner.py:_session_worker":
        "runs in a forked worker, where the profiler does not look",
    "experiments/runner.py:_run_sessions_forked":
        "run_sharded takes it with --shards > 1 on a multi-CPU host",
    # -- modules a user's PVNC can name -------------------------------------
    "core/pvnc/compiler.py:_make_encryptor":
        "builtin factory for the encryptor module",
    "core/pvnc/compiler.py:_make_decryptor":
        "builtin factory for the decryptor module",
    "core/pvnc/compiler.py:_make_replica_selector":
        "builtin factory for the replica_selector module",
    "core/pvnc/compiler.py:_make_sensor_privacy":
        "builtin factory for the sensor_privacy module",
    "middleboxes/compressor.py:CompressionProxy.__init__":
        "compressor module",
    "middleboxes/compressor.py:CompressionProxy.inspect":
        "compressor module",
    "middleboxes/compressor.py:CompressionProxy.decompress":
        "compressor module: the inverse transform for the receiving side",
    "middleboxes/compressor.py:CompressionProxy.bytes_saved":
        "compressor module's savings counter",
    "middleboxes/replica_selector.py:ReplicaSelector.__init__":
        "replica_selector module",
    "middleboxes/replica_selector.py:ReplicaSelector.inspect":
        "replica_selector module",
    "middleboxes/replica_selector.py:ReplicaSelector.best_replica":
        "replica_selector module: inspect() calls it",
    "middleboxes/replica_selector.py:ReplicaSelector.report_rtt":
        "replica_selector module: feeds measured RTTs",
    "middleboxes/replica_selector.py:ReplicaState.observe":
        "replica_selector module: report_rtt() calls it",
    "middleboxes/prefetcher.py:Prefetcher.hit_rate":
        "prefetcher module's hit rate; no run reads it",
    # -- migration checkpoint hooks -----------------------------------------
    "middleboxes/malware_detector.py:MalwareDetector.export_state":
        "checkpoint hook: migration ships it when a PVN runs the module",
    "middleboxes/malware_detector.py:MalwareDetector.import_state":
        "restore hook: migration's target calls it",
    "middleboxes/tcp_proxy.py:SplitTcpProxy.export_state":
        "checkpoint hook: migration ships it when a PVN runs the module",
    "middleboxes/tcp_proxy.py:SplitTcpProxy.import_state":
        "restore hook: migration's target calls it",
    # -- §3.3 checks ----------------------------------------------------------
    "core/deployment/isolation.py:sweep_deployments":
        "§3.3 isolation sweep: rule scoping and container ownership",
    "core/deployment/isolation.py:probe_cross_user":
        "§3.3 dynamic isolation probe",
    "sdn/verification.py:_winning_rule":
        "§3.3 rule verification",
    "sdn/verification.py:trace_forwarding":
        "§3.3 rule verification",
    "sdn/verification.py:check_loop_freedom":
        "§3.3 rule verification",
    "sdn/verification.py:check_no_blackholes":
        "§3.3 rule verification",
    "sdn/verification.py:check_isolation":
        "§3.3 rule verification; sweep_deployments calls it",
    "sdn/verification.py:verify_all":
        "§3.3 rule verification",
    "sdn/controller.py:Controller.switch_names":
        "the verification walks every switch through it",
    "core/auditor/measurements.py:privacy_exposure_test":
        "§3.3 audit: canary PII through the PVN",
    "core/auditor/reputation.py:choose_provider":
        "§3.3 reputation-ranked provider choice",
    "core/auditor/reputation.py:ReputationSystem.eligible":
        "§3.3 reputation: the blacklist filter",
    "core/device.py:Device.rank_providers":
        "§3.3 reputation-ranked provider choice",
    "core/session.py:PvnSession.fallback_tunnel":
        "§3.3 unavailability fallback: a full tunnel to a remote PVN",
    "core/pvnc/repository.py:pvnc_uri":
        "PVNC repository (DESIGN §3.1)",
    "core/pvnc/repository.py:parse_uri":
        "PVNC repository (DESIGN §3.1)",
    "core/pvnc/repository.py:PvncRepository.__init__":
        "PVNC repository (DESIGN §3.1)",
    "core/pvnc/repository.py:PvncRepository.publish":
        "PVNC repository (DESIGN §3.1)",
    "core/pvnc/repository.py:PvncRepository.fetch":
        "PVNC repository (DESIGN §3.1): digest-checked fetch",
    "core/pvnc/repository.py:PvncRepository.tamper":
        "PVNC repository (DESIGN §3.1): the tampering the fetch detects",
    "core/pvnc/repository.py:PvncRepository.__len__":
        "PVNC repository (DESIGN §3.1)",
    # -- references the tests compare against -------------------------------
    "core/deployment/orchestrator.py:reference_solve":
        "exhaustive oracle of the differential suite and the orchestration "
        "bench; it searches _PlacementProblem, and moving it out would "
        "drop orchestrator.py below CI's 90 % coverage floor",
    "core/deployment/orchestrator.py:_Residuals.restore":
        "reference_solve's backtracking",
    "core/deployment/orchestrator.py:PlacementOptimizer.plan_cost":
        "scores a heuristic plan for reference_solve's comparison",
    "workloads/population.py:PopulationWorkload.flow_spec":
        "scalar reference: the tests check the compiled flow columns "
        "against it draw for draw",
    "workloads/population.py:PopulationWorkload._leak_details":
        "flow_spec's leak draws; the population bench counts its calls to "
        "show the run never derives a leak per flow",
    "workloads/population.py:_mix_int":
        "flow_spec's scalar hash",
    "faults/plan.py:FaultPlan.random":
        "seeded fault-plan generator of the chaos property tests and "
        "benches",
    # -- accessors kept for their tests and benches (ROADMAP item 14) -------
    "core/deployment/embedding.py:EmbeddingIndex.stats":
        "memo counters the attach-path tests bound",
    "core/deployment/embedding.py:admission_headroom":
        "per-host headroom for capacity tests",
    "core/deployment/lifecycle.py:refresh_address":
        "DHCP re-lease of a deployment's address; tests pin it",
    "core/deployment/lifecycle.py:LeaseTable.expired":
        "sweep_expired calls it",
    "core/deployment/lifecycle.py:sweep_expired":
        "lease-expiry teardown; tests pin it",
    "core/deployment/manager.py:PvnDataPath.degraded_to":
        "getter of the setter the runs use; tests read it",
    "core/deployment/manager.py:PvnDataPath.bridging_to":
        "getter of the setter the runs use; tests read it",
    "core/deployment/manager.py:DeploymentManager.active_count":
        "live-deployment count the session tests read",
    "core/deployment/telemetry.py:TelemetryFeed.watch_switch":
        "switch tap of the telemetry feed",
    "core/deployment/telemetry.py:TelemetryFeed.unwatch_fluid":
        "undoes watch_fluid",
    "core/deployment/telemetry.py:TelemetryFeed.rate":
        "last smoothed rate, read by the telemetry tests",
    "core/discovery/pricing.py:PricingPolicy.total":
        "sum of a quote",
    "core/discovery/pricing.py:surge":
        "load-based surge pricing; tests pin it",
    "core/discovery/protocol.py:check_ack":
        "validates an ack against its request; tests pin it",
    "core/discovery/retry.py:RetryPolicy.worst_case_wait":
        "bound the retry property tests check",
    "core/pvnc/compiler.py:CompileCache.__len__":
        "entry count",
    "core/pvnc/compiler.py:CompileCache.invalidate":
        "drops compiled artifacts when the DSL changes",
    "core/pvnc/compiler.py:CompileCache.stats":
        "hit/miss counters the compile-cache tests read",
    "core/pvnc/compiler.py:CompileCache.publish":
        "folds the cache gauges into repro.obs",
    "core/pvnc/model.py:ClassRule.tunnel_endpoint":
        "PVNC model query",
    "core/pvnc/model.py:Pvnc.services":
        "PVNC model query",
    "core/pvnc/model.py:Pvnc.rule_for":
        "PVNC model query",
    "core/pvnc/model.py:Pvnc.tunnel_endpoints":
        "PVNC model query",
    "core/store/catalog.py:PvnStore.services":
        "catalog listing the manager tests build from",
    "core/tunneling/selection.py:SelectionResult.score_for":
        "per-endpoint score of a tunnel selection",
    "core/tunneling/selective.py:is_sensitive_destination":
        "destination predicate for selective tunnelling",
    "experiments/harness.py:ExperimentResult.metric":
        "the benchmarks/ bars read experiment metrics through it",
    "faults/plan.py:FaultPlan.__len__":
        "plan size",
    "faults/plan.py:FaultPlan.of_kind":
        "plan query",
    "faults/plan.py:FaultPlan.horizon":
        "last event time; tests run a plan past it",
    "faults/plan.py:FaultPlan.render":
        "the DSL text of a plan",
    "faults/plan.py:FaultPlan.merged":
        "union of two plans",
    "netproto/addresses.py:SubnetAllocator.allocated_count":
        "allocator occupancy",
    "netproto/http.py:HttpRequest.header":
        "case-insensitive header lookup",
    "netproto/http.py:HttpResponse.size_bytes":
        "response wire size",
    "netproto/http.py:body_digest":
        "content digest of a body",
    "netproto/tls.py:RevocationList.revoke":
        "adds a serial to the CRL the validator checks",
    "netproto/tls.py:ValidationResult.__bool__":
        "truth value of a validation",
    "netsim/flows.py:WebPage.total_bytes":
        "page size",
    "netsim/link.py:Link.other_end":
        "link peer",
    "netsim/link.py:Link.set_shaper":
        "per-direction shaping",
    "netsim/link.py:Link.stats_from":
        "per-direction delivery counters",
    "netsim/link.py:Link.take_down":
        "link failure",
    "netsim/link.py:Link.bring_up":
        "link repair",
    "netsim/link.py:Link.one_way_delay":
        "link_rtt calls it",
    "netsim/link.py:link_rtt":
        "unloaded RTT over a list of links",
    "netsim/node.py:Node.__repr__":
        "debug representation",
    "netsim/node.py:Host.bind":
        "port handler registration",
    "netsim/node.py:Host.bind_default":
        "default handler registration",
    "netsim/packet.py:Packet.five_tuple":
        "the flow's five-tuple",
    "netsim/packet.py:Packet.reply_template":
        "reply packet with swapped endpoints",
    "netsim/simulator.py:Simulator.pending_events":
        "event-queue depth",
    "netsim/simulator.py:Simulator.step":
        "single-event stepping for the event-order tests",
    "netsim/tcp.py:mathis_throughput_bps":
        "the Mathis model the TCP tests compare the simulation with",
    "netsim/topology.py:PhysicalTopology.links":
        "link listing (the verify notes use it to find fault targets)",
    "netsim/topology.py:PhysicalTopology.link_is_down":
        "link state query",
    "nfv/chain.py:ServiceChain.__len__":
        "chain length",
    "nfv/chain.py:ServiceChain.memory_bytes":
        "chain memory footprint",
    "nfv/chain.py:ServiceChain.invalidate":
        "drops the compiled chain",
    "nfv/chain.py:ServiceChain.as_executor":
        "the datapath bench runs a chain through it",
    "nfv/pipeline.py:Pipeline.__len__":
        "pipeline length",
    "nfv/pipeline.py:Pipeline.packets_total":
        "telemetry duck type of a pipeline",
    "nfv/placement.py:PlacementPlan.waypoints":
        "the plan's NFV hops",
    "obs/alerts.py:Alert.to_dict":
        "JSON form of an alert",
    "obs/alerts.py:AlertManager.firing":
        "alerts now firing",
    "obs/slo.py:SloEngine.__contains__":
        "SLO registry membership",
    "obs/slo.py:SloEngine.__len__":
        "SLO registry size",
    "obs/slo.py:SloEngine.names":
        "SLO registry listing",
    "obs/slo.py:SloEngine.trackers":
        "SLO registry listing",
    "obs/spans.py:SpanTracer.__len__":
        "span count",
    "obs/spans.py:SpanTracer.tree":
        "nested view of one trace",
    "obs/spans.py:SpanTracer.clear":
        "drops recorded spans",
    "sdn/controller.py:Controller.rules_for_pvn":
        "rules a PVN pushed",
    "sdn/flowcache.py:FlowCache.__len__":
        "entry count",
    "sdn/flowcache.py:MegaflowCache.__len__":
        "entry count",
    "sdn/flowtable.py:FlowTable.remove":
        "removes one rule by id",
    "sdn/flowtable.py:FlowTable.rules_for_pvn":
        "rules one PVN installed",
    "sdn/switch.py:SdnSwitch.packets_total":
        "telemetry duck type of a switch",
    "workloads/adversary.py:dns_forgery_scenario":
        "DNS forgery scenario",
    "workloads/pii.py:DetectionScore.recall":
        "detection recall",
    "workloads/pii.py:DetectionScore.precision":
        "detection precision",
    "workloads/pii.py:score_detection":
        "scores a PII detector against ground truth",
    "workloads/population.py:PopulationWorkload.counts":
        "scheduled event totals the population tests read",

    # == unset parameters and write-only fields ==============================
    # -- options a user's PVNC, a fault script or a CLI flag sets -----------
    "middleboxes/pii_detector.py:PiiDetector.__init__(mode)":
        "a PVNC `module pii_detector mode=...` line sets it",
    "middleboxes/tls_validator.py:TlsValidator.__init__(mode)":
        "a PVNC `module tls_validator mode=...` line sets it",
    "middleboxes/transcoder.py:Transcoder.__init__(quality)":
        "a PVNC `module transcoder quality=...` line sets it",
    "middleboxes/tracker_blocker.py:TrackerBlocker.__init__(blocklist)":
        "the user's environment (UserEnvironment.tracker_blocklist) sets it",
    "core/pvnc/model.py:ModuleSpec.make(source)":
        "a PVNC `module ... source=store` line sets it",
    "core/store/catalog.py:StoreListing.description":
        "the listing text a store publisher sets "
        "(examples/privacy_guard.py publishes one)",
    "core/deployment/migration.py:MigrationCoordinator.arm_target_crash(count)":
        "a fault script's `migration-target-crash count=N` sets it",
    "experiments/runner.py:run_sharded(seed)":
        "`python -m repro run ID --seed N` sets it",
    "experiments/exp18_control_plane.py:merge_shards(seed)":
        "`python -m repro run E18 --seed N` sets it",
    "experiments/exp23_population.py:merge_sessions(seed)":
        "`python -m repro run E23 --seed N` sets it",
    "workloads/traffic.py:synth_flows(mix)":
        "bench/workloads/steady_mix.py passes it, and bench/ stays as it is",
    # -- branches the runs do not take (the tests drive them) ---------------
    "experiments/exp18_control_plane.py:run(device_counts)":
        "E18 at 10 000 devices; benchmarks/test_bench_control_plane.py "
        "runs it, the CLI runs the 250/1 000 default",
    "experiments/exp18_control_plane.py:run(measure_batch)":
        "a smaller measured batch for the 10 000-device bench run",
    "experiments/exp23_population.py:build_population(shard_count)":
        "only --shards > 1 splits the population, in forked workers",
    "experiments/exp23_population.py:build_population(shard_index)":
        "only --shards > 1 splits the population, in forked workers",
    "workloads/population.py:PopulationWorkload.__init__(shard_count)":
        "only --shards > 1 splits the population, in forked workers",
    "workloads/population.py:PopulationWorkload.__init__(shard_index)":
        "only --shards > 1 splits the population, in forked workers",
    "core/auditor/reputation.py:ReputationSystem.__init__(blacklist_threshold)":
        "blacklisting a provider (§3.3 reputation); no run blacklists one",
    "core/auditor/reputation.py:ReputationSystem.__init__(decay)":
        "forgetting old evidence; no run ages its reputation",
    "core/deployment/embedding.py:embed_pvn(max_stretch)":
        "the stretch refusal; no run's embedding is stretched that far",
    "core/deployment/lifecycle.py:migrate_device(spec)":
        "migration costs other than the default spec; no run prices one",
    "core/deployment/migration.py:MigrationCoordinator.__init__(spec)":
        "migration costs other than the default spec; no run prices one",
    "core/deployment/migration.py:ensure_coordinator(spec)":
        "migration costs other than the default spec; no run prices one",
    "core/deployment/migration.py:MigrationTransaction.abort(now)":
        "crash recovery aborts a prepared transaction at recovery time; "
        "no run crashes mid-migration",
    "core/deployment/migration.py:MigrationTransaction.abort(reason)":
        "crash recovery aborts with its own reason; no run crashes "
        "mid-migration",
    "core/deployment/manager.py:DeploymentManager.__init__(container_spec)":
        "a provider sizing containers unlike the default; no run does",
    "core/deployment/orchestrator.py:PlacementOptimizer.__init__(container_spec)":
        "a provider sizing containers unlike the default; no run does",
    "core/deployment/manager.py:DeploymentManager.__init__(store_services)":
        "a provider that sells store modules; no run's provider does",
    "core/deployment/manager.py:DeploymentManager.__init__(store_factories)":
        "a provider that sells store modules; no run's provider does",
    "core/deployment/manager.py:DeploymentManager.__init__(store_capabilities)":
        "a provider that sells store modules; no run's provider does",
    "core/deployment/manager.py:DeploymentManager.deploy(trusted_execution)":
        "a deployment in trusted execution (Fig. 1c enclave); no run asks "
        "for one",
    "core/deployment/manager.py:PvnDataPath.__init__(trusted_execution)":
        "a deployment in trusted execution (Fig. 1c enclave); no run asks "
        "for one",
    "core/deployment/orchestrator.py:PlacementOptimizer.place(prefer_reuse)":
        "placement that ignores reusable instances; no run asks for it",
    "core/deployment/orchestrator.py:_PlacementProblem.__init__(prefer_reuse)":
        "placement that ignores reusable instances; no run asks for it",
    "core/deployment/reconciler.py:Reconciler.__init__(ledger)":
        "a reconciler that records evidence; no run wires one",
    "core/deployment/telemetry.py:TelemetryFeed.__init__(alpha)":
        "EWMA-smoothed rates; every run reads raw ones",
    "core/deployment/telemetry.py:TelemetryFeed.__init__(interval)":
        "a feed polled off the 1 s grid; no run polls one",
    "core/device.py:Device.__init__(node_name)":
        "a user's second device on the same provider; no run has one",
    "core/session.py:PvnSession.build(user)":
        "a session for a user other than alice; no run builds one",
    "core/device.py:Device.establish_pvn(strategy)":
        "negotiation strategies other than best-of-zone at the device; "
        "E10 drives them below the device",
    "core/discovery/negotiation.py:negotiate_with_retry(strategy)":
        "negotiation strategies other than best-of-zone with retries",
    "core/session.py:PvnSession.connect(strategy)":
        "negotiation strategies other than best-of-zone at the session",
    "core/discovery/protocol.py:DiscoveryClient.__init__(standards)":
        "a device that shares no standard with the provider; no run has one",
    "core/discovery/protocol.py:DiscoveryClient.flood_with_retry(breaker)":
        "retries behind a circuit breaker; no run wires one here",
    "core/provider.py:AccessProvider.__init__(pricing)":
        "a provider with its own pricing (surge, free tier); no run's "
        "access provider has one",
    "core/pvnc/compiler.py:CompileCache.__init__(max_entries)":
        "compile-cache eviction; no run fills 4 096 entries",
    "core/tunneling/selection.py:select_endpoint(price_weight)":
        "price-sensitive endpoint choice; no run weighs price",
    "core/tunneling/vpn.py:FullTunnel.__init__(port_blocked)":
        "a network that blocks the VPN port (§3.2); no run's does",
    "health/__init__.py:HealthService.__init__(detector_policy)":
        "failure detection tuned off the default; no run tunes it",
    "health/__init__.py:HealthService.__init__(heartbeat_policy)":
        "heartbeats tuned off the default; no run tunes them",
    "health/detector.py:PhiAccrualDetector.__init__(policy)":
        "failure detection tuned off the default; no run tunes it",
    "health/heartbeat.py:HeartbeatMonitor.__init__(policy)":
        "heartbeats tuned off the default; no run tunes them",
    "health/overload.py:BurnRateCoupling.__init__(pressure_shift)":
        "a burn-rate coupling of another strength; no run tunes it",
    "health/overload.py:CircuitBreaker.__init__(cooldown)":
        "a breaker tuned off the default; no run tunes it",
    "health/overload.py:CircuitBreaker.__init__(failure_threshold)":
        "a breaker tuned off the default; no run tunes it",
    "middleboxes/dns_validator.py:DnsValidator.__init__(substitute_correct_answer)":
        "blocking a forged answer instead of correcting it; no run blocks",
    "middleboxes/malware_detector.py:MalwareDetector.__init__(signatures)":
        "signature sets other than the default; no run loads one",
    "middleboxes/malware_detector.py:MalwareDetector.__init__(beacon_threshold)":
        "beacon detection tuned off the default; no run tunes it",
    "middleboxes/malware_detector.py:MalwareDetector.__init__(beacon_interval)":
        "beacon detection tuned off the default; no run tunes it",
    "middleboxes/tls_validator.py:TlsValidator.__init__(check_revocation)":
        "a validator that skips the CRL; no run's does",
    "middleboxes/tcp_proxy.py:SplitTcpProxy.transfer_time(params)":
        "TCP parameters other than the defaults; no run sets them",
    "middleboxes/tcp_proxy.py:SplitTcpProxy.direct_transfer_time(params)":
        "TCP parameters other than the defaults; no run sets them",
    "netsim/flows.py:page_load_time(params)":
        "TCP parameters other than the defaults; no run sets them",
    "netsim/tcp.py:simulate_split_transfer(params)":
        "TCP parameters other than the defaults; no run sets them",
    "netsim/tcp.py:simulate_transfer(extra_per_round_delay)":
        "a per-round processing charge; no direct transfer pays one",
    "netproto/dns.py:ForgingResolver.__init__(strip_signatures)":
        "a forger that strips DNSSEC signatures; no run's does",
    "netproto/tls.py:CertificateAuthority.issue(is_ca)":
        "issuing an intermediate CA; no run's PKI has one",
    "netproto/tls.py:CertificateAuthority.issue(subject_key_id)":
        "issuing an intermediate CA; no run's PKI has one",
    "netproto/tls.py:CertificateAuthority.self_signed(lifetime)":
        "a root that expires within the run; no run's does",
    "netproto/tls.py:TrustStore.validate_chain(check_revocation)":
        "chain validation without the CRL; no run skips it",
    "netproto/tls.py:TrustStore.validate_chain(intermediate_cas)":
        "chains through intermediate CAs; no run's PKI has one",
    "netsim/fluid.py:HybridPopulationEngine.__init__(punt_hook)":
        "punting a flow's packets to a live datapath; no run wires one",
    "netsim/fluid.py:HybridPopulationEngine.__init__(tick)":
        "an engine ticking off the 0.1 s grid; no run does",
    "netsim/fluid.py:HybridPopulationEngine._materialize(handshake)":
        "the handshake packet the punt hook is handed; no run punts",
    "netsim/link.py:Link.__init__(loss_rate)":
        "a lossy link; no run's link is lossy",
    "netsim/link.py:Link.__init__(rng)":
        "a lossy link's own loss stream; no run's link is lossy",
    "netsim/link.py:Link.__init__(max_queue_delay)":
        "drop-tail on a bounded buffer; no run bounds one",
    "netsim/queueing.py:TokenBucket.__init__(burst_bytes)":
        "a shaper burst other than 16 kB; no run shapes with one",
    "netsim/simulator.py:Simulator.__init__(start_time)":
        "a simulator started after t=0; no run starts one late",
    "netsim/simulator.py:Simulator.run(max_events)":
        "stopping after a number of events; no run stops that way",
    "netsim/simulator.py:Simulator.schedule(priority)":
        "a relative event with a priority; the runs schedule those at "
        "absolute times",
    "netsim/soa.py:SoaTable.__init__(capacity)":
        "a table sized off the default; no run sizes one",
    "netsim/topology.py:PhysicalTopology.rtt(size_bytes)":
        "the RTT of a packet larger than a route probe; no run asks",
    "netsim/topology.py:attach_device(bandwidth_bps)":
        "a device link faster or slower than the access spec's",
    "netsim/topology.py:attach_device(latency)":
        "a device link longer or shorter than the access spec's",
    "nfv/chain.py:ServiceChain.__init__(tunnel_callback)":
        "a chain that reports TUNNEL verdicts to a callback; no run's does",
    "obs/alerts.py:AlertManager.burn_rate(severity)":
        "a burn-rate alert that tickets instead of paging; no run's does",
    "obs/alerts.py:BurnRateAlert.__init__(severity)":
        "a burn-rate alert that tickets instead of paging; no run's does",
    "obs/alerts.py:AnomalyAlert.__init__(robust)":
        "a plain adaptive baseline; no run's detector adapts to spikes",
    "obs/alerts.py:AnomalyAlert.__init__(severity)":
        "an anomaly alert that pages; no run's does",
    "obs/alerts.py:EwmaDetector.__init__(alpha)":
        "an EWMA weight other than 0.3; no run sets one",
    "obs/metrics.py:Histogram.__init__(buckets)":
        "histogram buckets other than the defaults; no run sets them",
    "obs/metrics.py:MetricsRegistry.histogram(buckets)":
        "histogram buckets other than the defaults; no run sets them",
    "obs/metrics.py:MetricsRegistry.__init__(max_label_children)":
        "the label-cardinality cap the overflow child guards; no run "
        "reaches it",
    "obs/recorder.py:FlightRecorder.__init__(capacity_per_category)":
        "flight-recorder ring eviction; no run fills a ring",
    "obs/recorder.py:FlightRecorder.__init__(span_evidence)":
        "an incident bundle with more or fewer spans; no run sets it",
    "obs/recorder.py:FlightRecorder.capture_metrics(top)":
        "a metric capture cut off at another length; no run sets it",
    "obs/recorder.py:FlightRecorder.records(category)":
        "the records of one category; the runs export them all",
    "obs/slo.py:SloEngine.record(bad)":
        "pre-classified bad events; the runs classify with observe()",
    "obs/spans.py:SpanTracer.record_span(status)":
        "a synthesized span that failed; no run's hop span fails",
    "obs/spans.py:SpanTracer.start_span(parent)":
        "a span under a remote parent context; the runs nest by stack",
    "sdn/controller.py:Controller.install_default_route(priority)":
        "a default route at another priority; no run installs one",
    "sdn/flowcache.py:FlowCache.__init__(capacity)":
        "microflow eviction; no run fills the cache",
    "sdn/flowcache.py:MegaflowCache.__init__(capacity)":
        "megaflow eviction; no run fills the cache",
    "sdn/flowcache.py:MegaflowCache.__init__(resort_interval)":
        "mask re-sorting at another cadence; no run sets one",
    "workloads/device_cost.py:EnergyModel.radio_energy(radio)":
        "a cellular radio; every run models WiFi",
    "workloads/device_cost.py:EnergyModel.radio_energy(wakes)":
        "a cellular radio's tail wakes; every run models WiFi",
    "core/auditor/violations.py:ViolationRecord.evidence_spans":
        "the span-tree evidence of a middlebox-execution violation under "
        "tracing; no run traces a violating provider",
    "core/deployment/isolation.py:IsolationReport.ok":
        "§3.3 isolation verdict; no run sweeps (the sweep is kept above)",
    "sdn/verification.py:VerificationReport.ok":
        "§3.3 rule-verification verdict; no run verifies (kept above)",
    "core/deployment/orchestrator.py:Autoscaler.failed_migrations":
        "counts an autoscaler move whose migration fails; no run's fails",
    "sdn/controller.py:Controller.packet_ins":
        "counts table misses punted to the controller; no run punts one",
    "netsim/flows.py:VideoSessionResult.chosen_bitrate_bps":
        "the ABR rung of a session; E4 reads its label, the flow tests "
        "its rate",
    "netsim/flows.py:VideoSessionResult.rebuffer_events":
        "rebuffering below the lowest rung; no run's link is that slow",
    # -- references the tests compare against -------------------------------
    "analysis/stats.py:summarize(confidence)":
        "the normal-approximation interval the stats tests check",
    "analysis/stats.py:Summary.ci_low":
        "the normal-approximation interval the stats tests check",
    "analysis/stats.py:Summary.ci_high":
        "the normal-approximation interval the stats tests check",
    "netsim/fluid.py:waterfill(iters)":
        "the exact-reference test iterates to 64 for any number of cap "
        "classes",
    "netsim/topology.py:PhysicalTopology.path_latency(start)":
        "route_latency's leg-by-leg reference in the route-cost tests",
    "netsim/fluid.py:HybridPopulationEngine.bytes_total":
        "engine state the batch-engine reference test compares",
    "netsim/fluid.py:HybridPopulationEngine.cell_count":
        "engine state the batch-engine reference test compares",
    "netsim/link.py:LinkStats.sent":
        "link counters the event-order reference test compares",
    "netsim/link.py:LinkStats.lost":
        "link counters the event-order reference test compares",
    "netsim/link.py:LinkStats.bytes_delivered":
        "link counters the event-order reference test compares",
    "netsim/topology.py:PhysicalTopology.searches":
        "the Dijkstra-run count the attach-path tests bound",
    "sdn/flowtable.py:FlowTable.stage_probes":
        "the probe count the cold-datapath tests bound",
}


def fast_params() -> dict:
    """``FAST_PARAMS`` as the tier-1 golden test defines it, read
    without importing the test module (which needs pytest)."""
    tree = ast.parse((ROOT / "tests" / "test_experiments.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", "") == "FAST_PARAMS"
                        for t in node.targets)):
            return eval(compile(ast.Expression(node.value), "FAST_PARAMS",
                                "eval"), {"dict": dict})
    raise SystemExit("tests/test_experiments.py defines no FAST_PARAMS")


def definitions(package: pathlib.Path = PACKAGE
                ) -> dict[tuple[str, int], tuple[str, int, tuple | None]]:
    """``(file, first line) -> (qualified name, line count, enclosing
    function's key)`` for every function under ``package``.  The first
    line is the one a code object reports: the first decorator's, if it
    has any."""
    found: dict[tuple[str, int], tuple[str, int, tuple | None]] = {}

    def walk(node: ast.AST, filename: str, prefix: str,
             enclosing: tuple | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                key = (filename, first)
                found[key] = (prefix + child.name,
                              child.end_lineno - first + 1, enclosing)
                walk(child, filename, f"{prefix}{child.name}.", key)
            elif isinstance(child, ast.ClassDef):
                walk(child, filename, f"{prefix}{child.name}.", enclosing)
            else:
                walk(child, filename, prefix, enclosing)

    for path in sorted(package.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "", None)
    return found


# -- unset parameters (runtime) ----------------------------------------------

def defaulted(function: types.FunctionType) -> list[tuple[str, object]]:
    """``(name, default)`` for each defaulted parameter of ``function``."""
    code = function.__code__
    positional = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    params = list(zip(positional[len(positional) - len(defaults):],
                      defaults))
    return params + list((function.__kwdefaults__ or {}).items())


def _differs(value, default) -> bool:
    if value is default:
        return False
    try:
        return not bool(value == default)
    except Exception:       # an array's ambiguous truth, a failing __eq__
        return True


class DefaultWatch:
    """The defaulted parameters of the functions defined under
    ``prefix`` that every call seen so far bound to their default.

    Built after the package is imported: each function object then
    alive carries its defaults.  :meth:`see` takes the frame of a
    ``call`` event and drops each parameter whose bound value differs
    from its default."""

    def __init__(self, prefix: str) -> None:
        self.pending: dict[types.CodeType, list[tuple[str, object]]] = {}
        for obj in gc.get_objects():
            if (isinstance(obj, types.FunctionType)
                    and obj.__code__.co_filename.startswith(prefix)
                    and obj.__code__.co_name != "<lambda>"):
                params = defaulted(obj)
                if params:
                    self.pending.setdefault(obj.__code__, params)
        self.called: set[types.CodeType] = set()

    def see(self, frame) -> None:
        params = self.pending.get(frame.f_code)
        if params:
            self.called.add(frame.f_code)
            bound = frame.f_locals
            params[:] = [(name, default) for name, default in params
                         if not _differs(bound.get(name, default), default)]

    def findings(self, names: dict[tuple[str, int], str]) -> list[str]:
        """``file:Qualname(param)`` keys (``names`` maps a code object's
        file and first line to its qualified name), file relative to
        the package."""
        return sorted(
            f"{names[(code.co_filename, code.co_firstlineno)]}({name})"
            for code in self.called for name, _ in self.pending[code])


def import_all(package: pathlib.Path) -> None:
    """Import every module of ``package`` (its directory must be on
    ``sys.path``), so that every function it defines is alive."""
    root = importlib.import_module(package.name)
    for info in pkgutil.walk_packages(root.__path__, f"{package.name}."):
        importlib.import_module(info.name)


# -- write-only fields (static) ----------------------------------------------

#: Methods whose call on an attribute stores into the object it names.
MUTATORS = frozenset({"add", "append", "appendleft", "clear", "discard",
                      "extend", "extendleft", "insert", "remove",
                      "update"})
#: Calls that read every field of the object passed to them.
SERIALISERS = frozenset({"asdict", "astuple", "fields", "vars"})


def python_files(roots) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for root in roots:
        files += [root] if root.is_file() else sorted(root.rglob("*.py"))
    return files


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def attribute_reads(paths) -> set[str]:
    """Every attribute name some load in ``paths`` reads (a
    ``getattr``/``hasattr``/``attrgetter`` constant included)."""
    reads: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        written: set[int] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                written.add(id(node.value))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS):
                written.add(id(node.func.value))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in written):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and _call_name(node.func)
                    in ("getattr", "hasattr", "attrgetter")):
                for arg in node.args:
                    if (isinstance(arg, ast.Constant)
                            and isinstance(arg.value, str)):
                        reads.update(arg.value.split("."))
    return reads


def assigned_fields(path: pathlib.Path) -> dict[str, int]:
    """``Class.attr -> line`` for each dataclass field and ``self.attr``
    store of the classes in one module, except those of a class that
    serialises ``self`` whole and those naming one of its methods or
    properties."""
    found: dict[str, int] = {}

    def visit_class(cls: ast.ClassDef, prefix: str) -> None:
        name = f"{prefix}{cls.name}"
        own: dict[str, int] = {}
        members = set()
        serialised = False
        is_dataclass = any(_call_name(getattr(d, "func", d)) == "dataclass"
                           for d in cls.decorator_list)
        for stmt in cls.body:
            if (is_dataclass and isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)):
                own.setdefault(stmt.target.id, stmt.lineno)
            elif isinstance(stmt, ast.ClassDef):
                visit_class(stmt, f"{name}.")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(stmt.name)
                if not stmt.args.args:
                    continue
                self_name = stmt.args.args[0].arg
                for node in ast.walk(stmt):
                    targets = []
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                        targets = [node.target]
                    elif (isinstance(node, ast.Call)
                            and _call_name(node.func) in SERIALISERS
                            and any(getattr(a, "id", "") == self_name
                                    for a in node.args)):
                        serialised = True
                    elif (isinstance(node, ast.Attribute)
                            and node.attr == "__dict__"
                            and getattr(node.value, "id", "") == self_name):
                        serialised = True
                    for target in targets:
                        for leaf in ast.walk(target):
                            if (isinstance(leaf, ast.Attribute)
                                    and isinstance(leaf.ctx, ast.Store)
                                    and getattr(leaf.value, "id", "")
                                    == self_name):
                                own.setdefault(leaf.attr, leaf.lineno)
        if serialised:
            return
        for attr, line in own.items():
            if attr not in members and not attr.startswith("__"):
                found.setdefault(f"{name}.{attr}", line)

    tree = ast.parse(path.read_text())

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit_class(child, prefix)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def write_only_fields(package: pathlib.Path, users) -> list[str]:
    """``file:Class.attr`` keys of the fields under ``package`` that no
    load in ``users`` reads by name."""
    reads = attribute_reads(python_files(users))
    return sorted(
        f"{path.relative_to(package)}:{field}"
        for path in python_files([package])
        for field in assigned_fields(path)
        if field.rpartition(".")[2] not in reads)


# -- test-only re-exports (static) -------------------------------------------

def _module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _literal_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", "") == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def package_exports(package: pathlib.Path) -> dict[str, tuple]:
    """``module -> (init path, {re-exported name: source module})`` for
    each package under ``package``: the names its ``__all__`` lists
    that one of its ``from ... import`` statements binds."""
    src = package.parent
    found = {}
    for init in sorted(package.rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        module = _module_name(init, src)
        listed = set(_literal_all(tree))
        sources = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                origin = _resolve(node, module, True)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if bound in listed:
                        sources[bound] = origin
        found[module] = (init, sources)
    return found


def _resolve(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    if not node.level:
        return node.module or ""
    base = module.split(".")
    if not is_package:
        base = base[:-1]
    base = base[:len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def readme_blocks(paths) -> list[str]:
    """The ```python code blocks of the given Markdown files."""
    blocks = []
    for path in paths:
        blocks += re.findall(r"```python\n(.*?)```", path.read_text(),
                             flags=re.S)
    return blocks


def imported_names(sources, exports: dict[str, tuple]) -> set[tuple]:
    """``(module, name)`` for each name the ``(module name, is package,
    source text)`` triples import from a module, directly or through a
    module alias (``import repro.netsim as ns; ns.Packet``).  A package
    ``__init__``'s import of a name its own ``__all__`` lists is its
    re-export, not a use."""
    used: set[tuple] = set()
    for module, is_package, text in sources:
        try:
            tree = ast.parse(text)
        except SyntaxError:
            continue
        own = exports.get(module, (None, {}))[1] if is_package else {}
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                origin = _resolve(node, module, is_package)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "*":
                        used.update((origin, name) for name in
                                    exports.get(origin, (None, {}))[1])
                        continue
                    if f"{origin}.{alias.name}" in exports:
                        aliases[bound] = f"{origin}.{alias.name}"
                    if own.get(bound) != origin:
                        used.add((origin, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, (ast.Name, ast.Attribute)):
                chain = []
                inner = node
                while isinstance(inner, ast.Attribute):
                    chain.append(inner.attr)
                    inner = inner.value
                if isinstance(inner, ast.Name) and inner.id in aliases:
                    target = aliases[inner.id]
                    for attr in reversed(chain):
                        if f"{target}.{attr}" in exports:
                            target = f"{target}.{attr}"
                            continue
                        used.add((target, attr))
                        break
    return used


def test_only_exports(package: pathlib.Path, users, readmes=()) -> list[str]:
    """``package/__init__.py:__all__.Name`` keys of the re-exports under
    ``package`` that nothing in ``users`` (source roots whose files are
    named relative to ``package``'s parent) or in the ``readmes``' code
    blocks imports from that package."""
    src = package.parent
    exports = package_exports(package)
    sources = [(_module_name(path, src) if path.is_relative_to(src)
                else path.stem, path.name == "__init__.py", path.read_text())
               for path in python_files(users)]
    sources += [("__readme__", False, block)
                for block in readme_blocks(readmes)]
    used = imported_names(sources, exports)
    return sorted(
        f"{init.relative_to(package)}:__all__.{name}"
        for module, (init, reexported) in exports.items()
        for name in reexported
        if (module, name) not in used and not name.startswith("__"))


def drive() -> None:
    """Everything the report counts as a caller."""
    import bench.harness
    from bench.workloads import WORKLOADS
    from repro.__main__ import main as repro_main
    from repro.experiments import ALL_EXPERIMENTS
    from repro.obs import runtime as obs_runtime

    params = fast_params()
    for observed in (False, True):
        if observed:
            obs_runtime.enable()
        try:
            for experiment_id, run in ALL_EXPERIMENTS.items():
                run(seed=1, **params.get(experiment_id, {})).render()
        finally:
            obs_runtime.disable()

    for workload in WORKLOADS.values():
        world = workload.build(0, bench.harness.SMOKE_SCALE)
        workload.run(world, bench.harness.Probe())

    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")

    with tempfile.TemporaryDirectory() as out:
        for argv in (["F1A"], ["F1A", "--json"],
                     ["obs", "trace", "E10", "--out", f"{out}/E10"],
                     ["obs", "metrics", "E10", "--out", f"{out}/E10"],
                     ["obs", "slo", "E22", "--out", f"{out}/E22"],
                     ["obs", "alerts", "E22", "--out", f"{out}/E22"],
                     ["run", "E18", "--shards", "1", "--json"],
                     ["run", "E23", "--shards", "1", "--json"]):
            obs_runtime.disable()
            repro_main(argv)
    obs_runtime.disable()


def main() -> int:
    ran: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)
    watch: DefaultWatch | None = None

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                ran.add((code.co_filename, code.co_firstlineno))
                if watch is not None:
                    watch.see(frame)

    # The runs print tables; only the report goes to stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            # Import-time calls count as runs; the parameter watch needs
            # the function objects the imports create.
            import_all(PACKAGE)
            watch = DefaultWatch(prefix)
            drive()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    defined = definitions()
    # A function nested in an unreached one is part of its count.
    unreached = sorted(
        key for key, (_, _, enclosing) in defined.items()
        if key not in ran and (enclosing is None or enclosing in ran))
    by_file: dict[str, list[tuple[int, str, int]]] = {}
    kept = kept_lines = 0
    for filename, line in unreached:
        name, lines, _ = defined[(filename, line)]
        if f"{pathlib.Path(filename).relative_to(PACKAGE)}:{name}" in KEEP:
            kept += 1
            kept_lines += lines
            continue
        by_file.setdefault(filename, []).append((line, name, lines))

    total = total_lines = 0
    for filename, rows in by_file.items():
        file_lines = sum(lines for _, _, lines in rows)
        total += len(rows)
        total_lines += file_lines
        relative = pathlib.Path(filename).relative_to(SRC)
        print(f"{relative}: {len(rows)} functions, {file_lines} lines")
        for line, name, lines in rows:
            print(f"  {line:5d}  {name}  ({lines} lines)")
    summary = [f"unreached: {len(unreached)} of {len(defined)} functions; "
               f"{kept} ({kept_lines} lines) kept with a reason; "
               f"{total} ({total_lines} lines) in {len(by_file)} files "
               "unjustified"]

    names = {key: f"{pathlib.Path(key[0]).relative_to(PACKAGE)}:{name}"
             for key, (name, _, _) in defined.items()}
    for kind, found in (
            ("unset parameters", watch.findings(names)),
            ("write-only fields", write_only_fields(PACKAGE, USERS)),
            ("test-only re-exports",
             test_only_exports(PACKAGE, USERS, READMES))):
        unjustified = [key for key in found if key not in KEEP]
        if unjustified:
            print(f"\n{kind}:")
            for key in unjustified:
                print(f"  {key}")
        total += len(unjustified)
        summary.append(f"{kind}: {len(found)}; "
                       f"{len(found) - len(unjustified)} kept with a "
                       f"reason; {len(unjustified)} unjustified")
    print("\n" + "\n".join(summary))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
