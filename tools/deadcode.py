"""Gate on the ``src/repro`` functions that none of the repo's own
entry points ever runs.

Run it from the repository root, with no flags::

    python tools/deadcode.py > deadcode.txt

It counts Python calls under ``sys.setprofile`` while it drives, in this
one process:

* every experiment at seed 1 with the tier-1 ``FAST_PARAMS``, first with
  observability off and then with it on;
* the four ``bench`` workloads at smoke scale;
* the ``examples/`` scripts;
* each command-line interface: ``python -m repro`` (table and
  ``--json``), ``obs trace|metrics|slo|alerts`` and ``run E18|E23`` with
  ``--shards 1``, so the shard sessions run in-process where the
  profiler sees them.

Every function or method defined under ``src/repro`` that never ran is
a finding.  A finding listed in :data:`KEEP` (``file:Qualname`` ->
one-line reason) is justified: a branch the runs do not take, a body
that runs only in a forked worker, a middlebox a user's PVNC can name,
a §3.3 check, a migration checkpoint hook, or a reference the tests
compare against.  The report prints every other finding, with its line
count, grouped by file, and the totals; the script exits 1 if there is
any, so a function that nothing runs must be deleted or justified here
before it lands.  ``tests/test_deadcode_keep.py`` fails on a stale
entry.  Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
for path in (str(ROOT), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)


#: Findings that stay, ``file:Qualname`` (the file relative to
#: ``src/repro``) -> why.  Nothing the runs reach belongs here.
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


def definitions() -> dict[tuple[str, int], tuple[str, int, tuple | None]]:
    """``(file, first line) -> (qualified name, line count, enclosing
    function's key)`` for every function under ``src/repro``.  The first
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

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "", None)
    return found


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

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                ran.add((code.co_filename, code.co_firstlineno))

    # The runs print tables; only the report goes to stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
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
    print(f"\nunreached: {len(unreached)} of {len(defined)} functions; "
          f"{kept} ({kept_lines} lines) kept with a reason; "
          f"{total} ({total_lines} lines) in {len(by_file)} files "
          "unjustified")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
