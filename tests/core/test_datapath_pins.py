"""Byte and label pins for what a compiled PVN hop resolves ahead of time.

A hop's proof key, MAC routine, reason labels and capability set are
resolved when the hop is compiled, not per packet.  Nothing a device,
auditor or experiment can observe may move because of that: the proof
MACs are the parent commit's bytes, reason labels and
``verdict_reasons`` are the parent's strings, a capability grant
changed after construction still governs the next packet, and the
E16/E21 replay accounting hashes to the parent's digests.  Values
recorded from the parent commit are marked as such.
"""

import hashlib
import hmac

import pytest

from repro.core.auditor.path_proof import (
    PROOF_KEY,
    ProofKeyring,
    make_keyring,
    stamp,
    stamp_keyed,
    verify_path,
)
from repro.core.deployment.manager import ACTION_DROP, ACTION_FORWARD
from repro.errors import AuditError
from repro.experiments import exp16_datapath, exp21_megaflow
from repro.netproto.http import HttpRequest
from repro.netsim import Packet, Tracer
from repro.nfv.middlebox import (
    Middlebox,
    ProcessingContext,
    Verdict,
    VerdictKind,
)
from repro.nfv.pipeline import Pipeline, PipelineStep, labeled_verdict
from repro.nfv.sandbox import Capability, Sandbox

from tests.core.test_datapath_invalidation import (  # noqa: F401 (fixtures)
    alice_packet,
    deployed,
    world,
)

WAYPOINTS = ["classifier", "tls_validator", "pii_detector"]
#: Stamped by the parent commit (``hmac.new(...).digest()[:16]`` per
#: hop) onto packet 4242 of deployment ``alice/pvn7``.
PARENT_PROOFS = [
    ("classifier", "7ca8bcecc5d0d1c5eea77b6a8de9db71"),
    ("tls_validator", "bd499c2ec020ece067c2f267abff93c6"),
    ("pii_detector", "5d1f7ab7f56ed721df4fdefccce93471"),
]


def proof_packet() -> Packet:
    return Packet(src="10.0.0.1", dst="198.51.100.5", owner="alice",
                  packet_id=4242)


class TestProofBytes:
    def test_both_stamps_chain_the_reference_hmac(self):
        keyring = make_keyring("alice/pvn7", WAYPOINTS)
        by_ring, by_key = proof_packet(), proof_packet()
        previous = b""
        for waypoint in WAYPOINTS:
            stamp(by_ring, waypoint, keyring)
            stamp_keyed(by_key, waypoint, keyring.key_for(waypoint))
            previous = hmac.new(
                keyring.key_for(waypoint), b"4242" + previous, hashlib.sha256,
            ).digest()[:16]
            assert by_ring.metadata[PROOF_KEY][-1] == (waypoint, previous)
        assert by_key.metadata[PROOF_KEY] == by_ring.metadata[PROOF_KEY]
        assert [(w, mac.hex()) for w, mac in by_key.metadata[PROOF_KEY]] == (
            PARENT_PROOFS)

    def test_parent_stamped_chain_verifies_and_a_forged_middle_does_not(self):
        keyring = make_keyring("alice/pvn7", WAYPOINTS)
        packet = proof_packet()
        packet.metadata[PROOF_KEY] = [
            (waypoint, bytes.fromhex(mac)) for waypoint, mac in PARENT_PROOFS]
        verify_path(packet, keyring, WAYPOINTS)
        waypoint, mac = packet.metadata[PROOF_KEY][1]
        packet.metadata[PROOF_KEY][1] = (waypoint, bytes([mac[0] ^ 1]) + mac[1:])
        with pytest.raises(AuditError, match="forged proof at waypoint "
                                             "'tls_validator'"):
            verify_path(packet, keyring, WAYPOINTS)

    def test_the_datapath_stamps_what_the_keyring_verifies(self, deployed):
        (sim, _, _, manager, _), ack = deployed
        deployment = manager.deployment(ack.deployment_id)
        packet = alice_packet(payload=HttpRequest("GET", "x.example.com", "/"))
        outcome = deployment.datapath.process(packet, now=sim.now)
        assert outcome.action == ACTION_FORWARD
        visited = [name for name, _ in packet.metadata[PROOF_KEY]]
        assert visited[0] == "classifier" and len(visited) > 1
        verify_path(packet, deployment.datapath.keyring, visited)


class TestCompileTimeResolution:
    def test_missing_proof_key_fails_once_at_pipeline_compile(self, deployed):
        (sim, _, _, manager, _), ack = deployed
        datapath = manager.deployment(ack.deployment_id).datapath
        datapath.keyring = ProofKeyring(
            datapath.deployment_id,
            tuple(pair for pair in datapath.keyring.keys
                  if pair[0] != "pii_detector"))
        packet = alice_packet(payload=HttpRequest("GET", "x.example.com", "/"))
        with pytest.raises(AuditError, match="no proof key for waypoint "
                                             "'pii_detector'"):
            datapath.process(packet, now=sim.now)
        # Refused while compiling the class's pipeline: nothing was
        # compiled, and no chain element past the classifier ran.
        assert datapath.pipeline_compiles == 0
        assert [name for name, _ in packet.metadata[PROOF_KEY]] == [
            "classifier"]

    def test_capabilities_assigned_later_govern_the_next_packet(self):
        class Blocker(Middlebox):
            def inspect(self, packet, context):
                return Verdict.dropped("blocked")

        sandbox = Sandbox(Blocker("blocker"), owner="alice",
                          capabilities=Capability.OBSERVE)
        context = ProcessingContext(now=0.0, owner="alice")
        packet = Packet(src="10.0.0.1", dst="10.0.0.2", owner="alice")
        assert sandbox.process(packet, context).kind is VerdictKind.PASS
        assert sandbox.violations == [
            "module returned drop without BLOCK capability"]
        sandbox.capabilities = Capability.OBSERVE | Capability.BLOCK
        assert sandbox.capabilities == Capability.OBSERVE | Capability.BLOCK
        assert sandbox.process(packet, context).kind is VerdictKind.DROP
        sandbox.capabilities = Capability.REWRITE
        assert sandbox.process(packet, context).kind is VerdictKind.PASS
        assert len(sandbox.violations) == 2

    def test_untraced_middlebox_builds_no_trace_record(self):
        tracer = Tracer()
        box = Middlebox("plain")
        packet = Packet(src="10.0.0.1", dst="10.0.0.2", owner="alice")
        box.process(packet, ProcessingContext(now=0.0, owner="alice"))
        assert len(tracer) == 0
        box.process(packet, ProcessingContext(now=1.5, owner="alice",
                                              tracer=tracer))
        (record,) = tracer.records("middlebox", "plain")
        assert dict(record.fields) == {
            "verdict": "pass", "reason": "", "packet_id": packet.packet_id}
        assert box.stats["processed"] == 2


class TestReasonLabels:
    def test_plain_and_annotated_labels(self):
        verdicts = iter([
            Verdict.passed(),
            Verdict.rewritten("scrubbed", fields=2),
            labeled_verdict(Verdict.dropped("gone"), "crashed"),
        ])
        pipeline = Pipeline("p", tuple(
            PipelineStep(name=name, runner=lambda p, c: next(verdicts))
            for name in ("tls", "pii", "proxy")))
        packet = Packet(src="10.0.0.1", dst="10.0.0.2", owner="alice")
        result = pipeline.run(packet, pipeline.context(0.0, "alice"))
        assert result.labels == ("tls:pass", "pii:rewrite", "proxy:crashed")
        assert result.terminal_kind is VerdictKind.DROP

        unnamed = Pipeline.tunnel("p/bridge", "cloud", "migrating:bridge")
        assert unnamed.run(packet, unnamed.context(0.0, "alice")).labels == (
            "migrating:bridge",)
        for kind in VerdictKind:
            step = PipelineStep(name="box", runner=lambda p, c: None)
            assert step.plain_labels[kind] == f"box:{kind.value}"

    def test_verdict_reasons_of_a_deployed_chain(self, deployed):
        # The strings and the delay are the parent commit's, for the
        # default PVNC's video_image chain (transcoder -> tcp_proxy).
        (sim, _, _, manager, _), ack = deployed
        deployment = manager.deployment(ack.deployment_id)
        datapath = deployment.datapath

        def send():
            request = HttpRequest("GET", "x.example.com", "/clip.mp4")
            return datapath.process(alice_packet(payload=request),
                                    now=sim.now)

        plain = send()
        assert plain.traffic_class == "video_image"
        assert plain.verdict_reasons == ("transcoder:pass",
                                         "tcp_proxy:rewrite")
        assert plain.added_delay == 0.00013499999999999997
        deployment.containers["transcoder"].crash(sim.now)
        crashed = send()
        assert crashed.action == ACTION_DROP
        assert crashed.verdict_reasons == ("transcoder:crashed",)
        datapath.degraded_to = "cloud"
        assert send().verdict_reasons == ("degraded:tunnel",)


class TestAccountingDigests:
    """E16/E21 replay accounting (per-rule match stats, table misses,
    conservation counters), hashed by E21's ``_digest``; the hex values
    were recorded from the parent commit."""

    def test_e21_churn_accounting_is_the_parents_in_every_configuration(self):
        for micro, mega, batch, scans in (
            (False, False, 0, 1600), (True, False, 0, 1600),
            (True, True, 0, 100), (True, True, exp21_megaflow.BATCH, 100),
        ):
            switch = exp21_megaflow._build_switch(100, Tracer())
            exp21_megaflow._configure(switch, micro, mega)
            exp21_megaflow._replay(
                switch, exp21_megaflow._churn_schedule(100, 1600), batch)
            assert exp21_megaflow._digest(switch) == (
                "3abf5f0fceabc6143f61e13c59b18284"
                "760f5f31aea6549bbb2c482e80b6da94")
            assert switch.full_classifications == scans

    def test_e16_replay_accounting_is_the_parents(self):
        switch = exp16_datapath._build_switch(100, Tracer())
        packets = exp16_datapath._packet_schedule(100)
        exp16_datapath._replay(switch, packets)
        switch.table.remove_pvn("user0/pvn0")
        exp16_datapath._replay(switch, packets)
        assert exp21_megaflow._digest(switch) == (
            "0fccc718b34cb65d5d2d87d55ff67879"
            "c17b2c19ae364f6f8df88f385858aeb2")
        assert switch.flow_cache.counters() == {
            "hits": 8064, "misses": 128, "invalidations": 64, "flushes": 2,
            "insertions": 128, "evictions": 0, "entries": 64,
        }
