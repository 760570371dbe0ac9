"""Tests for attestation, path proofs, measurements, violations,
and reputation."""

import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.auditor.attestation import AttestationVerifier, TrustedPlatform
from repro.core.auditor.violations import EvidenceLedger
from repro.core.auditor.path_proof import (
    HOPS_KEY,
    PROOF_KEY,
    ProofStamp,
    key_schedule,
    make_keyring,
    path_proof_ok,
    proof_chain,
    verify_path,
)
from repro.core.auditor.reputation import ReputationSystem, choose_provider
from repro.core.auditor.measurements import (
    MeasurementResult,
    content_modification_test,
    differentiation_test,
    path_inflation_test,
    privacy_exposure_test,
)
from repro.core.auditor import file_dispute
from repro.errors import AttestationError, AuditError
from repro.netsim import Packet

NOW = 500.0


def probe():
    return Packet(src="10.0.0.1", dst="198.51.100.1", owner="alice")


class TestAttestation:
    def setup_method(self):
        self.platform = TrustedPlatform("tpm.isp", b"platform-key")
        self.verifier = AttestationVerifier()
        self.verifier.trust_platform("tpm.isp", b"platform-key")

    def test_honest_attestation_verifies(self):
        attestation = self.platform.attest(
            "alice/d1", b"digest" * 5 + b"xx", ("classifier", "pii"), NOW
        )
        self.verifier.verify(attestation, b"digest" * 5 + b"xx",
                             ("classifier", "pii"), now=NOW + 1)

    def test_tampered_config_detected(self):
        attestation = self.platform.attest("alice/d1", b"a" * 32,
                                           ("classifier",), NOW)
        with pytest.raises(AttestationError, match="tampered"):
            self.verifier.verify(attestation, b"b" * 32, ("classifier",),
                                 now=NOW)

    def test_service_mismatch_detected(self):
        attestation = self.platform.attest("alice/d1", b"a" * 32,
                                           ("classifier",), NOW)
        with pytest.raises(AttestationError, match="differ"):
            self.verifier.verify(attestation, b"a" * 32,
                                 ("classifier", "pii"), now=NOW)

    def test_forged_signature_detected(self):
        rogue = TrustedPlatform("tpm.isp", b"wrong-key")
        attestation = rogue.attest("alice/d1", b"a" * 32, (), NOW)
        with pytest.raises(AttestationError, match="signature"):
            self.verifier.verify(attestation, b"a" * 32, (), now=NOW)

    def test_untrusted_platform_rejected(self):
        other = TrustedPlatform("tpm.unknown", b"k")
        attestation = other.attest("alice/d1", b"a" * 32, (), NOW)
        with pytest.raises(AttestationError, match="untrusted"):
            self.verifier.verify(attestation, b"a" * 32, (), now=NOW)

    def test_stale_attestation_rejected(self):
        attestation = self.platform.attest("alice/d1", b"a" * 32, (), NOW)
        with pytest.raises(AttestationError, match="stale"):
            self.verifier.verify(attestation, b"a" * 32, (),
                                 now=NOW + 10_000)


class TestPathProofs:
    def test_honest_traversal_verifies(self):
        keyring = make_keyring("alice/d1", ["classifier", "pii", "proxy"])
        packet = probe()
        for waypoint in ("classifier", "pii", "proxy"):
            ProofStamp(waypoint, keyring.key_for(waypoint))(packet)
        verify_path(packet, keyring, ["classifier", "pii", "proxy"])
        assert path_proof_ok(packet, keyring, ["classifier", "pii", "proxy"])

    def test_skipped_waypoint_detected(self):
        keyring = make_keyring("alice/d1", ["classifier", "pii"])
        packet = probe()
        # pii skipped
        ProofStamp("classifier", keyring.key_for("classifier"))(packet)
        assert not path_proof_ok(packet, keyring, ["classifier", "pii"])

    def test_reordered_waypoints_detected(self):
        keyring = make_keyring("alice/d1", ["a", "b"])
        packet = probe()
        ProofStamp("b", keyring.key_for("b"))(packet)
        ProofStamp("a", keyring.key_for("a"))(packet)
        assert not path_proof_ok(packet, keyring, ["a", "b"])

    def test_forged_mac_detected(self):
        keyring = make_keyring("alice/d1", ["a", "b"])
        forged_ring = make_keyring("alice/OTHER", ["a", "b"])
        packet = probe()
        # The attacker lacks the real keys.
        ProofStamp("a", forged_ring.key_for("a"))(packet)
        ProofStamp("b", forged_ring.key_for("b"))(packet)
        assert not path_proof_ok(packet, keyring, ["a", "b"])

    def test_unknown_waypoint_key(self):
        keyring = make_keyring("alice/d1", ["a"])
        with pytest.raises(AuditError, match="no proof key"):
            keyring.key_for("ghost")

    def test_waypoint_name_with_the_hop_separator_refused(self):
        with pytest.raises(AuditError, match="hop separator"):
            make_keyring("alice/d1", ["classifier", "pii,proxy"])

    @settings(max_examples=200, deadline=None)
    @given(key=st.binary(min_size=0, max_size=200), message=st.binary())
    def test_key_schedule_mac_is_the_truncated_hmac(self, key, message):
        inner, outer = key_schedule(key)
        inner = inner.copy()
        inner.update(message)
        outer = outer.copy()
        outer.update(inner.digest())
        assert outer.digest()[:16] == hmac.digest(key, message, "sha256")[:16]

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.binary(min_size=0, max_size=200), min_size=1,
                         max_size=3),
           packet_id=st.integers(min_value=0, max_value=2**63))
    def test_stamps_chain_the_truncated_hmac_for_any_key(self, keys,
                                                         packet_id):
        packet = Packet(src="10.0.0.1", dst="8.8.8.8", packet_id=packet_id)
        expected, previous = [], b""
        for i, key in enumerate(keys):
            ProofStamp(f"w{i}", key)(packet)
            previous = hmac.digest(
                key, str(packet_id).encode() + previous, "sha256")[:16]
            expected.append((f"w{i}", previous))
        assert proof_chain(packet) == expected

    def test_one_path_shares_one_hop_string(self):
        keyring = make_keyring("alice/d1", ["classifier", "pii", "proxy"])
        stamps = [ProofStamp(waypoint, keyring.key_for(waypoint))
                  for waypoint in ("classifier", "pii", "proxy")]
        packets = [probe(), probe()]
        for packet in packets:
            for stamp in stamps:
                stamp(packet)
        first, second = (packet.metadata for packet in packets)
        assert first[HOPS_KEY] == "classifier,pii,proxy"
        assert first[HOPS_KEY] is second[HOPS_KEY]
        assert type(first[PROOF_KEY]) is bytes
        assert len(first[PROOF_KEY]) == 3 * 16
        assert [name for name, _ in proof_chain(packets[0])] == [
            "classifier", "pii", "proxy"]
        assert proof_chain(probe()) == []

    def test_chain_whose_length_disagrees_with_its_hops_is_forged(self):
        keyring = make_keyring("alice/d1", ["a", "b"])
        for cut in (lambda chain: chain[:-1], lambda chain: chain + b"\0"):
            packet = probe()
            for waypoint in ("a", "b"):
                ProofStamp(waypoint, keyring.key_for(waypoint))(packet)
            verify_path(packet, keyring, ["a", "b"])
            packet.metadata[PROOF_KEY] = cut(packet.metadata[PROOF_KEY])
            with pytest.raises(AuditError,
                               match="forged proof at waypoint 'b'"):
                verify_path(packet, keyring, ["a", "b"])


class TestMeasurements:
    def test_differentiation_detects_video_shaping(self):
        def throughput(kind):
            return 1.5e6 if kind == "video" else 40e6

        result = differentiation_test(throughput)
        assert result.violated

    def test_differentiation_passes_neutral_network(self):
        result = differentiation_test(lambda kind: 40e6)
        assert not result.violated

    def test_content_modification_detected(self):
        import hashlib

        expected = {"u": hashlib.sha256(b"original").digest()}
        tampered = content_modification_test(lambda u: b"original+ads",
                                             expected)
        assert tampered.violated
        intact = content_modification_test(lambda u: b"original", expected)
        assert not intact.violated

    def test_privacy_exposure(self):
        leaked = privacy_exposure_test(
            lambda canary: b"observed: " + canary, b"CANARY-123",
            policy_scrubs=True,
        )
        assert leaked.violated
        scrubbed = privacy_exposure_test(
            lambda canary: b"observed: [REDACTED]", b"CANARY-123",
            policy_scrubs=True,
        )
        assert not scrubbed.violated
        no_policy = privacy_exposure_test(
            lambda canary: b"observed: " + canary, b"CANARY-123",
            policy_scrubs=False,
        )
        assert not no_policy.violated

    def test_path_inflation(self):
        inflated = path_inflation_test(lambda: 0.200, expected_rtt=0.040)
        assert inflated.violated
        honest = path_inflation_test(lambda: 0.045, expected_rtt=0.040)
        assert not honest.violated

    def test_guards(self):
        with pytest.raises(AuditError):
            differentiation_test(lambda kind: 1.0, trials=0)
        with pytest.raises(AuditError):
            content_modification_test(lambda u: b"", {})
        with pytest.raises(AuditError):
            privacy_exposure_test(lambda c: b"", b"", policy_scrubs=True)
        with pytest.raises(AuditError):
            path_inflation_test(lambda: 0.1, expected_rtt=0.0)


class TestViolationsAndReputation:
    def test_ledger_records_only_violations(self):
        ledger = EvidenceLedger()
        bad = MeasurementResult("t1", violated=True, detail="bad")
        good = MeasurementResult("t2", violated=False, detail="fine")
        assert ledger.record_result(bad, "isp", "d1", NOW) is not None
        assert ledger.record_result(good, "isp", "d1", NOW) is None
        assert len(ledger.violations_for("isp")) == 1

    def test_dispute_from_evidence(self):
        ledger = EvidenceLedger()
        ledger.record_result(
            MeasurementResult("shaping", True, "video throttled"),
            "isp", "d1", NOW,
        )
        dispute = file_dispute(ledger, "isp", "d1", amount_paid=2.5)
        assert dispute is not None
        assert dispute.amount_disputed == 2.5
        assert "shaping" in dispute.summary
        assert file_dispute(ledger, "isp", "other", 1.0) is None

    def test_reputation_converges_down_for_cheaters(self):
        reputation = ReputationSystem(blacklist_threshold=0.3)
        for _ in range(10):
            reputation.observe("cheater", passed=False)
            reputation.observe("honest", passed=True)
        assert reputation.score("cheater") < 0.3
        assert reputation.blacklisted("cheater")
        assert reputation.score("honest") > 0.8
        assert not reputation.blacklisted("honest")
        assert reputation.eligible(["cheater", "honest"]) == ["honest"]

    def test_decay_allows_recovery(self):
        reputation = ReputationSystem(blacklist_threshold=0.3, decay=0.8)
        for _ in range(10):
            reputation.observe("isp", passed=False)
        assert reputation.blacklisted("isp")
        for _ in range(20):
            reputation.observe("isp", passed=True)
        assert not reputation.blacklisted("isp")

    def test_choose_provider_balances_price_and_reputation(self):
        reputation = ReputationSystem()
        for _ in range(5):
            reputation.observe("good", True)
            reputation.observe("bad", False)
        chosen = choose_provider(
            reputation, [("good", 2.0), ("bad", 0.0)], price_weight=0.01
        )
        assert chosen == "good"
        # With extreme price sensitivity the cheap one wins — unless
        # blacklisted.
        for _ in range(10):
            reputation.observe("bad", False)
        chosen = choose_provider(
            reputation, [("good", 2.0), ("bad", 0.0)], price_weight=10.0
        )
        assert chosen == "good"

    def test_choose_provider_none_eligible(self):
        reputation = ReputationSystem(blacklist_threshold=0.9)
        reputation.observe("only", False)
        assert choose_provider(reputation, [("only", 0.0)]) is None
