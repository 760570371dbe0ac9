"""Tests for the §4 'other applications' middleboxes: encryption
everywhere, replica selection, and cross-user sensor privacy."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.middleboxes import (
    DecryptionGateway,
    EncryptionEverywhere,
    ProtectedZone,
    SensorPrivacyGuard,
    SubjectPolicy,
)
from repro.middleboxes.replica_selector import ReplicaSelector
from repro.middleboxes.encryptor import seal, unseal
from repro.netproto.http import HttpRequest, HttpResponse
from repro.netsim import Packet
from repro.nfv import ProcessingContext
from repro.nfv.middlebox import VerdictKind
from repro.workloads import Eavesdropper, IotSensor

KEY = b"session-key-1"


def ctx():
    return ProcessingContext(now=0.0, owner="alice")


def pkt(payload=None, **kwargs):
    defaults = dict(src="10.0.0.5", dst="198.51.100.7", owner="alice")
    defaults.update(kwargs)
    return Packet(payload=payload, **defaults)


class TestSealing:
    @given(st.binary(max_size=500), st.binary(min_size=1, max_size=32),
           st.binary(min_size=1, max_size=16))
    def test_roundtrip(self, plaintext, key, nonce):
        assert unseal(key, nonce, seal(key, nonce, plaintext)) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b"secret message body content"
        assert seal(KEY, b"n1", plaintext) != plaintext

    def test_wrong_key_garbles(self):
        sealed = seal(KEY, b"n1", b"hello world!")
        assert unseal(b"other-key", b"n1", sealed) != b"hello world!"

    def test_nonce_matters(self):
        assert seal(KEY, b"n1", b"same") != seal(KEY, b"n2", b"same")


class TestEncryptionEverywhere:
    def test_plaintext_request_sealed_and_invisible_to_eavesdropper(self):
        encryptor = EncryptionEverywhere(KEY)
        eve = Eavesdropper()
        packet = pkt(HttpRequest("POST", "api.example",
                                 body=b"token=supersecret"))
        verdict = encryptor.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        eve.observe(packet)
        assert not eve.saw(b"supersecret")
        assert encryptor.sealed_count == 1

    def test_https_traffic_left_alone(self):
        encryptor = EncryptionEverywhere(KEY)
        packet = pkt(HttpRequest("POST", "api.example", body=b"x",
                                 https=True))
        assert encryptor.process(packet, ctx()).kind is VerdictKind.PASS

    def test_decryption_gateway_restores(self):
        encryptor = EncryptionEverywhere(KEY)
        gateway = DecryptionGateway(KEY)
        body = b"original plaintext body"
        packet = pkt(HttpRequest("POST", "api.example", body=body))
        encryptor.process(packet, ctx())
        assert packet.payload.body != body
        verdict = gateway.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.payload.body == body

    def test_gateway_ignores_unsealed(self):
        gateway = DecryptionGateway(KEY)
        packet = pkt(HttpRequest("GET", "x.example"))
        assert gateway.process(packet, ctx()).kind is VerdictKind.PASS

    def test_raw_bytes_and_responses_sealed(self):
        encryptor = EncryptionEverywhere(KEY)
        gateway = DecryptionGateway(KEY)
        raw = pkt(b"raw payload bytes")
        encryptor.process(raw, ctx())
        assert raw.payload != b"raw payload bytes"
        gateway.process(raw, ctx())
        assert raw.payload == b"raw payload bytes"
        response = pkt(HttpResponse(body=b"page content"))
        encryptor.process(response, ctx())
        assert response.payload.body != b"page content"

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            EncryptionEverywhere(b"")


class TestReplicaSelector:
    def make(self, explore=0.0, seed=0):
        return ReplicaSelector(
            service_cidr="198.51.100.0/24",
            replicas=["198.51.100.1", "198.51.100.2", "198.51.100.3"],
            rng=np.random.default_rng(seed),
            explore_probability=explore,
        )

    def test_routes_to_measured_best(self):
        selector = self.make()
        selector.report_rtt("198.51.100.1", 0.120)
        selector.report_rtt("198.51.100.2", 0.020)
        selector.report_rtt("198.51.100.3", 0.080)
        packet = pkt(dst="198.51.100.9")
        verdict = selector.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.dst == "198.51.100.2"
        assert packet.metadata["original_dst"] == "198.51.100.9"

    def test_unmanaged_destination_untouched(self):
        selector = self.make()
        packet = pkt(dst="203.0.113.5")
        assert selector.process(packet, ctx()).kind is VerdictKind.PASS
        assert packet.dst == "203.0.113.5"

    def test_already_best_passes(self):
        selector = self.make()
        selector.report_rtt("198.51.100.1", 0.010)
        packet = pkt(dst="198.51.100.1")
        assert selector.process(packet, ctx()).kind is VerdictKind.PASS

    def test_ewma_adapts_to_changing_conditions(self):
        selector = self.make()
        for _ in range(5):
            selector.report_rtt("198.51.100.1", 0.010)
            selector.report_rtt("198.51.100.2", 0.100)
        assert selector.best_replica() == "198.51.100.1"
        for _ in range(20):
            selector.report_rtt("198.51.100.1", 0.300)
        assert selector.best_replica() == "198.51.100.2"

    def test_exploration_happens(self):
        selector = self.make(explore=0.5, seed=1)
        selector.report_rtt("198.51.100.1", 0.001)
        chosen = []
        for _ in range(40):
            packet = pkt(dst="198.51.100.9")
            selector.process(packet, ctx())
            chosen.append(packet.dst)
        # Only exploration ever picks a replica other than the best one.
        assert chosen.count("198.51.100.1") < 40
        assert chosen.count("198.51.100.2") > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaSelector("0.0.0.0/0", [], np.random.default_rng(0))
        with pytest.raises(ValueError):
            ReplicaSelector("0.0.0.0/0", ["1.1.1.1"],
                            np.random.default_rng(0),
                            explore_probability=1.5)


class TestSensorPrivacy:
    def make_guard(self):
        guard = SensorPrivacyGuard()
        guard.register(SubjectPolicy(
            subject_id="alice",
            identifiers=(b"alice-phone-mac",),
            zones=(ProtectedZone(42.0, 43.0, -72.0, -71.0),),
        ))
        return guard

    def upload(self, body, owner="neighbor"):
        return pkt(HttpRequest("POST", "iot-hub.example", "/ingest",
                               body=body), owner=owner)

    def test_subject_mention_blurred(self):
        guard = self.make_guard()
        packet = self.upload(b"frame=42&subject=alice&quality=hd")
        verdict = guard.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert b"subject=[BLURRED]" in packet.payload.body
        assert b"frame=[BLURRED]" in packet.payload.body
        assert guard.uploads_blurred == 1

    def test_identifier_match_blurred(self):
        guard = self.make_guard()
        packet = self.upload(b"seen_devices=alice-phone-mac,other&frame=7")
        assert guard.process(packet, ctx()).kind is VerdictKind.REWRITE

    def test_capture_inside_zone_blurred(self):
        guard = self.make_guard()
        packet = self.upload(b"frame=9&lat=42.3601&lon=-71.0589")
        verdict = guard.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert b"lat=[BLURRED]" in packet.payload.body
        assert b"42.3601" not in packet.payload.body

    def test_capture_outside_zone_passes(self):
        guard = self.make_guard()
        packet = self.upload(b"frame=9&lat=10.0000&lon=10.0000")
        assert guard.process(packet, ctx()).kind is VerdictKind.PASS
        assert b"lat=10.0000" in packet.payload.body

    def test_unrelated_subjects_pass(self):
        guard = self.make_guard()
        packet = self.upload(b"frame=1&subject=bob")
        assert guard.process(packet, ctx()).kind is VerdictKind.PASS

    def test_iot_sensor_in_protected_zone(self):
        """An IotSensor that happens to record inside the zone."""
        guard = SensorPrivacyGuard()
        guard.register(SubjectPolicy(
            subject_id="alice",
            zones=(ProtectedZone(-90.0, 90.0, -180.0, 180.0),),  # everywhere
        ))
        sensor = IotSensor("cam9", owner="neighbor")
        packet = sensor.reading_packet(np.random.default_rng(3))
        verdict = guard.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE

    def test_non_http_passes(self):
        guard = self.make_guard()
        assert guard.process(pkt(b"raw"), ctx()).kind is VerdictKind.PASS
