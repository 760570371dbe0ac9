"""Tests for synthetic workloads, apps, adversaries, and cost models."""

import collections

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.middleboxes import PiiDetector
from repro.netproto.http import HttpRequest
from repro.netproto.tls import make_web_pki
from repro.nfv import ProcessingContext
from repro.workloads.apps import BrowserApp, CarelessApp
from repro.workloads import Eavesdropper, IotSensor, LeakyApp, synth_user
from repro.workloads.device_cost import (
    EnergyModel,
    cloud_tunnel_enforcement_cost,
    in_network_enforcement_cost,
    on_device_enforcement_cost,
)
from repro.workloads.traffic import flow_to_packet, synth_flows
from repro.workloads.adversary import mitm_scenario
from repro.workloads.pii import score_detection, synth_request_stream

NOW = 1000.0


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPiiCorpus:
    def test_user_pii_matches_detector_patterns(self):
        user = synth_user(rng())
        detector = PiiDetector(mode="detect")
        for pii_type, value in user.pii_values().items():
            hits = detector.scan(b"prefix " + value + b" suffix")
            assert any(t == pii_type for t, _ in hits), pii_type

    def test_request_stream_labels_consistent(self):
        user = synth_user(rng(1))
        stream = synth_request_stream(user, rng(2), n_requests=300,
                                      leak_probability=0.4)
        leaky = [r for r in stream if r.leaks]
        clean = [r for r in stream if not r.leaks]
        assert 60 < len(leaky) < 180
        pii_values = set(user.pii_values().values())
        for request in clean:
            assert not any(v in request.body for v in pii_values)
        for request in leaky:
            assert any(v in request.body for v in pii_values)

    def test_detector_scores_high_recall_on_corpus(self):
        user = synth_user(rng(3))
        stream = synth_request_stream(user, rng(4), n_requests=200,
                                      https_fraction=0.0)
        detector = PiiDetector(mode="detect")
        flagged = [bool(detector.scan(r.body)) for r in stream]
        score = score_detection(stream, flagged)
        assert score.recall > 0.95
        assert score.precision > 0.95

    def test_score_counts(self):
        from repro.workloads.pii import LabelledRequest

        stream = [
            LabelledRequest("h", b"x", False, ("email",)),
            LabelledRequest("h", b"x", False, ()),
        ]
        score = score_detection(stream, [False, True])
        assert score.false_negatives == 1
        assert score.false_positives == 1
        assert score.recall == 0.0


class TestTraffic:
    def test_mix_roughly_respected(self):
        flows = synth_flows(rng(5), n_flows=1000)
        kinds = {f.kind for f in flows}
        assert kinds == {"web", "video", "app_api", "dns", "iot"}
        video_count = sum(1 for f in flows if f.kind == "video")
        assert 80 < video_count < 250

    def test_video_dominates_bytes(self):
        flows = synth_flows(rng(6), n_flows=1000)
        totals = collections.Counter()
        for flow in flows:
            totals[flow.kind] += flow.size_bytes
        assert totals["video"] > totals["web"]
        assert totals["video"] > totals["app_api"]

    def test_flow_to_packet_preserves_identity(self):
        flow = synth_flows(rng(7), n_flows=1)[0]
        packet = flow_to_packet(flow, owner="bob")
        assert packet.owner == "bob"
        assert packet.flow_id == flow.flow_id
        assert packet.dst_port == flow.dst_port

class TestApps:
    def test_browser_refuses_mitm_but_careless_accepts(self):
        _, store, servers = make_web_pki(NOW, ["bank.example.com"])
        scenario = mitm_scenario(NOW)
        forged = scenario.interceptor.intercept(
            servers["bank.example.com"].respond("bank.example.com")
        )
        browser = BrowserApp(store)
        careless = CarelessApp()
        assert not browser.connect(forged, NOW).proceeded
        assert careless.connect(forged, NOW).proceeded

    def test_leaky_app_embeds_ground_truth(self):
        user = synth_user(rng(9), "carol")
        app = LeakyApp(user)
        packet = app.telemetry_packet(rng(10))
        leak_type = packet.metadata["ground_truth_leak"]
        assert user.pii_values()[leak_type] in packet.payload.body
        assert packet.owner == "carol"

    def test_iot_sensor_uploads_location(self):
        sensor = IotSensor("cam1", owner="dave")
        packet = sensor.reading_packet(rng(11))
        assert b"lat=" in packet.payload.body
        assert sensor.uploads == 1


class TestEavesdropper:
    def test_sees_plaintext_bodies(self):
        eve = Eavesdropper()
        request = HttpRequest("POST", "x.example", body=b"secret=hunter2")
        from repro.netsim import Packet

        eve.observe(Packet(src="1.1.1.1", dst="2.2.2.2", payload=request))
        assert eve.saw(b"hunter2")
        assert not eve.saw(b"other")
        assert sum(len(blob) for blob in eve.observed) > 0

    def test_ignores_empty_payloads(self):
        from repro.netsim import Packet

        eve = Eavesdropper()
        eve.observe(Packet(src="1.1.1.1", dst="2.2.2.2"))
        assert eve.observed == []


class TestDeviceCost:
    def test_on_device_costs_more_than_in_network(self):
        """§3.2: on-device enforcement burns CPU the PVN saves."""
        nbytes = 100_000_000
        on_device = on_device_enforcement_cost(nbytes)
        in_network = in_network_enforcement_cost(nbytes)
        assert on_device.total_joules > in_network.total_joules
        assert in_network.cpu_joules == 0.0

    def test_cloud_tunnel_pays_encap_overhead(self):
        nbytes = 100_000_000
        tunnel = cloud_tunnel_enforcement_cost(nbytes)
        in_network = in_network_enforcement_cost(nbytes)
        assert tunnel.radio_joules == pytest.approx(
            EnergyModel().radio_energy(int(nbytes * 1.05)))
        assert tunnel.radio_joules > in_network.radio_joules

    def test_cell_radio_costs_more_than_wifi(self):
        model = EnergyModel()
        wifi = model.radio_energy(10_000_000, "wifi")
        cell = model.radio_energy(10_000_000, "cell", wakes=5)
        assert cell > wifi

    def test_battery_fraction(self):
        model = EnergyModel()
        assert model.battery_fraction(model.battery_joules) == 1.0
        assert 0 < model.battery_fraction(100.0) < 0.01

    def test_guards(self):
        model = EnergyModel()
        with pytest.raises(ConfigurationError):
            model.radio_energy(10, "carrier-pigeon")
        with pytest.raises(ConfigurationError):
            EnergyModel(battery_joules=0.0)
